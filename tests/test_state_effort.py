"""Deterministic flatness gate for the state layers.

The oracle, the reference switch and the PINS P4Runtime layer must answer
every per-update question (table count, dangling reference, delete
orphaning) and every per-packet lookup without touching the entries the
question is not about.  Wall-clock ratios say that noisily; call counts
say it exactly.  The same 50 churn updates and 50 packet probes run
against states pre-seeded with 1k and with 10k ToR entries must make

* zero ``ReferenceGraph.collect_state`` calls (the O(N) rebuild),
* the same ``ReferenceGraph.dangling_references`` count update for update,
* the same ``Interpreter._entry_matches`` count packet for packet, and
  no ``TableIndex.add`` (a per-packet index rebuild) beyond the churn's
  own inserts.

The 10k state is the 1k state plus 9k routes in a VRF the probes never
enter, so any per-update or per-packet work proportional to the store
shows up as a count difference.

The fuzz loop is gated per window on the same two states: no
``collect_state``, no ``Oracle._same_entry`` (the entry-by-entry read-back
comparison), and ``TableEntry.match_key`` calls bounded by a constant times
the window's update count.  Generating each wave walks installed keysets
and materialises installed entries for victim draws only in proportion to
the wave's own updates, whatever the state's size.

Bringing a store up to 1k and 10k production-like entries decodes only
what validation and ``@refers_to`` need: ``ReferenceSwitch.preload``
(which fully decodes each entry) and ``Oracle.resync`` each make a bounded
number of ``codec.decode`` calls per entry, and the oracle's available
state holds keysets of referenced tables only.  What those stores keep
alive per entry (GC-tracked objects and traced bytes, summed over the
switch, the oracle and the simulator's decoded state) is gated against
the cost before entries shared their immutable parts.
"""

import collections
import dataclasses
import gc
import tracemalloc

import pytest

from repro.bmv2.entries import InstalledEntry, decode_table_entry
from repro.bmv2.index import TableIndex
from repro.bmv2.interpreter import Interpreter
from repro.bmv2.packet import deparse_packet, make_ipv4_packet
from repro.fuzzer import FuzzerConfig, P4Fuzzer
from repro.fuzzer import oracle as oracle_module
from repro.fuzzer.oracle import Oracle
from repro.p4.constraints.refs import AvailableState, ReferenceGraph
from repro.p4.p4info import build_p4info
from repro.p4.programs import build_tor_program
from repro.p4rt import codec
from repro.p4rt.messages import (
    ReadRequest,
    TableEntry,
    Update,
    UpdateType,
    WriteRequest,
    WriteResponse,
)
from repro.p4rt.status import Status
from repro.switch import PinsSwitchStack, ReferenceSwitch
from repro.switchv.report import IncidentKind
from repro.workloads import EntryBuilder, production_like_entries
from repro.workloads.scale import production_scale_program
from tests.plain_refs import PlainReferenceGraph

SMALL, LARGE = 1_000, 10_000
FILLER_VRF = 4
COUNTED = (
    (ReferenceGraph, "collect_state"),
    (ReferenceGraph, "dangling_references"),
    (Interpreter, "_entry_matches"),
    (TableIndex, "add"),
)


@pytest.fixture(scope="module")
def workload():
    program, p4info = production_scale_program(build_tor_program(), LARGE + 1024)
    b = EntryBuilder(p4info)
    base = production_like_entries(p4info, SMALL, seed=3)
    base.append(b.exact("vrf_tbl", {"vrf_id": FILLER_VRF}, "NoAction"))
    filler = [
        b.lpm(
            "ipv4_tbl",
            {"vrf_id": FILLER_VRF},
            "ipv4_dst",
            (0x0A << 24) | (index << 8),
            24,
            "set_nexthop_id",
            {"nexthop_id": 1},
        )
        for index in range(LARGE - len(base))
    ]
    route_table = p4info.table_by_name("ipv4_tbl").id
    routes = [e for e in base if e.table_id == route_table]
    referenced = [
        e
        for e in base
        if p4info.tables[e.table_id].name in ("nexthop_tbl", "wcmp_group_tbl")
    ]
    drop = b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0, 8, "drop", {}).action
    updates = []
    for index in range(10):
        route = routes[index]
        moved = dataclasses.replace(routes[20 + index], action=drop)
        target = referenced[index % len(referenced)]
        # A nexthop no route uses: deleting it must be cleared of orphaning
        # without scanning the store for referrers.
        spare = b.exact(
            "nexthop_tbl",
            {"nexthop_id": 100 + index // 2},
            "set_ip_nexthop",
            {"router_interface_id": 1, "neighbor_id": 1},
        )
        odd = index % 2
        updates += [
            Update(UpdateType.DELETE, route),  # unreferenced: accepted
            Update(UpdateType.INSERT, route),
            Update(UpdateType.MODIFY, moved),  # a route's action changes
            # A referenced entry: modified in place, or refused deletion.
            Update(UpdateType.DELETE if odd else UpdateType.MODIFY, target),
            Update(UpdateType.DELETE if odd else UpdateType.INSERT, spare),
        ]
    packets = [
        deparse_packet(
            make_ipv4_packet(
                dst_addr=int.from_bytes(route.matches[-1].value, "big") | index
            )
        )
        for index, route in enumerate(routes[:50])
    ]
    return program, p4info, {SMALL: base, LARGE: base + filler}, updates, packets


@pytest.fixture
def counts(monkeypatch):
    calls = collections.Counter()
    for owner, name in COUNTED:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _per_step(counts, steps):
    """Run each step and record the counter deltas it caused."""
    out = []
    for step in steps:
        before = collections.Counter(counts)
        step()
        delta = collections.Counter(counts)
        delta.subtract(before)
        out.append(tuple(delta[name] for _owner, name in COUNTED))
    return out


def _write(switch, update):
    return lambda: switch.write(WriteRequest(updates=(update,)))


def _reference_switch(program, p4info, entries):
    switch = ReferenceSwitch(program)
    assert switch.set_forwarding_pipeline_config(p4info).ok
    assert switch.preload(entries) == len(entries)
    return switch


def _assert_flat(per_size):
    small, large = per_size[SMALL], per_size[LARGE]
    assert small == large
    assert all(step[0] == 0 for step in small)


def test_reference_switch_churn_is_flat(workload, counts):
    program, p4info, states, updates, _packets = workload
    per_size = {}
    for size, entries in states.items():
        switch = _reference_switch(program, p4info, entries)
        per_size[size] = _per_step(counts, [_write(switch, u) for u in updates])
    _assert_flat(per_size)
    # The churn really asks the integrity questions.
    assert sum(step[1] for step in per_size[LARGE]) >= 30


def test_p4runtime_server_churn_is_flat(workload, counts):
    program, p4info, states, updates, _packets = workload
    per_size = {}
    for size, entries in states.items():
        stack = PinsSwitchStack(program)
        assert stack.set_forwarding_pipeline_config(p4info).ok
        for start in range(0, len(entries), 500):
            batch = entries[start : start + 500]
            response = stack.write(
                WriteRequest(updates=tuple(Update(UpdateType.INSERT, e) for e in batch))
            )
            assert all(status.ok for status in response.statuses)
        per_size[size] = _per_step(counts, [_write(stack, u) for u in updates])
    _assert_flat(per_size)
    assert sum(step[1] for step in per_size[LARGE]) >= 30


def test_oracle_churn_is_flat(workload, counts):
    program, p4info, states, updates, _packets = workload
    per_size = {}
    for size, entries in states.items():
        # Judge the statuses a switch with the same state really answers.
        switch = _reference_switch(program, p4info, entries)
        responses = [switch.write(WriteRequest(updates=(u,))) for u in updates]
        oracle = Oracle(p4info)
        oracle.resync(entries)
        per_size[size] = _per_step(
            counts,
            [
                lambda u=u, r=r: oracle.judge_batch([u], r, read_back=None)
                for u, r in zip(updates, responses, strict=True)
            ],
        )
    _assert_flat(per_size)
    assert sum(step[1] for step in per_size[LARGE]) >= 30


# Generating (a stateful mutation), batching and judging an update each
# compute its identity; about 3 per update is what the loop needs.
MATCH_KEYS_PER_UPDATE = 4


def _resynced_fuzzer(program, p4info, entries):
    """A short campaign against a PINS stack pre-seeded with ``entries``,
    its oracle resynced from the stack's read-back."""
    stack = PinsSwitchStack(program)
    assert stack.set_forwarding_pipeline_config(p4info).ok
    for start in range(0, len(entries), 500):
        batch = entries[start : start + 500]
        stack.write(WriteRequest(updates=tuple(Update(UpdateType.INSERT, e) for e in batch)))
    fuzzer = P4Fuzzer(p4info, stack, FuzzerConfig(num_writes=8, updates_per_write=20, seed=5))
    fuzzer.oracle.resync(stack.read(ReadRequest()).entries)
    return fuzzer


def test_fuzz_loop_windows_are_flat(workload, monkeypatch):
    """A short P4Fuzzer campaign against a PINS stack pre-seeded with 1k and
    with 10k entries, its oracle resynced from the stack's read-back.  On a
    healthy switch no window rebuilds the referenceable state, compares the
    read-back entry by entry, or computes entry identities for more than
    the window's own updates (generating, batching, judging them)."""
    program, p4info, states, _updates, _packets = workload
    calls = collections.Counter()
    for owner, name in (
        (ReferenceGraph, "collect_state"),
        (Oracle, "_same_entry"),
        (TableEntry, "match_key"),
    ):
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    windows = []  # (updates, collect_state, _same_entry, match_key) per window
    before = collections.Counter()
    real_judge = P4Fuzzer._judge_window

    def judge_window(self, outcomes, *args):
        real_judge(self, outcomes, *args)
        delta = collections.Counter(calls)
        delta.subtract(before)
        before.clear()
        before.update(calls)
        windows.append(
            (sum(len(o.batch) for o in outcomes), delta["collect_state"],
             delta["_same_entry"], delta["match_key"])
        )

    monkeypatch.setattr(P4Fuzzer, "_judge_window", judge_window)
    per_size = {}
    for size, entries in states.items():
        fuzzer = _resynced_fuzzer(program, p4info, entries)
        assert len(fuzzer.oracle.expected) == len(entries)
        windows.clear()
        before.clear()
        before.update(calls)
        result = fuzzer.run()
        assert result.incidents.count == 0 and result.updates_sent >= 100
        per_size[size] = list(windows)
    for size, rows in per_size.items():
        assert len(rows) > 8, size
        for updates, collect_state, same_entry, match_key in rows:
            assert (collect_state, same_entry) == (0, 0), size
            assert match_key <= MATCH_KEYS_PER_UPDATE * updates, (size, updates, match_key)


# Generating an update draws referenced keysets and victims from views the
# oracle maintains; walking a handful of keysets after a referenced table
# changes is what a wave needs.
KEYSETS_PER_UPDATE = 4
ENTRIES_PER_UPDATE = 1


class _WalkedKeysets(tuple):
    """A ``keysets()`` answer that counts the keysets iterated out of it."""

    walked = 0

    def __iter__(self):
        for keyset in tuple.__iter__(self):
            _WalkedKeysets.walked += 1
            yield keyset


class _ListedEntries:
    """``Oracle.entries`` handed to the generator: counts the entries
    iterated out of it (``values()``, ``items()``, ``keys()``, iteration)."""

    listed = 0

    def __init__(self, expected):
        self.expected = expected

    def _count(self, items):
        for item in items:
            _ListedEntries.listed += 1
            yield item

    def __len__(self):
        return len(self.expected)

    def __contains__(self, key):
        return key in self.expected

    def __getitem__(self, key):
        return self.expected[key]

    def __iter__(self):
        return self._count(self.expected)

    def keys(self):
        return self._count(self.expected.keys())

    def values(self):
        return self._count(self.expected.values())

    def items(self):
        return self._count(self.expected.items())


def test_fuzz_generation_is_flat(workload, monkeypatch):
    """The same campaigns as above, counted per generated wave: the keysets
    the generator iterates (reference candidates, table pool) and the
    installed entries it lists to draw modify / delete / duplicate-insert
    victims stay within a constant per update at 1k and at 10k entries."""
    program, p4info, states, _updates, _packets = workload
    _WalkedKeysets.walked = _ListedEntries.listed = 0
    real_keysets = AvailableState.keysets
    wrapped = {}  # id(answer) -> (answer, its counting twin): same tuple, same twin

    def keysets(self, table):
        answer = real_keysets(self, table)
        if id(answer) not in wrapped or wrapped[id(answer)][0] is not answer:
            wrapped[id(answer)] = (answer, _WalkedKeysets(answer))
        return wrapped[id(answer)][1]

    monkeypatch.setattr(AvailableState, "keysets", keysets)
    monkeypatch.setattr(Oracle, "entries", property(lambda self: _ListedEntries(self.expected)))
    waves = []  # (updates, keysets walked, entries listed) per wave
    real_wave = P4Fuzzer._generate_wave

    def generate_wave(self, result):
        walked, listed = _WalkedKeysets.walked, _ListedEntries.listed
        updates = real_wave(self, result)
        waves.append(
            (len(updates), _WalkedKeysets.walked - walked, _ListedEntries.listed - listed)
        )
        return updates

    monkeypatch.setattr(P4Fuzzer, "_generate_wave", generate_wave)
    per_size = {}
    for size, entries in states.items():
        fuzzer = _resynced_fuzzer(program, p4info, entries)
        waves.clear()
        result = fuzzer.run()
        assert result.incidents.count == 0 and result.updates_sent >= 100
        per_size[size] = list(waves)
    for size, rows in per_size.items():
        assert len(rows) == 8 and sum(row[0] for row in rows) >= 100, size
        for updates, walked, listed in rows:
            assert walked <= KEYSETS_PER_UPDATE * updates, (size, updates, walked)
            assert listed <= ENTRIES_PER_UPDATE * updates, (size, updates, listed)


def test_packet_lookups_are_flat(workload, counts):
    program, p4info, states, _updates, packets = workload
    per_size = {}
    for size, entries in states.items():
        switch = _reference_switch(program, p4info, entries)
        per_size[size] = _per_step(
            counts,
            [
                lambda payload=payload, port=1 + i % 4: switch.send_packet(payload, port)
                for i, payload in enumerate(packets)
            ],
        )
    _assert_flat(per_size)
    assert all(step[2] > 0 and step[3] == 0 for step in per_size[LARGE])


# Routes and next hops name two referenced values each; an entry of a
# table nothing refers to exports nothing.  The switch decodes each entry
# fully (about three values) on top of that.
RESYNC_DECODES_PER_ENTRY = 2
PRELOAD_DECODES_PER_ENTRY = 5


@pytest.fixture(scope="module")
def production_states():
    program, p4info = production_scale_program(build_tor_program(), LARGE + 1024)
    states = {size: production_like_entries(p4info, size, seed=3) for size in (SMALL, LARGE)}
    return program, p4info, states


def test_state_setup_decodes_only_what_references_name(production_states, monkeypatch):
    program, p4info, states = production_states
    plain = PlainReferenceGraph(p4info)
    unreferenced = [t.name for t in p4info.tables.values() if not plain.is_referenced_table(t.name)]
    decodes = collections.Counter()
    real = codec.decode

    def counted(*args, **kwargs):
        decodes["calls"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(codec, "decode", counted)
    for size, entries in states.items():
        switch = ReferenceSwitch(program)
        assert switch.set_forwarding_pipeline_config(p4info).ok
        decodes.clear()
        assert switch.preload(entries) == len(entries)
        preload = decodes["calls"]
        oracle = Oracle(p4info)
        decodes.clear()
        oracle.resync(entries)
        resync = decodes["calls"]
        assert preload <= PRELOAD_DECODES_PER_ENTRY * len(entries), (size, preload)
        assert resync <= RESYNC_DECODES_PER_ENTRY * len(entries), (size, resync)
        stray = {t: len(oracle.available.keysets(t)) for t in unreferenced}
        assert not any(stray.values()), (size, stray)


# What installing one production entry costs each state layer, summed over
# the switch, the oracle and the simulator's decoded state: GC-tracked
# objects and traced bytes per entry.  Before entries shared their
# reference demands, decoded actions and wildcard clauses, the three cost
# 12.92 + 4.57 + 5.30 = 22.79 objects and 2,121 + 1,108 + 737 = 3,966 B.
UNSHARED_OBJECTS_PER_ENTRY = 22.79
UNSHARED_BYTES_PER_ENTRY = 3966


def _kept_per_entry(step, entries):
    """GC-tracked objects and traced bytes that ``step`` leaves alive, per
    entry (the return value is held until both are measured)."""
    gc.collect()
    objects = len(gc.get_objects())
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    size = tracemalloc.get_traced_memory()[0]
    try:
        kept = step()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - size
    finally:
        if not tracing:
            tracemalloc.stop()
    objects = len(gc.get_objects()) - objects
    del kept
    return objects / len(entries), size / len(entries)


def test_installed_state_is_lean(production_states):
    """The switch, the oracle and the simulator's decoded state keep only
    what is unique to an entry: the 10k-entry state costs at most two
    thirds of the unshared objects and bytes per entry."""
    program, _p4info, states = production_states
    entries = states[LARGE]
    p4info = build_p4info(program)  # decode plans start cold
    switch = ReferenceSwitch(program)
    assert switch.set_forwarding_pipeline_config(p4info).ok
    oracle = Oracle(p4info)
    costs = [
        _kept_per_entry(lambda: switch.preload(entries), entries),
        _kept_per_entry(lambda: oracle.resync(entries), entries),
        _kept_per_entry(lambda: [decode_table_entry(p4info, e) for e in entries], entries),
    ]
    objects = sum(cost[0] for cost in costs)
    size = sum(cost[1] for cost in costs)
    assert objects <= UNSHARED_OBJECTS_PER_ENTRY * 2 / 3, costs
    assert size <= UNSHARED_BYTES_PER_ENTRY * 2 / 3, costs


NOTHING = WriteResponse(statuses=())


def _held_installed_entries() -> int:
    gc.collect()
    return sum(isinstance(o, InstalledEntry) for o in gc.get_objects())


def test_oracle_keeps_no_decoded_state(production_states):
    """Judging a read-back decodes entries without keeping them: after
    ``resync`` of the 10k state and one read-back the oracle holds no
    ``InstalledEntry`` (a decoded copy of the state held all 10,000)."""
    _program, p4info, states = production_states
    entries = states[LARGE]
    oracle = Oracle(p4info)
    before = _held_installed_entries()
    oracle.resync(entries)
    log = oracle.judge_batch([], NOTHING, read_back=list(entries))
    assert log.count == 0 and not oracle._unverified
    assert _held_installed_entries() - before == 0


def test_read_back_decodes_only_unverified_or_changed(production_states, monkeypatch):
    """The first read-back after ``resync`` decodes each adopted entry
    exactly once.  On a state the oracle judged insert by insert, a
    read-back with k changed entries decodes at most the 2k changed pairs
    plus the unverified entries, not every common entry; the next read-back
    verifies just the k adopted changes."""
    _program, p4info, states = production_states
    entries = states[LARGE]
    decodes = collections.Counter()
    real = oracle_module.decode_table_entry

    def counted(info, entry):
        decodes[entry] += 1
        return real(info, entry)

    monkeypatch.setattr(oracle_module, "decode_table_entry", counted)
    oracle = Oracle(p4info)
    oracle.resync(entries)
    assert oracle.judge_batch([], NOTHING, read_back=list(entries)).count == 0
    assert len(decodes) == len(entries) and set(decodes.values()) == {1}

    oracle = Oracle(p4info)
    inserts = [Update(UpdateType.INSERT, e) for e in entries]
    ok = WriteResponse(statuses=tuple(Status() for _ in inserts))
    assert oracle.judge_batch(inserts, ok, read_back=None).count == 0
    route_table = p4info.table_by_name("ipv4_tbl").id
    drop = EntryBuilder(p4info).lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0, 8, "drop", {}).action
    routes = [i for i, e in enumerate(entries) if e.table_id == route_table and e.action != drop]
    changed = set(routes[:: len(routes) // 10][:10])
    read_back = [
        dataclasses.replace(e, action=drop) if i in changed else e for i, e in enumerate(entries)
    ]
    for mismatch in (True, False):
        unverified = len(oracle._unverified)
        decodes.clear()
        log = oracle.judge_batch([], NOTHING, read_back=read_back)
        assert bool(log.count) is mismatch
        assert sum(decodes.values()) <= 2 * len(changed) + unverified, (
            sum(decodes.values()), unverified,
        )
    assert not oracle._unverified


def test_undecodable_adopted_entry_mismatches_every_read_back(production_states):
    """A malformed entry adopted by ``resync`` (a VRF id with a non-canonical
    leading zero byte) is reported the same way on each of three read-backs
    of the 10k state: one content mismatch, nothing else."""
    _program, p4info, states = production_states
    vrf = EntryBuilder(p4info).exact("vrf_tbl", {"vrf_id": 77}, "NoAction")
    padded = dataclasses.replace(vrf.matches[0], value=b"\x00" + vrf.matches[0].value)
    read_back = [*states[LARGE], dataclasses.replace(vrf, matches=(padded,))]
    oracle = Oracle(p4info)
    oracle.resync(read_back)
    logs = [
        [
            (i.kind, i.summary, i.expected, i.observed)
            for i in oracle.judge_batch([], NOTHING, read_back=read_back).incidents
        ]
        for _ in range(3)
    ]
    assert len(logs[0]) == 1 and logs[0][0][1].startswith("entry content differs")
    assert logs[0][0][0] is IncidentKind.READBACK_MISMATCH
    assert logs[1] == logs[0] and logs[2] == logs[0]
