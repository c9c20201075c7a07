"""Differential identity: the indexed state layers vs their linear specs.

The production state bookkeeping (per-table counters, reverse-reference
indices, table lookup indices, decode caches, per-table read views) is
behaviour-preserving by construction; these tests prove it empirically
against the linear reference classes of ``tests/linear_state.py``,
substituted wherever ``P4Fuzzer`` and ``PinsSwitchStack`` construct the
production ones — seeded random campaigns, direct write/read/packet
sequences, and the whole fault catalogue must produce byte-identical
outcomes either way.
"""

import random
from dataclasses import replace

import pytest

from repro.bmv2.interpreter import Interpreter, SeededHash
from repro.bmv2.packet import deparse_packet, make_ipv4_packet
from repro.fuzzer import fuzzer as fuzzer_module
from repro.fuzzer import oracle as oracle_module
from repro.fuzzer.fuzzer import FuzzerConfig, P4Fuzzer
from repro.fuzzer.oracle import Oracle
from repro.p4rt.messages import (
    ReadRequest,
    Update,
    UpdateType,
    WriteRequest,
    WriteResponse,
)
from repro.p4rt.status import Status
from repro.switch import PinsSwitchStack, ReferenceSwitch
from repro.switch import stack as stack_module
from repro.switch.faults import FAULT_CATALOG, FaultRegistry
from repro.switch.p4rt_server import P4RuntimeServer
from repro.switchv.report import IncidentKind
from repro.workloads import EntryBuilder, crm_fill_updates, production_like_entries
from tests.linear_state import LinearOracle, LinearP4RuntimeServer, LinearReferenceSwitch

MODELS = ["toy", "tor", "wan", "cerberus"]


def _incident_tuples(log):
    return [
        (i.kind, i.summary, i.expected, i.observed, i.table_id, i.table_name)
        for i in log.incidents
    ]


def _set_modes(monkeypatch, on: bool):
    """Production state classes when `on`, the linear specs otherwise:
    substitutes the oracle P4Fuzzer builds and the P4Runtime layer
    PinsSwitchStack builds, and returns the reference-switch class."""
    monkeypatch.setattr(fuzzer_module, "Oracle", Oracle if on else LinearOracle)
    monkeypatch.setattr(
        stack_module, "P4RuntimeServer", P4RuntimeServer if on else LinearP4RuntimeServer
    )
    return ReferenceSwitch if on else LinearReferenceSwitch


def _probe_packets(count: int = 24):
    rng = random.Random(404)
    packets = []
    for index in range(count):
        packets.append(
            (
                deparse_packet(
                    make_ipv4_packet(
                        dst_addr=rng.getrandbits(32),
                        src_addr=rng.getrandbits(32),
                        ttl=rng.choice([1, 33, 64]),
                    )
                ),
                1 + index % 4,
            )
        )
    return packets


@pytest.mark.parametrize("model", MODELS)
def test_fuzz_campaign_identity_reference_switch(model, request, monkeypatch):
    """Seeded campaigns against the reference switch: incidents, adopted
    state, reads, and forwarding are identical in both modes."""
    program = request.getfixturevalue(f"{model}_program")
    p4info = request.getfixturevalue(f"{model}_p4info")
    outcomes = {}
    for mode in (True, False):
        switch = _set_modes(monkeypatch, mode)(program)
        fuzzer = P4Fuzzer(
            p4info,
            switch,
            FuzzerConfig(num_writes=8, updates_per_write=12, seed=99),
        )
        result = fuzzer.run()
        outcomes[mode] = (result, switch)

    fast, fast_switch = outcomes[True]
    slow, slow_switch = outcomes[False]
    assert _incident_tuples(fast.incidents) == _incident_tuples(slow.incidents)
    assert fast.final_entries == slow.final_entries
    assert (
        fast_switch.read(ReadRequest()).entries
        == slow_switch.read(ReadRequest()).entries
    )
    for tid in p4info.table_ids():
        assert (
            fast_switch.read(ReadRequest(table_id=tid)).entries
            == slow_switch.read(ReadRequest(table_id=tid)).entries
        ), p4info.tables[tid].name
    for payload, port in _probe_packets():
        a = fast_switch.send_packet(payload, ingress_port=port)
        b = slow_switch.send_packet(payload, ingress_port=port)
        assert (a.egress_port, a.punted, a.packet, a.mirror_copies) == (
            b.egress_port,
            b.punted,
            b.packet,
            b.mirror_copies,
        )
    assert fast_switch.drain_packet_ins() == slow_switch.drain_packet_ins()


def test_direct_write_status_identity(tor_program, tor_p4info, monkeypatch):
    """A production fill + churn replay: every per-update status (code and
    message) matches between the indexed and linear reference switch."""
    entries = production_like_entries(tor_p4info, 260, seed=5)
    routes = [e for e in entries if e.table_id == tor_p4info.table_by_name("ipv4_tbl").id]
    updates = crm_fill_updates(entries, churn=120, seed=6, victims=routes)

    def run(mode):
        switch = _set_modes(monkeypatch, mode)(tor_program)
        assert switch.set_forwarding_pipeline_config(tor_p4info).ok
        statuses = []
        for update in updates:
            response = switch.write(WriteRequest(updates=(update,)))
            statuses.append(
                (response.statuses[0].code, response.statuses[0].message)
            )
        return statuses, switch

    fast_statuses, fast_switch = run(True)
    slow_statuses, slow_switch = run(False)
    assert fast_statuses == slow_statuses
    assert (
        fast_switch.read(ReadRequest()).entries
        == slow_switch.read(ReadRequest()).entries
    )


def test_direct_write_status_identity_pins_stack(tor_program, tor_p4info, monkeypatch):
    entries = production_like_entries(tor_p4info, 180, seed=9)
    updates = crm_fill_updates(entries, churn=60, seed=10)

    def run(mode):
        _set_modes(monkeypatch, mode)
        stack = PinsSwitchStack(tor_program)
        assert stack.set_forwarding_pipeline_config(tor_p4info).ok
        statuses = []
        for update in updates:
            response = stack.write(WriteRequest(updates=(update,)))
            statuses.append(
                (response.statuses[0].code, response.statuses[0].message)
            )
        return statuses, stack

    fast_statuses, fast_stack = run(True)
    slow_statuses, slow_stack = run(False)
    assert fast_statuses == slow_statuses
    assert (
        fast_stack.read(ReadRequest()).entries == slow_stack.read(ReadRequest()).entries
    )
    for tid in tor_p4info.table_ids():
        assert (
            fast_stack.read(ReadRequest(table_id=tid)).entries
            == slow_stack.read(ReadRequest(table_id=tid)).entries
        )


@pytest.mark.parametrize("fault", sorted(f.name for f in FAULT_CATALOG))
def test_fault_catalogue_identity(fault, tor_program, tor_p4info, monkeypatch):
    """Every catalogued fault produces the same incidents and the same
    adopted state whether the oracle/server bookkeeping is incremental or
    linear — the index mirrors the store, bugs included."""
    outcomes = {}
    for mode in (True, False):
        _set_modes(monkeypatch, mode)
        stack = PinsSwitchStack(tor_program, faults=FaultRegistry([fault]))
        fuzzer = P4Fuzzer(
            tor_p4info,
            stack,
            FuzzerConfig(num_writes=5, updates_per_write=10, seed=31),
        )
        result = fuzzer.run()
        outcomes[mode] = (
            _incident_tuples(result.incidents),
            result.final_entries,
        )
    assert outcomes[True] == outcomes[False]


def test_interpreter_index_matches_linear_scan(tor_program, tor_p4info):
    """The table index yields the same winner as the linear scan on every
    probe — including under the seeded simulator fault knobs — and so do
    the reference switch's live per-table indices."""
    switch = ReferenceSwitch(tor_program)
    assert switch.set_forwarding_pipeline_config(tor_p4info).ok
    for entry in production_like_entries(tor_p4info, 400, seed=21):
        switch.write(WriteRequest(updates=(Update(UpdateType.INSERT, entry),)))
    state = {}
    for _wire, decoded in switch._store.values():
        state.setdefault(decoded.table_name, []).append(decoded)
    assert any(len(v) > Interpreter.INDEX_MIN_ENTRIES for v in state.values())

    rng = random.Random(77)
    for optional_zero, lpm_short in [(False, False), (True, False), (False, True)]:
        indexed = Interpreter(
            tor_program,
            state,
            optional_absent_matches_zero=optional_zero,
            lpm_shortest_prefix_wins=lpm_short,
        )
        linear = Interpreter(
            tor_program,
            state,
            optional_absent_matches_zero=optional_zero,
            lpm_shortest_prefix_wins=lpm_short,
        )
        linear.INDEX_MIN_ENTRIES = 10**9  # instance override: never index
        for _ in range(40):
            packet = make_ipv4_packet(
                dst_addr=rng.getrandbits(32),
                src_addr=rng.getrandbits(32),
                ttl=rng.choice([1, 33, 64]),
            )
            a = indexed.run(packet, 1, SeededHash(seed=3))
            b = linear.run(packet, 1, SeededHash(seed=3))
            assert a.behavior_signature() == b.behavior_signature()
            assert a.trace.table_hits == b.trace.table_hits
            if not (optional_zero or lpm_short):
                live = switch._interpreter.run(packet, 1, SeededHash(seed=3))
                assert live.behavior_signature() == b.behavior_signature()
                assert live.trace.table_hits == b.trace.table_hits
        if not (optional_zero or lpm_short):
            # (The fault knobs can gate routing entirely, in which case the
            # big table is never applied and no index is ever needed.)
            assert indexed._index_cache, "indexed interpreter never built an index"


# ----------------------------------------------------------------------
# Regression tests for the satellite correctness fixes
# ----------------------------------------------------------------------


def _readback_kinds(log):
    return [
        i.summary for i in log.incidents if i.kind is IncidentKind.READBACK_MISMATCH
    ]


def test_readback_suppression_is_reported(toy_p4info):
    """More than five missing/extra read-back entries used to be silently
    capped at five incidents; now one summarizing incident carries the
    suppressed count."""
    b = EntryBuilder(toy_p4info)
    entries = [b.exact("vrf_tbl", {"vrf_id": vid}, "NoAction") for vid in range(1, 10)]

    oracle = Oracle(toy_p4info)
    updates = [Update(UpdateType.INSERT, e) for e in entries]
    ok = WriteResponse(statuses=tuple(Status() for _ in updates))
    log = oracle.judge_batch(updates, ok, read_back=[])
    summaries = _readback_kinds(log)
    # The per-entry incidents share one summary, so the log dedups them;
    # without the summarizing incident the total count would be invisible.
    assert "entry missing from read-back of vrf_tbl" in summaries
    assert "4 further entries missing from read-back (suppressed)" in summaries

    oracle = Oracle(toy_p4info)
    log = oracle.judge_batch([], WriteResponse(statuses=()), read_back=entries)
    summaries = _readback_kinds(log)
    assert "unexpected entry in read-back of vrf_tbl" in summaries
    assert "4 further unexpected entries in read-back (suppressed)" in summaries
    # The observed state is adopted in full regardless of suppression.
    assert len(oracle.expected) == len(entries)


def test_readback_suppression_identity_across_modes(toy_p4info):
    b = EntryBuilder(toy_p4info)
    entries = [b.exact("vrf_tbl", {"vrf_id": vid}, "NoAction") for vid in range(1, 12)]
    logs = {}
    for mode in (True, False):
        oracle = (Oracle if mode else LinearOracle)(toy_p4info)
        updates = [Update(UpdateType.INSERT, e) for e in entries]
        ok = WriteResponse(statuses=tuple(Status() for _ in updates))
        logs[mode] = _incident_tuples(oracle.judge_batch(updates, ok, read_back=[]))
    assert logs[True] == logs[False]


def test_adopted_loss_releases_references_across_modes(tor_p4info):
    """A read-back missing a referenced entry takes its referenceable
    values with it: a route into the lost VRF is dangling again, whether
    the loss arrives through a resync or a judged read-back."""
    b = EntryBuilder(tor_p4info)
    vrfs = [b.exact("vrf_tbl", {"vrf_id": vid}, "NoAction") for vid in (4, 5)]
    routes = [
        b.lpm("ipv4_tbl", {"vrf_id": vid}, "ipv4_dst", 0x0A000000, 8, "drop", {})
        for vid in (4, 5)
    ]
    ok = WriteResponse(statuses=(Status(),))
    logs = {}
    for mode in (True, False):
        oracle = (Oracle if mode else LinearOracle)(tor_p4info)
        oracle.resync(vrfs)
        oracle.resync(vrfs[1:])  # the switch lost VRF 4
        first = oracle.judge_batch([Update(UpdateType.INSERT, routes[0])], ok, None)
        oracle.judge_batch(
            [Update(UpdateType.DELETE, routes[0])], ok, read_back=[]
        )  # ... and then VRF 5
        second = oracle.judge_batch([Update(UpdateType.INSERT, routes[1])], ok, None)
        logs[mode] = (_incident_tuples(first), _incident_tuples(second))
    assert logs[True] == logs[False]
    assert logs[True][0] and logs[True][1]


def test_undecodable_entry_mismatches_every_batch_even_when_echoed(toy_p4info, monkeypatch):
    """A read-back that returns the very entry the oracle expects is
    answered with one decode-cache probe — and an entry that does not
    decode still mismatches on every batch, in both modes, whether the
    switch echoes the same object or an equal copy."""
    b = EntryBuilder(toy_p4info)
    good = b.exact("vrf_tbl", {"vrf_id": 3}, "NoAction")
    broken = replace(
        b.exact("vrf_tbl", {"vrf_id": 4}, "NoAction"),
        matches=(replace(good.matches[0], value=b"\x00\x00\x04"),),  # non-canonical
    )
    nothing = WriteResponse(statuses=())
    summaries = {}
    for mode in (True, False):
        oracle = (Oracle if mode else LinearOracle)(toy_p4info)
        oracle.resync([good, broken])
        decodes = []
        real_decode = oracle_module.decode_table_entry

        def counting_decode(p4info, entry, decodes=decodes, real_decode=real_decode):
            decodes.append(entry)
            return real_decode(p4info, entry)

        monkeypatch.setattr(oracle_module, "decode_table_entry", counting_decode)
        probes = []
        real_probe = Oracle._decode_cached
        monkeypatch.setattr(
            Oracle, "_decode_cached", lambda self, e: probes.append(e) or real_probe(self, e)
        )
        per_batch = []
        for echoed in (broken, replace(broken), broken):
            assert echoed == broken
            log = oracle.judge_batch([], nothing, read_back=[good, echoed])
            per_batch.append(_readback_kinds(log))
        monkeypatch.undo()
        assert all(len(kinds) == 1 and "content differs" in kinds[0] for kinds in per_batch)
        summaries[mode] = per_batch
        if mode:
            # One decode per distinct wire entry for the oracle's lifetime,
            # one cache probe per echoed entry per batch.
            assert len(decodes) == 2
            assert len(probes) == 2 * len(per_batch)
    assert summaries[True] == summaries[False]


def test_seeded_hash_fields_cannot_alias():
    """Minimal-length framing made distinct field tuples collide (e.g.
    src=0x0102,dst=0x03 vs src=0x01,dst=0x0203); declared-width framing
    keeps them apart."""
    h = SeededHash(seed=1, fields=("ipv4.src_addr", "ipv4.dst_addr"))
    a = h.value("x", {"ipv4.src_addr": 0x0102, "ipv4.dst_addr": 0x03}, 32)
    b = h.value("x", {"ipv4.src_addr": 0x01, "ipv4.dst_addr": 0x0203}, 32)
    assert a != b

    # Unknown-width fields fall back to length-prefixed framing, which is
    # alias-free too.
    h = SeededHash(seed=1, fields=("meta.a", "meta.b"))
    a = h.value("x", {"meta.a": 0x0102, "meta.b": 0}, 32)
    b = h.value("x", {"meta.a": 0x01, "meta.b": 0x02}, 32)
    assert a != b


def test_seeded_hash_binds_widths_from_program(tor_program):
    h = SeededHash(seed=1, fields=("meta.vrf_id",))
    assert "meta.vrf_id" not in h.field_widths
    h.bind_widths(tor_program.plan.widths)
    assert h.field_widths["meta.vrf_id"] == tor_program.field_width("meta.vrf_id")


def test_per_table_read_order_preserved(tor_program, tor_p4info):
    """Single-table reads keep store order: MODIFY stays in place,
    delete + re-insert moves to the back — identically in both modes."""
    b = EntryBuilder(tor_p4info)
    vrf_ids = [4, 5, 6]
    switches = {}
    for mode in (True, False):
        switch = (ReferenceSwitch if mode else LinearReferenceSwitch)(tor_program)
        assert switch.set_forwarding_pipeline_config(tor_p4info).ok
        for vid in vrf_ids:
            entry = b.exact("vrf_tbl", {"vrf_id": vid}, "NoAction")
            assert switch.write(
                WriteRequest(updates=(Update(UpdateType.INSERT, entry),))
            ).statuses[0].ok
        # Modify the middle entry (same action: position must not change),
        # then delete + re-insert the first (must move to the back).
        middle = b.exact("vrf_tbl", {"vrf_id": 5}, "NoAction")
        assert switch.write(
            WriteRequest(updates=(Update(UpdateType.MODIFY, middle),))
        ).statuses[0].ok
        first = b.exact("vrf_tbl", {"vrf_id": 4}, "NoAction")
        assert switch.write(
            WriteRequest(updates=(Update(UpdateType.DELETE, first),))
        ).statuses[0].ok
        assert switch.write(
            WriteRequest(updates=(Update(UpdateType.INSERT, first),))
        ).statuses[0].ok
        switches[mode] = switch

    tid = tor_p4info.table_by_name("vrf_tbl").id
    fast = switches[True].read(ReadRequest(table_id=tid)).entries
    slow = switches[False].read(ReadRequest(table_id=tid)).entries
    assert fast == slow
    assert [e.matches[0].value for e in fast] == [
        e.matches[0].value for e in slow
    ]
    assert len(fast) == 3
