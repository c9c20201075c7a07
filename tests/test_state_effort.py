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
"""

import collections
import dataclasses

import pytest

from repro.bmv2.index import TableIndex
from repro.bmv2.interpreter import Interpreter
from repro.bmv2.packet import deparse_packet, make_ipv4_packet
from repro.fuzzer.oracle import Oracle
from repro.p4.constraints.refs import ReferenceGraph
from repro.p4.programs import build_tor_program
from repro.p4rt.messages import Update, UpdateType, WriteRequest
from repro.switch import PinsSwitchStack, ReferenceSwitch
from repro.workloads import EntryBuilder, production_like_entries
from repro.workloads.scale import production_scale_program

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
