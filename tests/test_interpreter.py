"""Tests for the BMv2 interpreter: match semantics, actions, hashing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bmv2.entries import decode_table_entry
from repro.bmv2.interpreter import Interpreter, RoundRobinHash, SeededHash
from repro.bmv2.packet import make_ipv4_packet, make_ipv6_packet
from repro.bmv2.simulator import Bmv2Simulator
from repro.p4rt import codec
from repro.p4rt.messages import (
    ActionInvocation,
    ActionProfileAction,
    ActionProfileActionSet,
    FieldMatch,
    TableEntry,
)
from repro.workloads import EntryBuilder, baseline_entries

E = codec.encode


def decode_state(p4info, entries):
    state = {}
    for entry in entries:
        decoded = decode_table_entry(p4info, entry)
        state.setdefault(decoded.table_name, []).append(decoded)
    return state


@pytest.fixture
def toy_state(toy_p4info):
    b = EntryBuilder(toy_p4info)
    entries = [
        b.ternary("pre_ingress_tbl", {}, "set_vrf", {"vrf_id": 1}, priority=1),
        b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction"),
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 8, "set_nexthop_id", {"nexthop_id": 3}),
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 16, "set_nexthop_id", {"nexthop_id": 7}),
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0B000000, 8, "drop", {}),
    ]
    return decode_state(toy_p4info, entries)


class TestLpmSemantics:
    def test_longest_prefix_wins(self, toy_program, toy_state):
        interp = Interpreter(toy_program, toy_state)
        result = interp.run(make_ipv4_packet(0x0A000105), 2)  # 10.0.1.5 -> /16
        assert result.egress_port == 7

    def test_shorter_prefix_when_longer_misses(self, toy_program, toy_state):
        interp = Interpreter(toy_program, toy_state)
        result = interp.run(make_ipv4_packet(0x0A770105), 2)  # 10.119.x -> /8
        assert result.egress_port == 3

    def test_miss_hits_default_drop(self, toy_program, toy_state):
        interp = Interpreter(toy_program, toy_state)
        result = interp.run(make_ipv4_packet(0x0C000001), 2)
        assert result.dropped

    def test_explicit_drop_action(self, toy_program, toy_state):
        interp = Interpreter(toy_program, toy_state)
        result = interp.run(make_ipv4_packet(0x0B123456), 2)
        assert result.dropped

    def test_non_ipv4_skips_routing(self, toy_program, toy_state):
        interp = Interpreter(toy_program, toy_state)
        result = interp.run(make_ipv6_packet(0x1234), 2)
        assert result.dropped  # no forwarding decision -> drop

    def test_trace_records_hits_and_branches(self, toy_program, toy_state):
        interp = Interpreter(toy_program, toy_state)
        result = interp.run(make_ipv4_packet(0x0A000105), 2)
        tables_hit = [name for name, entry, _a in result.trace.table_hits if entry]
        assert tables_hit == ["pre_ingress_tbl", "vrf_tbl", "ipv4_tbl"]
        assert ("ipv4_gate", True) in result.trace.branches


class TestPrioritySemantics:
    @pytest.fixture
    def acl_state(self, tor_p4info):
        b = EntryBuilder(tor_p4info)
        entries = baseline_entries(tor_p4info) + [
            # Two overlapping ACL entries with different priorities.
            b.ternary(
                "acl_ingress_tbl",
                {"is_ipv4": (1, 1), "dst_ip": (0x0A010000, 0xFFFF0000)},
                "acl_copy",
                priority=5,
            ),
            b.ternary(
                "acl_ingress_tbl",
                {"is_ipv4": (1, 1), "dst_ip": (0x0A010200, 0xFFFFFF00)},
                "drop",
                priority=50,
            ),
        ]
        return decode_state(tor_p4info, entries)

    def test_higher_priority_wins(self, tor_program, acl_state):
        interp = Interpreter(tor_program, acl_state)
        result = interp.run(make_ipv4_packet(0x0A010203), 2)
        # /24-ish drop entry has priority 50 > 5.
        assert result.dropped

    def test_lower_priority_when_higher_does_not_match(self, tor_program, acl_state):
        interp = Interpreter(tor_program, acl_state)
        result = interp.run(make_ipv4_packet(0x0A019999), 2)
        assert result.punted  # acl_copy
        assert not result.dropped


class TestBaselinePipeline:
    def test_forward_and_rewrite(self, tor_program, tor_p4info, tor_baseline):
        state = decode_state(tor_p4info, tor_baseline)
        interp = Interpreter(tor_program, state)
        result = interp.run(make_ipv4_packet(0x0A020005, ttl=9), 1)  # 10.2/16 -> nh 2
        assert result.egress_port == 2
        assert result.packet.get("ipv4.ttl") == 8
        assert result.packet.get("ethernet.dst_addr") == 0x00BB00000002
        assert result.packet.get("ethernet.src_addr") == 0x00AA00000002

    def test_ttl_trap(self, tor_program, tor_p4info, tor_baseline):
        state = decode_state(tor_p4info, tor_baseline)
        interp = Interpreter(tor_program, state)
        result = interp.run(make_ipv4_packet(0x0A020005, ttl=1), 1)
        assert result.dropped
        assert result.punted

    def test_ipv6_hop_limit_trap(self, tor_program, tor_p4info, tor_baseline):
        state = decode_state(tor_p4info, tor_baseline)
        interp = Interpreter(tor_program, state)
        result = interp.run(make_ipv6_packet(0x1, hop_limit=0), 1)
        assert result.punted

    def test_broadcast_drop(self, tor_program, tor_p4info, tor_baseline):
        state = decode_state(tor_p4info, tor_baseline)
        interp = Interpreter(tor_program, state)
        result = interp.run(make_ipv4_packet(0xFFFFFFFF), 1)
        assert result.dropped
        assert not result.punted

    def test_acl_trap_canary(self, tor_program, tor_p4info, tor_baseline):
        state = decode_state(tor_p4info, tor_baseline)
        interp = Interpreter(tor_program, state)
        result = interp.run(make_ipv4_packet(0x0AFFFF01), 1)  # punt canary
        assert result.punted


class TestWcmpSelection:
    @pytest.fixture
    def wcmp_state(self, tor_p4info, tor_baseline):
        b = EntryBuilder(tor_p4info)
        entries = tor_baseline + [
            b.wcmp_group(1, [(1, 1), (2, 2), (3, 1)]),
            b.lpm(
                "ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0AC00000, 16,
                "set_wcmp_group_id", {"wcmp_group_id": 1},
            ),
        ]
        return decode_state(tor_p4info, entries)

    def test_round_robin_enumerates_members(self, tor_program, wcmp_state):
        ports = set()
        for round_index in range(3):
            interp = Interpreter(tor_program, wcmp_state)
            result = interp.run(make_ipv4_packet(0x0AC00005), 4, RoundRobinHash(round_index))
            ports.add(result.egress_port)
        assert ports == {1, 2, 3}

    def test_seeded_hash_is_deterministic(self, tor_program, wcmp_state):
        results = {
            Interpreter(tor_program, wcmp_state)
            .run(make_ipv4_packet(0x0AC00005), 4, SeededHash(seed=5))
            .egress_port
            for _ in range(3)
        }
        assert len(results) == 1

    def test_seeded_hash_spreads_flows(self, tor_program, wcmp_state):
        interp, flow_hash = Interpreter(tor_program, wcmp_state), SeededHash(seed=5)
        ports = {
            interp.run(make_ipv4_packet(0x0AC00005, src_addr=src), 4, flow_hash).egress_port
            for src in range(200)
        }
        assert len(ports) > 1  # multiple members actually used

    def test_weights_shape_distribution(self, tor_program, wcmp_state):
        interp, flow_hash = Interpreter(tor_program, wcmp_state), SeededHash(seed=5)
        counts = {1: 0, 2: 0, 3: 0}
        for src in range(400):
            packet = make_ipv4_packet(0x0AC00005, src_addr=src)
            port = interp.run(packet, 4, flow_hash).egress_port
            counts[port] += 1
        # Member 2 has double weight; expect visibly more traffic.
        assert counts[2] > counts[1]
        assert counts[2] > counts[3]


class TestBehaviorSets:
    def test_deterministic_packet_has_one_behavior(self, tor_program, tor_p4info, tor_baseline):
        sim = Bmv2Simulator(tor_program, decode_state(tor_p4info, tor_baseline))
        behaviors = sim.behaviors(make_ipv4_packet(0x0A020005), 1)
        assert len(behaviors) == 1

    def test_wcmp_packet_has_member_set(self, tor_program, tor_p4info, tor_baseline):
        b = EntryBuilder(tor_p4info)
        entries = tor_baseline + [
            b.wcmp_group(1, [(1, 1), (2, 1), (3, 1), (4, 1)]),
            b.lpm(
                "ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0AC00000, 16,
                "set_wcmp_group_id", {"wcmp_group_id": 1},
            ),
        ]
        sim = Bmv2Simulator(tor_program, decode_state(tor_p4info, entries))
        behaviors = sim.behaviors(make_ipv4_packet(0x0AC00001), 5)
        assert {b.result.egress_port for b in behaviors} == {1, 2, 3, 4}

    def test_admits_member_behavior(self, tor_program, tor_p4info, tor_baseline):
        b = EntryBuilder(tor_p4info)
        entries = tor_baseline + [
            b.wcmp_group(1, [(1, 1), (2, 1)]),
            b.lpm(
                "ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0AC00000, 16,
                "set_wcmp_group_id", {"wcmp_group_id": 1},
            ),
        ]
        state = decode_state(tor_p4info, entries)
        sim = Bmv2Simulator(tor_program, state)
        pkt = make_ipv4_packet(0x0AC00001)
        # A behaviour produced by a *different* hash (the switch's) must be
        # admitted as long as it lands on some member.
        other = Interpreter(tor_program, state).run(pkt, 5, SeededHash(seed=99))
        assert sim.admits(pkt, 5, other.behavior_signature())

    def test_rejects_non_member_behavior(self, tor_program, tor_p4info, tor_baseline):
        state = decode_state(tor_p4info, tor_baseline)
        sim = Bmv2Simulator(tor_program, state)
        pkt = make_ipv4_packet(0x0A020005)
        good = sim.behaviors(pkt, 1)[0]
        # Same packet claimed on a different port: inadmissible.
        bogus = (15,) + good.signature[1:]
        assert not sim.admits(pkt, 1, bogus)


class TestInjectedSimulatorBugs:
    def test_optional_zero_match_changes_behavior(self, tor_program, tor_p4info, tor_baseline):
        state = decode_state(tor_p4info, tor_baseline)
        pkt = make_ipv4_packet(0x0A020005)
        ok = Interpreter(tor_program, state).run(pkt, 1)
        buggy = Interpreter(tor_program, state, optional_absent_matches_zero=True).run(pkt, 1)
        # The baseline l3_admit/pre-ingress entries omit in_port; the buggy
        # simulator refuses to match them from port 1 != 0 and drops.
        assert ok.egress_port == 2
        assert buggy.dropped

    def test_lpm_inversion_changes_behavior(self, toy_program, toy_state):
        pkt = make_ipv4_packet(0x0A000105)
        ok = Interpreter(toy_program, toy_state).run(pkt, 2)
        buggy = Interpreter(toy_program, toy_state, lpm_shortest_prefix_wins=True).run(pkt, 2)
        assert ok.egress_port == 7  # /16
        assert buggy.egress_port == 3  # /8 wins under the bug
