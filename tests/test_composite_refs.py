"""Tests for composite @refers_to semantics (the SAI next-hop pattern)."""

import random

import pytest

from repro.bmv2.entries import decode_table_entry
from repro.fuzzer import RequestGenerator
from repro.p4.constraints.refs import AvailableState, Reference, ReferenceGraph
from repro.p4rt import codec
from repro.p4rt.service import P4RuntimeClient
from repro.p4rt.status import Code
from repro.switch import PinsSwitchStack, ReferenceSwitch
from repro.workloads import EntryBuilder, baseline_entries

E = codec.encode


class TestReferenceGraph:
    def test_nexthop_action_has_composite_group(self, tor_p4info):
        refs = ReferenceGraph(tor_p4info)
        groups = refs.action_reference_groups("set_ip_nexthop")
        assert set(groups) == {"router_interface_tbl", "neighbor_tbl"}
        neighbor_pairs = dict(groups["neighbor_tbl"])
        assert neighbor_pairs == {
            "router_interface_id": "router_interface_id",
            "neighbor_id": "neighbor_id",
        }

    def test_references_of_nexthop_entry(self, tor_p4info, tor_builder):
        refs = ReferenceGraph(tor_p4info)
        entry = tor_builder.exact(
            "nexthop_tbl", {"nexthop_id": 9}, "set_ip_nexthop",
            {"router_interface_id": 4, "neighbor_id": 7},
        )
        by_table = {r.target_table: r for r in refs.references_of(entry)}
        assert set(by_table) == {"router_interface_tbl", "neighbor_tbl"}
        assert set(by_table["neighbor_tbl"].pairs) == {
            ("router_interface_id", 4),
            ("neighbor_id", 7),
        }

    def test_available_state_composite_matching(self):
        state = AvailableState()
        state.add("neighbor_tbl", frozenset({("router_interface_id", 1), ("neighbor_id", 1)}))
        state.add("neighbor_tbl", frozenset({("router_interface_id", 2), ("neighbor_id", 2)}))
        pair_ok = Reference("a", "neighbor_tbl", (("router_interface_id", 1), ("neighbor_id", 1)))
        pair_mixed = Reference("a", "neighbor_tbl", (("router_interface_id", 1), ("neighbor_id", 2)))
        assert state.satisfies(pair_ok)
        assert not state.satisfies(pair_mixed)

    def test_available_state_refcounts(self):
        state = AvailableState()
        keyset = frozenset({("vrf_id", 1)})
        state.add("vrf_tbl", keyset)
        state.add("vrf_tbl", keyset)
        state.remove("vrf_tbl", keyset)
        assert ("vrf_tbl", "vrf_id", 1) in state
        state.remove("vrf_tbl", keyset)
        assert ("vrf_tbl", "vrf_id", 1) not in state

    def test_keysets_order_is_canonical(self):
        state = AvailableState()
        for value in (3, 1, 2):
            state.add("t", frozenset({("k", value)}))
        assert state.keysets("t") == (
            frozenset({("k", 1)}),
            frozenset({("k", 2)}),
            frozenset({("k", 3)}),
        )

    def test_depends_on_composite(self, tor_p4info, tor_builder):
        refs = ReferenceGraph(tor_p4info)
        neighbor = tor_builder.exact(
            "neighbor_tbl", {"router_interface_id": 1, "neighbor_id": 1},
            "set_dst_mac", {"dst_mac": 5},
        )
        nexthop = tor_builder.exact(
            "nexthop_tbl", {"nexthop_id": 1}, "set_ip_nexthop",
            {"router_interface_id": 1, "neighbor_id": 1},
        )
        assert refs.depends_on(nexthop, neighbor)
        other_neighbor = tor_builder.exact(
            "neighbor_tbl", {"router_interface_id": 3, "neighbor_id": 3},
            "set_dst_mac", {"dst_mac": 5},
        )
        assert not refs.depends_on(nexthop, other_neighbor)


class TestEndToEnd:
    @pytest.mark.parametrize("switch_cls", [PinsSwitchStack, ReferenceSwitch])
    def test_mixed_pair_rejected_valid_pair_accepted(
        self, switch_cls, tor_program, tor_p4info, tor_baseline
    ):
        from repro.fuzzer.batching import make_batches, order_inserts
        from repro.p4rt.messages import Update, UpdateType, WriteRequest

        switch = switch_cls(tor_program)
        client = P4RuntimeClient(switch)
        client.set_pipeline(tor_p4info)
        for batch in make_batches(
            tor_p4info,
            order_inserts(tor_p4info, [Update(UpdateType.INSERT, e) for e in tor_baseline]),
        ):
            switch.write(WriteRequest(updates=tuple(batch)))
        b = EntryBuilder(tor_p4info)
        mixed = b.exact(
            "nexthop_tbl", {"nexthop_id": 99}, "set_ip_nexthop",
            {"router_interface_id": 1, "neighbor_id": 2},  # both exist, pair doesn't
        )
        assert client.insert(mixed).code is Code.INVALID_ARGUMENT
        valid = b.exact(
            "nexthop_tbl", {"nexthop_id": 99}, "set_ip_nexthop",
            {"router_interface_id": 2, "neighbor_id": 2},
        )
        assert client.insert(valid).ok

    def test_generator_plans_consistent_pairs(self, tor_p4info):
        gen = RequestGenerator(tor_p4info, random.Random(4))
        b = EntryBuilder(tor_p4info)
        # Install RIFs 1..3 and neighbors only for the matching pairs.
        for i in (1, 2, 3):
            gen.state.install(
                b.exact("router_interface_tbl", {"router_interface_id": i},
                        "set_port_and_src_mac", {"port": i, "src_mac": i})
            )
            gen.state.install(
                b.exact("neighbor_tbl", {"router_interface_id": i, "neighbor_id": i * 10},
                        "set_dst_mac", {"dst_mac": i})
            )
        nexthop_table = tor_p4info.table_by_name("nexthop_tbl")
        for _ in range(40):
            update = gen.generate_insert(table_id=nexthop_table.id)
            assert update is not None
            decoded = decode_table_entry(tor_p4info, update.entry)
            params = decoded.action.param_map()
            assert params["neighbor_id"] == params["router_interface_id"] * 10