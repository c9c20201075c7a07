"""``Bmv2Simulator.behaviors`` against its rotate-until-two-repeats spec.

``tests/roundrobin_behaviors.py`` runs every round of the rotation for
every call; the simulator skips rounds whose outcome it can prove, and
remembers sets it already computed.  Everything here requires the two to
return the same signatures in the same order — ``Incident.expected``
prints ``behaviors[:4]``, so order is part of the verdict.
"""

import random

import pytest

from repro.bmv2.entries import decode_table_entry
from repro.bmv2.interpreter import Interpreter
from repro.bmv2.packet import make_ipv4_packet, make_ipv6_packet
from repro.bmv2.simulator import Bmv2Simulator
from repro.p4 import ast
from repro.p4.ast import FieldRef, HashExpr, P4Program, ParserSpec, Seq, TableApply, assign
from repro.p4.headers import STANDARD_HEADERS
from repro.p4.programs import build_tor_program
from repro.switch.faults import FaultRegistry
from repro.symbolic import CoverageMode, PacketGenerator
from repro.workloads import EntryBuilder, baseline_entries, production_like_entries
from tests import roundrobin_behaviors

SIMULATOR_FAULTS = ("bmv2_optional_zero_match", "bmv2_lpm_shortest_prefix")


def _decode_state(p4info, entries):
    state = {}
    for entry in entries:
        decoded = decode_table_entry(p4info, entry)
        state.setdefault(decoded.table_name, []).append(decoded)
    return state


def _toy_entries(p4info):
    b = EntryBuilder(p4info)
    return [
        b.ternary("pre_ingress_tbl", {}, "set_vrf", {"vrf_id": 1}, priority=1),
        b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction"),
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 8,
              "set_nexthop_id", {"nexthop_id": 3}),
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 16,
              "set_nexthop_id", {"nexthop_id": 7}),
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0B000000, 8, "drop", {}),
    ]


def _probes(seed, count=40):
    """Packets no goal asked for: random destinations, TTLs and an IPv6 tail."""
    rng = random.Random(seed)
    probes = [
        (
            make_ipv4_packet(
                dst_addr=rng.choice([0x0A000000, 0x0AC00000, 0]) | rng.getrandbits(16),
                src_addr=rng.getrandbits(32),
                ttl=rng.choice([0, 1, 64]),
            ),
            rng.randrange(0, 9),
        )
        for _ in range(count)
    ]
    probes.append((make_ipv6_packet(dst_addr=rng.getrandbits(128)), 1))
    return probes


def _assert_matches_spec(simulator, packets):
    """Both directions of reuse: a first call, and a second one answered
    from what the simulator remembered."""
    sets = []
    for packet, port in packets:
        want = roundrobin_behaviors.behaviors(simulator, packet, port)
        for _ in range(2):
            got = simulator.behaviors(packet, port)
            assert [b.signature for b in got] == want
            assert [b.result.behavior_signature() for b in got] == want
        sets.append(want)
    return sets


@pytest.mark.parametrize("model", ["toy", "tor", "wan", "cerberus"])
def test_every_generated_packet_gets_the_spec_behaviour_set(request, model):
    program = request.getfixturevalue(f"{model}_program")
    p4info = request.getfixturevalue(f"{model}_p4info")
    entries = (
        _toy_entries(p4info) if model == "toy" else production_like_entries(p4info, 70, seed=5)
    )
    state = _decode_state(p4info, entries)
    generated = PacketGenerator(program, state).generate(CoverageMode.ENTRY).packets
    assert generated
    packets = [(g.packet, g.ingress_port) for g in generated]
    # Port 0 is where the harness injects submit-to-ingress packets.
    packets += [(g.packet, 0) for g in generated] + _probes(seed=11)
    sets = _assert_matches_spec(Bmv2Simulator(program, state), packets)
    if model != "toy":
        assert any(len(s) > 1 for s in sets), "no packet met a choice point"


@pytest.fixture
def wcmp_heavy_state(tor_p4info, tor_baseline):
    """/24 routes into groups of 2-4 members, inside a plain /16."""
    b = EntryBuilder(tor_p4info)
    entries = list(tor_baseline)
    entries.append(
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0AC00000, 16,
              "set_nexthop_id", {"nexthop_id": 4})
    )
    for gid, members in enumerate(([1, 2], [1, 2, 3], [4, 3, 2, 1], [2, 2]), start=1):
        entries.append(b.wcmp_group(gid, [(nh, 1 + nh % 3) for nh in members]))
        entries.append(
            b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0AC00000 + (gid << 8), 24,
                  "set_wcmp_group_id", {"wcmp_group_id": gid})
        )
    return _decode_state(tor_p4info, entries)


@pytest.fixture
def acl_tie_state(tor_p4info, tor_baseline):
    """Overlapping ACL entries at one priority (and one above them)."""
    b = EntryBuilder(tor_p4info)
    entries = list(tor_baseline)
    entries.append(b.wcmp_group(1, [(1, 1), (2, 1), (3, 1)]))
    entries.append(
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0AC00000, 16,
              "set_wcmp_group_id", {"wcmp_group_id": 1})
    )
    ipv4 = {"is_ipv4": (1, 1)}
    entries += [
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0AC00500, 24,
              "set_nexthop_id", {"nexthop_id": 2}),
        b.ternary("acl_ingress_tbl", {**ipv4, "dst_ip": (0x0AC00100, 0xFFFFFF00)},
                  "drop", priority=20),
        b.ternary("acl_ingress_tbl", {**ipv4, "dst_ip": (0x0AC00000, 0xFFFF0000)},
                  "acl_copy", priority=20),
        b.ternary("acl_ingress_tbl", {**ipv4, "dst_ip": (0x0AC00000, 0xFFF00000)},
                  "trap", priority=20),
        b.ternary("acl_ingress_tbl", {**ipv4, "dst_ip": (0x0AC00200, 0xFFFFFF00)},
                  "drop", priority=21),
    ]
    return _decode_state(tor_p4info, entries)


def _wcmp_packets():
    return [
        (make_ipv4_packet(0x0AC00005 + (gid << 8), src_addr=src), port)
        for gid in range(0, 6)
        for src, port in ((0x0A000001, 1), (0x0A000002, 5))
    ]


def test_wcmp_heavy_state(tor_program, wcmp_heavy_state):
    sets = _assert_matches_spec(Bmv2Simulator(tor_program, wcmp_heavy_state), _wcmp_packets())
    assert sorted({len(s) for s in sets}) == [1, 2, 3, 4]


def test_equal_priority_acl_ties(tor_program, acl_tie_state):
    packets = [
        (make_ipv4_packet(dst), port)
        for dst in (0x0AC00105, 0x0AC00305, 0x0AC00205, 0x0AC10005, 0x0AD00005, 0x0B000001)
        for port in (1, 3)
    ]
    sets = _assert_matches_spec(Bmv2Simulator(tor_program, acl_tie_state), packets)
    # A three-way tie crossed with a three-member group.
    assert max(len(s) for s in sets) > 3


def _hash_program():
    """ECMP written as arithmetic on a black-box hash, no selector."""
    spread = ast.BinOp(
        "+",
        ast.BinOp("&", HashExpr((FieldRef("ipv4.src_addr"),), 16, "ecmp"), ast.Const(3, 16)),
        ast.Const(1, 16),
    )
    gate = ast.If(
        cond=ast.Cmp("==", FieldRef("ipv4.ttl"), ast.Const(1, 8)),
        then_block=ast.seq(assign("standard.drop", ast.Const(1, 1))),
        else_block=ast.seq(assign("standard.egress_port", spread)),
        label="ttl_gate",
    )
    return P4Program(
        name="hash_only",
        headers=STANDARD_HEADERS,
        metadata=build_tor_program().metadata,
        parser=ParserSpec("ethernet_ipv4_ipv6"),
        ingress=Seq((gate,)),
    )


def test_hash_expression_program():
    program = _hash_program()
    packets = [(make_ipv4_packet(0x0A000001, ttl=ttl), 1) for ttl in (1, 2, 64)]
    sets = _assert_matches_spec(Bmv2Simulator(program, {}), packets)
    assert [len(s) for s in sets] == [1, 4, 4]


@pytest.mark.parametrize("state_name", ["wcmp_heavy_state", "acl_tie_state"])
def test_simulator_faults_toggled_mid_lifetime(request, tor_program, state_name):
    """One simulator, faults switched on and off under it: what it
    remembered for one fault setting must never answer for another."""
    state = request.getfixturevalue(state_name)
    faults = FaultRegistry()
    simulator = Bmv2Simulator(tor_program, state, faults=faults)
    packets = _wcmp_packets() + _probes(seed=23, count=12)
    healthy = _assert_matches_spec(simulator, packets)
    for fault in SIMULATOR_FAULTS:
        faults.enable(fault)
        faulty = _assert_matches_spec(simulator, packets)
        assert faulty != healthy, f"{fault} changed nothing on these packets"
        faults.disable(fault)
        assert _assert_matches_spec(simulator, packets) == healthy


def test_toy_lpm_fault_toggled_mid_lifetime(toy_program, toy_p4info):
    faults = FaultRegistry()
    state = _decode_state(toy_p4info, _toy_entries(toy_p4info))
    simulator = Bmv2Simulator(toy_program, state, faults=faults)
    packet = make_ipv4_packet(0x0A000105)
    assert [b.result.egress_port for b in simulator.behaviors(packet, 2)] == [7]
    faults.enable("bmv2_lpm_shortest_prefix")
    assert [b.result.egress_port for b in simulator.behaviors(packet, 2)] == [3]
    faults.disable("bmv2_lpm_shortest_prefix")
    assert [b.result.egress_port for b in simulator.behaviors(packet, 2)] == [7]


@pytest.mark.parametrize(
    "forgotten, state_name",
    [("tie_choices", "acl_tie_state"), ("hash_choices", "wcmp_heavy_state")],
)
def test_negative_control_an_uncounted_choice_point_is_caught(
    request, monkeypatch, tor_program, forgotten, state_name
):
    """An interpreter that forgets to count one kind of choice point makes
    the simulator stop rotating too early; the comparison above must see it."""
    state = request.getfixturevalue(state_name)
    honest_run = Interpreter.run

    def forgetful_run(self, *args, **kwargs):
        result = honest_run(self, *args, **kwargs)
        setattr(result.trace, forgotten, 0)
        return result

    monkeypatch.setattr(Interpreter, "run", forgetful_run)
    packets = _wcmp_packets() + [(make_ipv4_packet(0x0AC00105), 1)]
    with pytest.raises(AssertionError):
        _assert_matches_spec(Bmv2Simulator(tor_program, state), packets)


def test_baseline_entries_stay_deterministic(tor_program, tor_p4info):
    """The baseline scaffolding has no choice point anywhere."""
    state = _decode_state(tor_p4info, baseline_entries(tor_p4info))
    sets = _assert_matches_spec(Bmv2Simulator(tor_program, state), _probes(seed=5, count=16))
    assert {len(s) for s in sets} == {1}
