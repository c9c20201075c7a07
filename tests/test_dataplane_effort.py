"""Deterministic effort gates for the data plane (call counts, no clocks).

The state is the benchmark's ``symbolic_cold`` one — ToR, 150
production-like entries, run seed 1 — so the ratios asserted here are the
ones ``bmv2.simulate_s`` and ``symbolic.solve_s`` are made of.  The edit
gate at the end replays ``symbolic_churn`` (ToR, 80 entries, seed 1).
"""

import dataclasses
import random

import pytest

from repro.bmv2.entries import decode_table_entry
from repro.bmv2.interpreter import Interpreter
from repro.bmv2.packet import deparse_packet
from repro.bmv2.simulator import Bmv2Simulator
from repro.p4.ast import ExecutionPlan
from repro.p4.p4info import build_p4info
from repro.p4.programs import build_tor_program, build_wan_program
from repro.p4rt.messages import ActionInvocation, Update, UpdateType, WriteRequest
from repro.smt import terms as T
from repro.smt.compile import CompiledTerm
from repro.switch import PinsSwitchStack, ReferenceSwitch
from repro.switchv import SwitchVHarness
from repro.symbolic import CoverageMode, PacketGenerator, SymbolicExecutor
from repro.symbolic import executor as executor_module
from repro.symbolic import packets as packets_module
from repro.symbolic.cache import PacketCache, cache_key
from repro.workloads import EntryBuilder, production_like_entries

from tests.full_chain_executor import FullChainExecutor
from tests.test_smt_compile import _dag_size


class Counters:
    def __init__(self, monkeypatch):
        self.runs = self.interpreters = self.plans = 0
        for cls, name, counter in (
            (Interpreter, "run", "runs"),
            (Interpreter, "__init__", "interpreters"),
            (ExecutionPlan, "__init__", "plans"),
        ):
            monkeypatch.setattr(cls, name, self._counting(getattr(cls, name), counter))

    def _counting(self, wrapped, counter):
        def call(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return wrapped(*args, **kwargs)

        return call

    def snapshot(self):
        return (self.runs, self.interpreters, self.plans)


def _decode_state(p4info, entries):
    state = {}
    for entry in entries:
        decoded = decode_table_entry(p4info, entry)
        state.setdefault(decoded.table_name, []).append(decoded)
    return state


@pytest.fixture(scope="module")
def tor150():
    program = build_tor_program()  # a fresh object: its plan is not built yet
    p4info = build_p4info(program)
    # bench.workloads.sub_seed(1, "entries")
    entries = production_like_entries(
        p4info, total=150, seed=random.Random("1:entries").getrandbits(31)
    )
    state = _decode_state(p4info, entries)
    packets = PacketGenerator(program, state).generate(CoverageMode.ENTRY).packets
    assert len(packets) > 100
    return program, p4info, entries, state, packets


def test_one_interpretation_per_packet_without_a_choice_point(tor150, monkeypatch):
    program, _p4info, _entries, state, packets = tor150
    counters = Counters(monkeypatch)
    simulator = Bmv2Simulator(program, state)
    assert (counters.interpreters, counters.plans) == (1, 0)

    behaviours = 0
    asked = set()
    for generated in packets:
        before = counters.runs
        found = simulator.behaviors(generated.packet, generated.ingress_port)
        spent = counters.runs - before
        behaviours += len(found)
        trace = found[0].result.trace
        question = (generated.packet.signature(), generated.ingress_port)
        if question in asked:  # two goals, one packet
            assert spent == 0, generated.goal
        elif not (trace.hash_choices or trace.tie_choices):
            assert spent == 1 and len(found) == 1, generated.goal
        else:
            assert spent > 1, generated.goal
        asked.add(question)
    # The full rotation spends 5.3 runs per packet on this set.
    assert counters.runs <= 1.5 * len(packets)
    assert behaviours > len(packets), "no packet of the set met a choice point"
    assert (counters.interpreters, counters.plans) == (1, 0)


def test_a_repeated_question_costs_no_interpretation(tor150, monkeypatch):
    program, _p4info, _entries, state, packets = tor150
    counters = Counters(monkeypatch)
    simulator = Bmv2Simulator(program, state)
    signatures = [
        simulator.behaviors(g.packet, g.ingress_port)[-1].signature for g in packets
    ]
    spent = counters.snapshot()
    for generated, signature in zip(packets, signatures, strict=True):
        # What the harness asks after a MODIFY sweep, and for a mismatch report.
        assert simulator.admits(generated.packet, generated.ingress_port, signature)
        assert not simulator.admits(generated.packet.copy(), generated.ingress_port, ("bogus",))
        assert simulator.behaviors(generated.packet, generated.ingress_port)
    assert counters.snapshot() == spent
    # Another ingress port is another question.
    simulator.behaviors(packets[0].packet, 0)
    assert counters.runs > spent[0]


def test_reference_switch_reuses_one_interpreter_and_the_plan(tor150, monkeypatch):
    program, p4info, entries, _state, packets = tor150
    counters = Counters(monkeypatch)
    switch = ReferenceSwitch(program)
    assert switch.set_forwarding_pipeline_config(p4info).ok
    for entry in entries:
        response = switch.write(WriteRequest(updates=(Update(UpdateType.INSERT, entry),)))
        assert response.statuses[0].ok
    assert counters.snapshot() == (0, 1, 0)
    forwarded = 0
    for generated in packets:
        observed = switch.send_packet(deparse_packet(generated.packet), generated.ingress_port)
        forwarded += observed.egress_port is not None
    assert forwarded
    assert counters.snapshot() == (len(packets), 1, 0)
    # A write in between changes what packets see, not what they cost.
    victim = next(e for e in reversed(entries))
    assert switch.write(WriteRequest(updates=(Update(UpdateType.DELETE, victim),))).statuses[0].ok
    switch.send_packet(deparse_packet(packets[0].packet), packets[0].ingress_port)
    assert counters.snapshot() == (len(packets) + 1, 1, 0)


def test_the_program_is_walked_once_for_every_client():
    built = []
    original = ExecutionPlan.__init__

    def counting(self, program):
        built.append(program.name)
        original(self, program)

    program = build_tor_program()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExecutionPlan, "__init__", counting)
        p4info = build_p4info(program)
        state = _decode_state(p4info, production_like_entries(p4info, total=40, seed=3))
        packets = PacketGenerator(program, state).generate(CoverageMode.ENTRY).packets
        simulator = Bmv2Simulator(program, state)
        for generated in packets:
            simulator.behaviors(generated.packet, generated.ingress_port)
        ReferenceSwitch(program)
        for _ in range(3):
            assert len(program.tables()) == 12
            assert program.field_width("ipv4.dst_addr") == 32
            assert "meta.vrf_id" in program.all_field_paths()
    assert built == [program.name]


def test_generation_compiles_and_propagates_shared_work_once(tor150, monkeypatch):
    """The ``symbolic_cold`` cycle, as the benchmark runs it: one program per
    parser profile serves all of subsumption, each packet is evaluated over
    it once, and the checks of a goal's cascade propagate only what differs
    from the check before.  Queries, clauses and conflicts are the
    benchmark's exact-repeat counters: the saving is in how the answers are
    reached, not in which are asked for."""
    program, _p4info, entries, _state, _packets = tor150
    constructed, root_passes, registered = [], [], []
    for cls, name, sink in (
        (CompiledTerm, "__init__", constructed),
        (CompiledTerm, "evaluate_roots", root_passes),
        (PacketGenerator, "register_goals", registered),
    ):
        def wrapper(self, *args, _wrapped=getattr(cls, name), _sink=sink):
            _sink.append((self, *args))
            return _wrapped(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    harness = SwitchVHarness(program, PinsSwitchStack(program), cache=PacketCache())
    stats = harness.validate_data_plane(entries).data_plane

    # 522 queries before a cascade skipped the attempts its failed
    # assumption already refutes (their clauses: 17,592).
    assert (stats.goals_total, stats.goals_subsumed, stats.solver_queries) == (164, 9, 366)
    # Guards negate only the overlapping higher-priority entries and compare
    # table-written fields by case; the full-chain guards' (6253, 48723, 781)
    # is pinned below.  (3762, 17581, 178) while assumption roots were
    # completed in both directions; (3762, 17495, 178) while every attempt
    # also pinned the fields its goal leaves free to background values.
    assert (stats.cnf_vars, stats.cnf_clauses, stats.sat_conflicts) == (1452, 15168, 196)
    assert stats.sat_propagations <= 450_000  # 807,922 when every check began at the root

    (generator, goals, executions), = registered
    solved = stats.goals_total - stats.goals_subsumed
    # One program per profile plus one formula per solved goal (784 when
    # subsumption compiled every (goal, profile) condition on its own).
    assert len(constructed) <= 2 * (len(executions) + solved)
    programs = list(generator._programs.values())
    assert len(programs) == len(executions)
    # Every node a profile's goal conditions reach is compiled once (213 k
    # slots for these few thousand terms, one program per condition).
    reachable = sum(
        _dag_size(*(c for goal in goals if (c := goal.condition(execution)) is not None))
        for execution in executions
    )
    compiled = sum(p.size for p in programs)
    assert 1000 < compiled <= reachable
    # One pass per packet that was ever a candidate, none per goal.
    assert 0 < len(root_passes) <= 2 * stats.goals_covered


def test_table_written_fields_keep_generation_near_its_sat_floor(tor150, monkeypatch):
    """The ``symbolic_cold`` cycle through the harness.  A field that tables
    write (``vrf_id``, ``nexthop_id``, ``route_hit``, ...) is compared with a
    constant by the guards that wrote a matching value, so SAT need not
    split cases over which upstream entry fired, and the canonical witness
    finds its pins as top-level conjuncts.  Compared bit by bit, this cycle
    spent 283,096 propagations, 652 conflicts and 705 canonical checks for
    537 queries."""
    program, _p4info, entries, _state, _packets = tor150
    generated = []
    generate = PacketGenerator.generate

    def recording(self, *args, **kwargs):
        result = generate(self, *args, **kwargs)
        generated.append(result.stats)
        return result

    monkeypatch.setattr(PacketGenerator, "generate", recording)
    harness = SwitchVHarness(program, PinsSwitchStack(program), cache=PacketCache())
    stats = harness.validate_data_plane(entries).data_plane
    (generation,) = generated
    assert stats.sat_propagations <= 120_000
    assert stats.sat_conflicts <= 250
    assert generation.canonical_checks <= stats.solver_queries


def test_full_chain_guards_emit_the_cnf_recorded_before_pruning(tor150, monkeypatch):
    """The same cycle with every entry guard negating every higher-priority
    entry (``tests/full_chain_executor.py``): the same goals and queries, and
    the CNF this cycle emitted before the guards were pruned."""
    program, _p4info, entries, _state, _packets = tor150
    monkeypatch.setattr(packets_module, "SymbolicExecutor", FullChainExecutor)
    harness = SwitchVHarness(program, PinsSwitchStack(program), cache=PacketCache())
    stats = harness.validate_data_plane(entries).data_plane
    # (537 queries and 48,723 clauses when every cascade attempt was asked;
    # 409 queries while assumption roots were completed in both directions,
    # which changed which attempt a cascade's failed assumption names.)
    assert (stats.goals_total, stats.goals_subsumed, stats.solver_queries) == (164, 9, 411)
    # (6253, 48720, 781) while assumption roots were completed in both
    # directions; (6253, 48562, 849) while every attempt also pinned the
    # fields its goal leaves free to background values.
    assert (stats.cnf_vars, stats.cnf_clauses, stats.sat_conflicts) == (3943, 46235, 850)


def _guard_arity(executions):
    """Summed AND arity over the unique terms the traces reach."""
    seen, total, stack = set(), 0, [g for e in executions for g in e.trace.values()]
    while stack:
        term = stack.pop()
        if id(term) not in seen:
            seen.add(id(term))
            total += len(term.args) if term.op == T.OP_AND else 0
            stack.extend(term.args)
    return total


@pytest.mark.parametrize(
    "build, total, bound",
    # Inst1 and Inst2 (paper Table 3).  Negating every higher-priority entry
    # summed 1,052,644 and 2,966,008; the overlapping ones sum 23,109 and 37,681.
    [(build_tor_program, 798, 30_000), (build_wan_program, 1314, 50_000)],
    ids=["tor798", "wan1314"],
)
def test_entry_guards_negate_only_overlapping_entries(build, total, bound, monkeypatch):
    """Walk only, no solving: the table guards stay proportional to the
    entries that can overlap, and the overlap search runs once per table per
    executor, not once per parser profile that applies the table."""
    program = build()
    p4info = build_p4info(program)
    state = _decode_state(p4info, production_like_entries(p4info, total=total, seed=1))
    searched = []
    search = executor_module._overlaps

    def counting(cubes, fulls):
        searched.append(len(cubes))
        return search(cubes, fulls)

    monkeypatch.setattr(executor_module, "_overlaps", counting)
    executions = SymbolicExecutor(program, state).execute()
    # Reduce to ints first: a failing assert would repr the term DAGs.
    arity, profiles = _guard_arity(executions), len(executions)
    applied = len({key[1] for e in executions for key in e.trace if key[0] == "miss"})
    assert arity <= bound
    assert len(searched) == applied < profiles * applied


def _churn_states(p4info, entries, edits=5):
    """``symbolic_churn``'s single-entry edits at run seed 1: delete a /24
    route, insert a /24 route, flip one ACL action between drop and copy."""
    rng = random.Random(random.Random("1:edits").getrandbits(31))
    builder = EntryBuilder(p4info)
    ipv4 = p4info.table_by_name("ipv4_tbl").id
    acl = p4info.table_by_name("acl_ingress_tbl").id
    drop = p4info.action_by_name("drop").id
    copy = p4info.action_by_name("acl_copy").id
    current, states = list(entries), []
    for index in range(edits):
        kind = index % 3
        if kind == 0:
            routes = [i for i, e in enumerate(current) if e.table_id == ipv4]
            pinned = [i for i in routes if current[i].matches[-1].prefix_len == 24]
            current.pop(rng.choice(pinned or routes))
        elif kind == 1:
            taken = {e.match_key() for e in current}
            while True:
                route = builder.lpm(
                    "ipv4_tbl", {"vrf_id": 1}, "ipv4_dst",
                    0xC6000000 | (rng.getrandbits(16) << 8), 24,
                    "set_nexthop_id", {"nexthop_id": rng.randint(1, 8)},
                )
                if route.match_key() not in taken:
                    break
            current.append(route)
        else:
            acls = [
                i for i, e in enumerate(current)
                if e.table_id == acl and e.action.action_id in (drop, copy)
            ]
            i = rng.choice(acls)
            flipped = copy if current[i].action.action_id == drop else drop
            current[i] = dataclasses.replace(current[i], action=ActionInvocation(flipped, ()))
        states.append(list(current))
    return states


def _validated_packets(harness, entries):
    """(data-plane stats, generated packets as comparable tuples)."""
    stats = harness.validate_data_plane(entries, exercise_update_path=False).data_plane
    state = _decode_state(harness.p4info, entries)
    result = harness.cache.lookup(
        cache_key(harness.model, state, CoverageMode.ENTRY, harness.valid_ports)
    )
    packets = [
        (p.goal, p.profile, p.ingress_port, deparse_packet(p.packet))
        for p in result.packets
    ]
    return stats, packets


def test_an_edit_costs_less_than_validating_cold():
    """Re-validating after a single-entry edit solves only the goals the
    edit changed, on solvers built for the edited state: each such edit
    spends fewer SAT propagations than the cold base validation, and the
    cost does not grow from edit to edit.  (Solvers kept alive across
    states made every edit dearer than cold — 1.3x rising to 2.2x here —
    because CDCL re-assigns every earlier state's encoding on every check.)"""
    program = build_tor_program()
    p4info = build_p4info(program)
    # bench.workloads.sub_seed(1, "entries") at symbolic_churn's size.
    entries = production_like_entries(
        p4info, total=80, seed=random.Random("1:entries").getrandbits(31)
    )
    harness = SwitchVHarness(program, PinsSwitchStack(program), cache=PacketCache())
    base, _ = _validated_packets(harness, entries)
    assert base.solver_queries > 0 and base.sat_propagations > 0

    solved = []
    for entries in _churn_states(p4info, entries):
        harness.clear_switch()
        stats, packets = _validated_packets(harness, entries)
        fresh = SwitchVHarness(program, PinsSwitchStack(program), cache=PacketCache())
        assert packets == _validated_packets(fresh, entries)[1]
        if stats.solver_queries:
            assert stats.goals_from_cache > 0
            solved.append(stats.sat_propagations)
    assert len(solved) >= 2
    assert max(solved) < base.sat_propagations, (solved, base.sat_propagations)
    assert max(solved) <= 1.25 * min(solved), solved
