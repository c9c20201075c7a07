"""``PacketGenerator.subsume_goal`` against its per-condition spec.

``tests/percondition_subsumption.py`` compiles every goal condition on its
own and evaluates it under every prior packet; the generator keeps one
multi-root program per parser profile, evaluates each packet over it once
and reads a slot.  Everything here requires the two to choose the same
packet for the same goal — which, through the goals that are then solved
or not, means the same (goal, profile, bytes, port) list for a whole run.
"""

import pytest

from repro.bmv2.packet import deparse_packet
from repro.smt import terms as T
from repro.smt.compile import CompiledTerm
from repro.smt.pool import SolverPool
from repro.symbolic import CoverageMode, PacketGenerator
from repro.symbolic.cache import PacketCache
from repro.symbolic.coverage import goals_for_mode, output_goal, trace_goal
from repro.workloads import baseline_entries, production_like_entries

from tests import percondition_subsumption
from tests.test_behaviors_spec import _toy_entries
from tests.test_symbolic import decode_state


def _observable(result):
    return (
        [(p.goal, p.profile, deparse_packet(p.packet), p.ingress_port) for p in result.packets],
        result.uncovered,
        result.stats.goals_subsumed,
    )


def _by_spec(run):
    """``run()`` with the per-condition loop installed on the generator."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PacketGenerator, "subsume_goal", percondition_subsumption.subsume_goal)
        return run()


@pytest.fixture(scope="module")
def tor80(tor_p4info):
    return production_like_entries(tor_p4info, total=80, seed=7)


@pytest.mark.parametrize("model", ["toy", "tor", "wan", "cerberus"])
def test_same_run_on_every_shipped_model(model, request):
    program = request.getfixturevalue(f"{model}_program")
    p4info = request.getfixturevalue(f"{model}_p4info")
    entries = _toy_entries(p4info) if model == "toy" else baseline_entries(p4info)
    state = decode_state(p4info, entries)

    def run():
        return PacketGenerator(program, state).generate(CoverageMode.BRANCH)

    got = _observable(run())
    assert got == _observable(_by_spec(run))
    if model != "toy":
        assert got[2] > 0, "no goal of this state is subsumed: the comparison is vacuous"


def test_same_runs_across_a_single_entry_edit_on_a_warm_pool(tor_program, tor_p4info, tor80):
    # The edit removes an entry other goals' conditions negate (same-table
    # priority), so cached, subsumed and re-solved goals all occur after it.
    victim = next(
        i for i, entry in enumerate(tor80)
        if "acl" in next(iter(decode_state(tor_p4info, [entry])))
    )
    edited = tor80[:victim] + tor80[victim + 1:]
    states = [decode_state(tor_p4info, tor80), decode_state(tor_p4info, edited)]

    def run():
        pool, cache = SolverPool(), PacketCache()
        return [
            _observable(
                PacketGenerator(tor_program, state, solver_pool=pool).generate(
                    CoverageMode.ENTRY, goal_cache=cache
                )
            )
            for state in states
        ]

    got = run()
    assert got == _by_spec(run)
    assert got[0] != got[1]
    assert all(subsumed > 0 for _packets, _uncovered, subsumed in got)


def test_same_run_with_goals_whose_conditions_are_not_trace_terms(tor_program, tor_p4info, tor80):
    state = decode_state(tor_p4info, tor80)
    executions = PacketGenerator(tor_program, state).executions()
    first = {}
    for key in executions[1].trace:
        if key[0] == "entry":
            first.setdefault(key[1], key)
    pair = [first["neighbor_tbl"], first["acl_pre_ingress_tbl"]]
    custom = [
        # A conjunction the executor never built ...
        trace_goal("two-tables", pair),
        # ... one a packet solved for `two-tables` already satisfies ...
        trace_goal("first-table-again", pair[:1]),
        # ... and a caller-built term over the inputs alone.
        output_goal(
            "low-ttl",
            lambda execution: execution.inputs["ipv4.ttl"].ult(2)
            if "ipv4.ttl" in execution.inputs and not execution.inputs["ipv4.ttl"].is_const
            else None,
        ),
    ]
    trace_terms = {id(term) for execution in executions for term in execution.trace.values()}
    built_by_the_goal = id(custom[0].condition(executions[1])) not in trace_terms
    assert built_by_the_goal

    def run():
        return PacketGenerator(tor_program, state).generate(
            CoverageMode.ENTRY, custom_goals=custom
        )

    got = _observable(run())
    assert got == _observable(_by_spec(run))
    assert {"two-tables", "first-table-again"} <= {goal for goal, *_ in got[0]}


def _first_true_slot(goal, executions, packets):
    """The spec's choice without its every-variable-has-a-value rule."""
    for execution in executions:
        condition = goal.condition(execution)
        if condition is None or condition is T.FALSE:
            continue
        compiled = CompiledTerm(condition)
        for prior in packets:
            if prior.profile == execution.profile.name and compiled.evaluate(
                percondition_subsumption.packet_assignment(prior, execution)
            ):
                return prior.packet
    return None


def test_a_condition_first_seen_by_subsume_goal_grows_the_program(tor_program, tor_p4info, tor80):
    """``subsume_goal`` called directly, goal by goal, with no registration
    (what a caller outside ``generate()`` does): the program grows under
    packets that were already evaluated, and every answer is the spec's."""
    state = decode_state(tor_p4info, tor80)
    packets = PacketGenerator(tor_program, state).generate(CoverageMode.ENTRY).packets
    generator = PacketGenerator(tor_program, state)
    executions = generator.executions()
    hits = rule_decided = 0
    for goal in goals_for_mode(executions, CoverageMode.BRANCH):
        got = generator.subsume_goal(goal, executions, packets)
        want = percondition_subsumption.subsume_goal(None, goal, executions, packets)
        assert (got is None) == (want is None), goal.name
        rule_decided += _first_true_slot(goal, executions, packets) != (want and want.packet)
        if got is not None:
            hits += 1
            assert (got.goal, got.profile, got.packet, got.ingress_port) == (
                want.goal, want.profile, want.packet, want.ingress_port
            )
    assert hits > len(packets) // 2
    assert rule_decided, "no true slot was refused for an unvalued variable"
    # Each memo entry pins the packet it describes: its id() cannot be reused.
    assert generator._packet_memo
    for key, (packet, _assignment, _values) in generator._packet_memo.items():
        assert key == id(packet)


def test_a_stale_slot_matters_on_this_state(tor_program, tor_p4info, tor80):
    """Negative control: handing every root the first root's slot (an
    ``add_root`` that forgets to grow the root list) produces a different
    run."""
    state = decode_state(tor_p4info, tor80)

    def run():
        return PacketGenerator(tor_program, state).generate(CoverageMode.ENTRY)

    want = _observable(run())
    original = CompiledTerm.add_root
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompiledTerm, "add_root", lambda self, term: original(self, term) and 0)
        assert _observable(run()) != want
