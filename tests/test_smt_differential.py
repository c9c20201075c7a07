"""Certified generation and warmth independence, end to end.

One CNF pipeline, judged against ground truth instead of a sibling:

* *certified generation* — each generated packet's field assignment
  satisfies ``constraints ∧ goal condition`` under the
  ``tests/treewalk_eval.py`` tree walk, and each uncovered goal is re-posed
  per profile on a fresh proof-logging solver whose UNSAT :mod:`tests.rup`
  replays;
* *warmth independence* — a warm :class:`SolverPool` formula memo and
  fresh solvers yield byte-identical packets, uncovered goals, incidents
  and fuzzer request streams: every artifact is a pure function of the
  formula.

(Test ids predate the second pipeline's deletion; kept so the floor stays put.)
"""

import pytest

from repro.bmv2.packet import deparse_packet
from repro.fuzzer.fuzzer import FuzzerConfig, P4Fuzzer
from repro.smt import Result, Solver
from repro.smt import terms as T
from repro.smt.pool import SolverPool
from repro.switch import PinsSwitchStack, ReferenceSwitch
from repro.switch.faults import FAULT_CATALOG, FaultRegistry
from repro.switchv.harness import SwitchVHarness
from repro.symbolic import PacketGenerator
from repro.symbolic.coverage import CoverageMode, goals_for_mode
from repro.workloads import EntryBuilder, baseline_entries, production_like_entries

from tests.rup import check_proof
from tests.test_symbolic import decode_state
from tests.treewalk_eval import evaluate

MODELS = ["toy", "tor", "wan", "cerberus"]
# Per model at `_entries_for`: (packets re-evaluated, UNSAT answers certified).
CERTIFIED = {"toy": (5, 0), "tor": (23, 20), "wan": (24, 20), "cerberus": (24, 20)}


def _entries_for(model, p4info):
    if model == "toy":
        # The toy router has none of the SAI tables baseline_entries fills.
        b = EntryBuilder(p4info)
        return [
            b.ternary("pre_ingress_tbl", {}, "set_vrf", {"vrf_id": 1}, priority=1),
            b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction"),
            b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 8,
                  "set_nexthop_id", {"nexthop_id": 3}),
            b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 16,
                  "set_nexthop_id", {"nexthop_id": 7}),
        ]
    return baseline_entries(p4info)


def _packet_tuples(packets):
    return [
        (p.goal, p.profile, p.ingress_port, deparse_packet(p.packet))
        for p in packets
    ]


def _incident_tuples(log):
    return [
        (i.kind, i.summary, i.expected, i.observed, i.table_id, i.table_name)
        for i in log.incidents
    ]


def _certify(generator, result):
    """Check an entry-coverage ``result`` against ground truth; returns
    (packets re-evaluated, UNSAT answers RUP-certified)."""
    executions = {e.profile.name: e for e in generator.executions()}
    goals = {
        g.name: g
        for g in goals_for_mode(list(executions.values()), CoverageMode.ENTRY)
    }
    for generated in result.packets:
        execution = executions[generated.profile]
        assignment = {
            term.name: (
                generated.ingress_port
                if path == "standard.ingress_port"
                else generated.packet.fields[path]
            )
            for path, term in execution.inputs.items()
            if not term.is_const
        }
        formula = T.and_(
            *execution.constraints, goals[generated.goal].condition(execution)
        )
        assert evaluate(formula, assignment) == 1, generated
    certified = 0
    for execution in executions.values():
        conditions = [goals[name].condition(execution) for name in result.uncovered]
        conditions = [c for c in conditions if c is not None]
        if not conditions:
            continue
        solver = Solver(simplify_terms=False)
        solver.proof = []
        solver.add(*execution.constraints)
        for condition in conditions:
            assert solver.check(condition) is Result.UNSAT
        assert check_proof(solver.proof) == len(conditions)
        certified += len(conditions)
    return len(result.packets), certified


@pytest.mark.parametrize("model", MODELS)
def test_packet_generation_identity(model, request):
    """Cold entry-coverage generation on every shipped model is what the
    formulas say it must be: every packet a checked model, every uncovered
    goal a certified UNSAT."""
    program = request.getfixturevalue(f"{model}_program")
    p4info = request.getfixturevalue(f"{model}_p4info")
    state = decode_state(p4info, _entries_for(model, p4info))
    generator = PacketGenerator(program, state)
    result = generator.generate(CoverageMode.ENTRY)
    # Toy's two uncovered goals are expressible in no profile (decided by
    # the executor, not the solver), so there is nothing to certify there.
    assert _certify(generator, result) == CERTIFIED[model]
    assert len(result.packets) == result.stats.goals_covered


def test_packet_generation_identity_across_states(tor_program, tor_p4info):
    """Answers from the pool's formula memo across a state edit yield
    exactly the packets and uncovered goals of a generator without a pool —
    and the cold run on the production-like state is certified."""
    base = production_like_entries(tor_p4info, 80, seed=1)
    pool = SolverPool()
    for entries in (base, base[:-8]):  # drop a few entries
        state = decode_state(tor_p4info, entries)
        warm = PacketGenerator(tor_program, state, solver_pool=pool).generate()
        generator = PacketGenerator(tor_program, state)
        cold = generator.generate()
        assert _packet_tuples(warm.packets) == _packet_tuples(cold.packets)
        assert warm.uncovered == cold.uncovered
        if entries is base:
            assert _certify(generator, cold) == (84, 29)
    # The edited state reused the base state's solved formulas.
    assert warm.stats.pool_hits > 0


@pytest.mark.parametrize("model", ["toy", "tor"])
def test_data_plane_incident_identity(model, request):
    """End-to-end harness runs against the fault-free reference switch
    report zero incidents, cold and again on the same harness, whose
    formula memo is then warm."""
    program = request.getfixturevalue(f"{model}_program")
    p4info = request.getfixturevalue(f"{model}_p4info")
    entries = _entries_for(model, p4info)
    harness = SwitchVHarness(program, ReferenceSwitch(program))
    outcomes, queries = [], []
    for _ in range(2):
        harness.clear_switch()
        report = harness.validate_data_plane(entries)
        stats = report.data_plane
        assert _incident_tuples(report.incidents) == []
        outcomes.append((stats.goals_total, stats.goals_covered, stats.packets_tested))
        queries.append(stats.solver_queries)
    assert outcomes[0] == outcomes[1] and outcomes[0][2] > 0
    # The memo answers every goal of the second run.
    assert queries[0] > 0 and queries[1] == 0


@pytest.fixture(scope="module")
def shared_pool():
    """One pool for the whole fault catalogue: each campaign finds it as
    warm as the campaigns before it left it."""
    return SolverPool()


@pytest.mark.parametrize("fault", sorted(f.name for f in FAULT_CATALOG))
def test_fuzzer_fingerprint_identity_across_fault_catalogue(
    fault, tor_program, tor_p4info, shared_pool
):
    """Constraint-aware fuzz campaigns (the fuzzer path that actually
    queries the SMT layer for table-key models) produce identical incident
    fingerprints and adopted state on a shared warm pool and on private
    cold solvers, for every catalogued fault."""
    outcomes = []
    for pool in (shared_pool, None):
        stack = PinsSwitchStack(tor_program, faults=FaultRegistry([fault]))
        fuzzer = P4Fuzzer(
            tor_p4info,
            stack,
            FuzzerConfig(num_writes=4, updates_per_write=8, seed=47, constraint_aware=True),
            solver_pool=pool,
        )
        result = fuzzer.run()
        outcomes.append((_incident_tuples(result.incidents), result.final_entries))
    assert outcomes[0] == outcomes[1]
