"""Warm-pool identity smoke (the file name predates what is left in it).

A fuzzing campaign validates a *sequence* of table states, and a shared
:class:`SolverPool` keeps solved-formula results alive across them (the
solvers themselves live for one state).  That must be invisible in the
results: memoised answers are byte-identical to fresh solves because
witnesses are canonicalised, never read off the solver's history-dependent
model (``repro.symbolic.packets``).  The smoke test below gates CI.

What a single-entry edit on a warm pool *costs* is the ``symbolic_churn``
workload of ``python3 -m bench run``; how subsumption evaluates conditions
is pinned by call counts in ``tests/test_dataplane_effort.py``.
"""

from conftest import print_table

from repro.bmv2.entries import decode_table_entry
from repro.p4.p4info import build_p4info
from repro.p4.programs import (
    build_cerberus_program,
    build_tor_program,
    build_toy_program,
    build_wan_program,
)
from repro.smt.pool import SolverPool
from repro.symbolic import PacketGenerator
from repro.symbolic.coverage import CoverageMode
from repro.workloads import EntryBuilder, baseline_entries


def _decode_state(p4info, entries):
    state = {}
    for entry in entries:
        decoded = decode_table_entry(p4info, entry)
        state.setdefault(decoded.table_name, []).append(decoded)
    return state


# ----------------------------------------------------------------------
# CI gate: warm pools never change results, on every shipped model
# ----------------------------------------------------------------------


def _toy_state(p4info):
    b = EntryBuilder(p4info)
    entries = [
        b.ternary("pre_ingress_tbl", {}, "set_vrf", {"vrf_id": 1}, priority=1),
        b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction"),
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 8,
              "set_nexthop_id", {"nexthop_id": 3}),
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 16,
              "set_nexthop_id", {"nexthop_id": 7}),
    ]
    return _decode_state(p4info, entries)


def test_warm_pool_results_identical_smoke():
    """CI smoke (<60 s): on every shipped model, a warm ``SolverPool`` run
    produces a ``GenerationResult`` identical to the cold run — same
    packets (goal, profile, bytes, port), same uncovered set."""
    builders = [
        build_toy_program,
        build_tor_program,
        build_wan_program,
        build_cerberus_program,
    ]
    rows = []
    for build in builders:
        program = build()
        p4info = build_p4info(program)
        state = (
            _toy_state(p4info)
            if program.name == "toy_router"
            else _decode_state(p4info, baseline_entries(p4info))
        )

        cold = PacketGenerator(program, state).generate(CoverageMode.ENTRY)
        pool = SolverPool()
        # First pooled run fills the formula memo; the second answers every
        # attempt from it without solving.
        PacketGenerator(program, state, solver_pool=pool).generate(CoverageMode.ENTRY)
        warm = PacketGenerator(program, state, solver_pool=pool).generate(
            CoverageMode.ENTRY
        )

        cold_key = [(p.goal, p.profile, p.packet, p.ingress_port) for p in cold.packets]
        warm_key = [(p.goal, p.profile, p.packet, p.ingress_port) for p in warm.packets]
        assert warm_key == cold_key, f"{program.name}: warm packets diverged"
        assert warm.uncovered == cold.uncovered, f"{program.name}: verdicts diverged"
        rows.append(
            (program.name, cold.stats.goals_total, cold.stats.goals_covered,
             cold.stats.solver_queries, warm.stats.solver_queries,
             warm.stats.pool_hits, "yes")
        )
    print_table(
        "Warm-pool identity smoke (all shipped models)",
        ["Model", "Goals", "Covered", "Cold queries", "Warm queries",
         "Pool hits", "Identical"],
        rows,
    )
