"""Deterministic effort gate for the model lints (call counts, no clocks).

One lint pass is what ``python -m repro.analysis --witnesses`` and
``--contract`` do over the shipped models: ``analyze_program(p,
witnesses=True)`` for toy, ToR, WAN and Cerberus, then
``analyze_contract`` over the three role programs.  Its SAT effort is
summed over every ``Solver`` the pass constructs.
"""

from repro.analysis import analyze_contract, analyze_program
from repro.p4.programs import (
    build_cerberus_program,
    build_tor_program,
    build_toy_program,
    build_wan_program,
)
from repro.smt import Solver

# Measured with the analysis solvers kept in a process-wide pool, on a
# cold pool (PYTHONHASHSEED 1 and 13): 52,790 propagations in 68 checks.
# A second pass on the warm pool cost 140,394 propagations.
COLD_PROPAGATIONS = 52_790
COLD_CHECKS = 68


def _lint_effort(monkeypatch):
    """(propagations, checks) of one lint pass, over every solver it built."""
    built, checks = [], []
    init, check = Solver.__init__, Solver.check

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def counting_check(self, *assumptions):
        checks.append(None)
        return check(self, *assumptions)

    monkeypatch.setattr(Solver, "__init__", counting_init)
    monkeypatch.setattr(Solver, "check", counting_check)
    programs = [
        build()
        for build in (build_toy_program, build_tor_program, build_wan_program,
                      build_cerberus_program)
    ]
    for program in programs:
        assert not analyze_program(program, witnesses=True).diagnostics
    assert not analyze_contract(programs[1:]).diagnostics
    monkeypatch.undo()
    return sum(s.stats["propagations"] for s in built), len(checks)


def test_a_repeated_lint_costs_what_the_first_did(monkeypatch):
    first = _lint_effort(monkeypatch)
    propagations, checks = first
    assert propagations <= COLD_PROPAGATIONS
    assert checks <= COLD_CHECKS
    # No solver outlives its run, so nothing the first pass encoded or
    # learned is carried into (and re-propagated by) the second.
    assert _lint_effort(monkeypatch) == first
