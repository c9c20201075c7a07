"""Tables applied under a dead context are skipped, not walked.

When the context of a table application is ``FALSE`` (a table behind a
branch the parser profile cannot take, an egress table after a certain
drop), every entry and miss guard folds to ``FALSE`` and every ``ite`` write
to the old value.  :class:`repro.symbolic.executor.SymbolicExecutor` then
records the application's trace keys as ``FALSE`` and returns, without
building a single match condition.  ``tests/full_chain_executor.py`` walks
those applications in full; on the four shipped models both must give the
same trace keys in the same order, ``FALSE`` wherever the full chain folds
a guard to ``FALSE``, and the same Boolean function for every guard.
"""

import collections

import pytest

from repro.p4.p4info import build_p4info
from repro.p4.programs import (
    build_cerberus_program,
    build_tor_program,
    build_toy_program,
    build_wan_program,
)
from repro.smt import terms as T
from repro.symbolic import SymbolicExecutor
from repro.workloads import production_like_entries

from tests.full_chain_executor import FullChainExecutor
from tests.test_guard_pruning import sat_mismatches, toy_entries
from tests.test_symbolic import decode_state


def _counting(monkeypatch, calls):
    real_apply, real_match = SymbolicExecutor._apply_table, SymbolicExecutor._match_condition

    def apply_table(self, table, state, profile, context, trace):
        calls["dead" if context is T.FALSE else "live"] += 1
        return real_apply(self, table, state, profile, context, trace)

    def match_condition(self, *args):
        calls["match_condition"] += 1
        return real_match(self, *args)

    monkeypatch.setattr(SymbolicExecutor, "_apply_table", apply_table)
    monkeypatch.setattr(SymbolicExecutor, "_match_condition", match_condition)


# Smaller states than test_guard_pruning's: which applications are dead
# depends on the program and the profile, not on the number of entries.
@pytest.mark.parametrize(
    "build, entries",
    [
        (build_toy_program, toy_entries),
        (build_tor_program, lambda p4info: production_like_entries(p4info, total=60, seed=1)),
        (build_wan_program, lambda p4info: production_like_entries(p4info, total=60, seed=1)),
        (build_cerberus_program, lambda p4info: production_like_entries(p4info, total=20, seed=1)),
    ],
    ids=["toy", "tor", "wan", "cerberus"],
)
def test_dead_applications_keep_every_trace(build, entries, monkeypatch):
    program = build()
    p4info = build_p4info(program)
    state = decode_state(p4info, entries(p4info))
    assert sat_mismatches(program, state) == []
    spec = {e.profile.name: e.trace for e in FullChainExecutor(program, state).execute()}
    calls = collections.Counter()
    _counting(monkeypatch, calls)
    for execution in SymbolicExecutor(program, state).execute():
        trace = execution.trace
        assert list(trace) == list(spec[execution.profile.name])
        dead = [k for k, guard in spec[execution.profile.name].items() if guard is T.FALSE]
        assert all(trace[k] is T.FALSE for k in dead)
    if program.name != "toy_router":
        assert calls["dead"] > 0


def test_dead_applications_build_no_match_conditions(monkeypatch):
    """The ToR-150 cold state: 40 of the 108 table applications over the
    profiles are dead, and skipping them halves the match conditions built
    (1,350 when every application was walked)."""
    program = build_tor_program()
    p4info = build_p4info(program)
    state = decode_state(p4info, production_like_entries(p4info, total=150, seed=1))
    calls = collections.Counter()
    _counting(monkeypatch, calls)
    SymbolicExecutor(program, state).execute()
    assert (calls["live"], calls["dead"], calls["match_condition"]) == (68, 40, 685)
