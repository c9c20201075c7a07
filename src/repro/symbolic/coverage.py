"""Coverage goals (§5 "Coverage Constraints").

p4-symbolic poses one SMT query per goal.  Entry coverage ("hit every
reachable table entry at least once" — what the paper runs nightly and
benchmarks in Table 3) yields |entries| + |tables| goals; branch coverage
adds every `if` direction; trace coverage over *all* combinations is
combinatoric and impractical, so — like the paper — we expose the trace to
test engineers and let them assert selected trace combinations
(:func:`trace_goal`).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.smt import terms as T
from repro.symbolic.executor import ProfileExecution, TraceKey


class CoverageMode(enum.Enum):
    ENTRY = "entry"  # every installed entry (+ every table miss)
    BRANCH = "branch"  # entry coverage plus both directions of every if
    CUSTOM = "custom"  # caller-supplied goals only


@dataclass(frozen=True)
class CoverageGoal:
    """One thing a generated packet must witness."""

    name: str
    # Per-profile condition builder: given that profile's execution, return
    # the goal term, or None when the goal is not expressible there.
    condition: Callable[[ProfileExecution], Optional[T.Term]]


def entry_goal_name(table: str, identity: Tuple) -> str:
    """The canonical name of an entry-coverage goal.

    The digest is structural — SHA-256 over the identity's repr (match-key
    names, kinds, values, masks, priority; all primitives with stable
    reprs) — never ``hash()``, which PYTHONHASHSEED randomises per process.
    Goal names key the on-disk per-goal packet cache, so they must be
    identical across runs, restarts, and processes.  Both
    :func:`goals_for_mode` and :func:`entry_goal` build names here so the
    two can't drift.
    """
    digest = hashlib.sha256(repr(identity).encode()).hexdigest()[:8]
    return f"entry:{table}:{digest}"


def _trace_lookup(key: TraceKey) -> Callable[[ProfileExecution], Optional[T.Term]]:
    def build(execution: ProfileExecution) -> Optional[T.Term]:
        term = execution.trace.get(key)
        if term is None or term is T.FALSE:
            return None
        return term

    return build


def goals_for_mode(
    executions: Sequence[ProfileExecution],
    mode: CoverageMode,
    custom: Sequence[CoverageGoal] = (),
) -> List[CoverageGoal]:
    """Materialise the goal list for a coverage mode."""
    if mode is CoverageMode.CUSTOM:
        return list(custom)
    keys: Dict[TraceKey, None] = {}
    for execution in executions:
        for key in execution.trace:
            keys.setdefault(key, None)
    goals: List[CoverageGoal] = []
    for key in keys:
        kind = key[0]
        if kind == "entry":
            _kind, table, identity = key
            goals.append(
                CoverageGoal(name=entry_goal_name(table, identity),
                             condition=_trace_lookup(key))
            )
        elif kind == "miss":
            goals.append(CoverageGoal(name=f"miss:{key[1]}", condition=_trace_lookup(key)))
        elif kind == "branch" and mode is CoverageMode.BRANCH:
            _kind, label, taken = key
            goals.append(
                CoverageGoal(
                    name=f"branch:{label}:{'t' if taken else 'f'}",
                    condition=_trace_lookup(key),
                )
            )
    goals.extend(custom)
    return goals


def entry_goal(table: str, identity: Tuple) -> CoverageGoal:
    """A goal asserting a specific installed entry is hit."""
    return CoverageGoal(
        name=entry_goal_name(table, identity),
        condition=_trace_lookup(("entry", table, identity)),
    )


def trace_goal(name: str, keys: Sequence[TraceKey]) -> CoverageGoal:
    """A selected-trace goal: all the given constructs execute together.

    This is the paper's "practical middle ground between branch and trace
    coverage": engineers pick important trace combinations instead of
    enumerating all of them.
    """

    def build(execution: ProfileExecution) -> Optional[T.Term]:
        terms = []
        for key in keys:
            term = execution.trace.get(key)
            if term is None or term is T.FALSE:
                return None
            terms.append(term)
        return T.and_(*terms)

    return CoverageGoal(name=name, condition=build)


def output_goal(name: str, builder: Callable[[ProfileExecution], Optional[T.Term]]) -> CoverageGoal:
    """A goal over X/Y/T built by the caller (full generality of §5)."""
    return CoverageGoal(name=name, condition=builder)
