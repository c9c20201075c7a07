"""Lexicographically minimal models, independent of solver history.

Canonical witness extraction is the property that makes deep solver
rewrites safe in this repo: a verdict's artifact is a pure function of
the formula, never of pool warmth or kernel heuristics.  This module
holds the minimization core that the analysis layer
(:mod:`repro.analysis.witness`), the fuzzer's constraint-model sampling
and packet generation's last-resort descent share.

``minimal_assignment`` pins variables in sorted-name order, minimizing
each given the pins before it; ``descend_bits`` is the greedy MSB-first
prefer-the-background descent used per variable, here with a zero
background and by packet generation with realistic field values.
Everything flows through ``Solver.check(*assumptions)``, so pooled warm
solvers are safe.

Caveat for callers: the concrete fast path compiles only the
*assumptions*, so any constraint that lives in the solver's permanent
assertions but matters for minimality must also be passed as an
assumption — otherwise a variable it constrains can be wrongly accepted
at zero by the evaluator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.smt import terms as T
from repro.smt.compile import compile_term
from repro.smt.solver import Result, Solver


def descend_bits(
    solver: Solver, assumptions: Sequence[T.Term], term: T.Term, background: int = 0
) -> Tuple[int, int]:
    """``(value, solver checks spent)`` for bitvector variable ``term``: the
    value a greedy MSB-first walk would produce — at each position prefer
    the ``background`` bit, flip only when the preferred bit is
    unsatisfiable given the bits fixed so far.  With a zero background the
    greedy walk *is* unsigned minimization; either way the result is
    unique, hence independent of solver history.

    Computed segment-wise instead of bit-wise: first try the whole
    remaining suffix of background bits in one check; on failure,
    binary-search the longest satisfiable preferred prefix (prefix
    satisfiability is monotone), after which the next bit's flip is
    forced — every model of the pinned prefix already has it flipped, so
    no check is needed.  O(flips · log width) solver checks instead of
    O(width), same value bit for bit.

    Precondition: the caller established that ``assumptions`` are
    satisfiable and that the full background value is not (it was a
    rejected candidate), so the first iteration skips the whole-suffix
    check."""
    value = 0
    checks = 0
    pins: List[T.Term] = []
    full_suffix_known_unsat = True

    def preferred_pins(msb: int, count: int) -> List[T.Term]:
        return [
            T.extract(term, b, b).eq(T.bv_const((background >> b) & 1, 1))
            for b in range(msb, msb - count, -1)
        ]

    def sat_with(extra: List[T.Term]) -> bool:
        nonlocal checks
        checks += 1
        return solver.check(*assumptions, *pins, *extra) is Result.SAT

    # A completion consistent with the assumptions (one guaranteed-SAT
    # check).  Its bits are SAT *witnesses*: wherever the completion
    # already agrees with the background, the corresponding preferred-run
    # check is known SAT without asking the solver.  It never decides a
    # value — the greedy preferred-first choice is unchanged — so the
    # result stays solver-history-independent.
    sat_with([])
    comp = solver.model([term.name])[term.name]

    def agreement(msb: int, limit: int) -> int:
        run = 0
        while run < limit and (
            ((comp >> (msb - run)) & 1) == ((background >> (msb - run)) & 1)
        ):
            run += 1
        return run

    bit = term.width - 1
    while bit >= 0:
        remaining = bit + 1
        agree = agreement(bit, remaining)
        if not full_suffix_known_unsat and (
            agree == remaining or sat_with(preferred_pins(bit, remaining))
        ):
            value |= background & ((1 << remaining) - 1)
            break
        full_suffix_known_unsat = False
        # Longest satisfiable run of preferred bits below `bit`: lo is
        # known-SAT (the completion witnesses `agree`), hi known-UNSAT.
        lo, hi = agree, remaining
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if sat_with(preferred_pins(bit, mid)):
                comp = solver.model([term.name])[term.name]
                # The fresh completion satisfies the mid-run and may
                # agree further down — extend lo for free.
                lo = max(mid, agreement(bit, remaining - 1))
            else:
                hi = mid
        if lo:
            pins.extend(preferred_pins(bit, lo))
            run = (background >> (bit - lo + 1)) & ((1 << lo) - 1)
            value |= run << (bit - lo + 1)
            bit -= lo
        flipped = 1 - ((background >> bit) & 1)
        pins.append(T.extract(term, bit, bit).eq(T.bv_const(flipped, 1)))
        value |= flipped << bit
        bit -= 1
    return value, checks


def minimal_assignment(
    solver: Solver,
    assumptions: Sequence[T.Term],
    variables: Dict[str, T.Term],
) -> Optional[Dict[str, int]]:
    """The lexicographically minimal model of ``assumptions`` over
    ``variables`` (name -> bitvector term), pinning variables in sorted
    name order and minimizing each given the pins before it.

    Returns ``None`` when the assumption set is unsatisfiable.  All
    queries flow through ``Solver.check(*assumptions)``, so pooled warm
    solvers are safe and the result is history-independent.
    """
    if solver.check(*assumptions) is not Result.SAT:
        return None
    formula = T.and_(*assumptions) if assumptions else T.TRUE
    compiled = compile_term(formula)
    # One valid completion seeds the concrete fast path: if the current
    # model already has a variable at zero (or at the candidate minimum),
    # no solver query is needed to accept it.
    model = dict(solver.model(compiled.variables))
    out: Dict[str, int] = {}
    pins: List[T.Term] = []
    for name in sorted(variables):
        term = variables[name]
        if name not in compiled.variables:
            out[name] = 0  # unconstrained: minimum is trivially zero
            continue
        is_bool = isinstance(term.sort, T.BoolSort)
        zero_pin = T.not_(term) if is_bool else term.eq(T.bv_const(0, term.width))
        chosen: Optional[int] = None
        # {**model, **out} is a known model of assumptions ∧ pins (out
        # overrides keep it aligned with every pin accepted so far), so a
        # true evaluation here is a proof — no solver query needed.
        if compiled.evaluate({**model, **out, name: 0}):
            chosen = 0
        elif solver.check(*assumptions, *pins, zero_pin) is Result.SAT:
            chosen = 0
            model = dict(solver.model(compiled.variables))
        if chosen is None:
            # For booleans, zero (false) is unsat, so true is forced.
            chosen = (
                1
                if is_bool
                else descend_bits(solver, [*assumptions, *pins], term)[0]
            )
            pin = term if is_bool else term.eq(T.bv_const(chosen, term.width))
            solver.check(*assumptions, *pins, pin)
            model = dict(solver.model(compiled.variables))
        out[name] = chosen
        pins.append(
            zero_pin
            if chosen == 0
            else (term if is_bool else term.eq(T.bv_const(chosen, term.width)))
        )
    return out
