"""A CDCL SAT solver.

Implements the standard modern architecture:

* two-watched-literal unit propagation with *blocking literals* — watch
  lists hold ``(clause_idx, blocker)`` pairs, so a watched clause whose
  cached blocker is already satisfied is skipped without touching clause
  storage at all,
* dedicated binary-clause implication lists: two-literal clauses never
  enter the clause database; falsifying one side walks a flat list of
  implied literals (reasons are encoded as tagged integers, not clause
  indices),
* first-UIP conflict analysis with clause learning, non-chronological
  backjumping, and on-the-fly learned-clause minimization (a learned
  literal whose reason clause is already subsumed by the rest of the
  learned clause is dropped — self-subsumption against reason clauses),
* glucose-style clause retention: every learned clause records its LBD
  ("glue" — the number of distinct decision levels among its literals);
  database reduction removes the highest-LBD half, always keeping glue
  clauses (LBD <= 2), with a geometric growth schedule on the trigger,
* VSIDS-style activity-based decision heuristic with exponential decay,
* Luby-sequence restarts and phase saving,
* solving under *assumptions*, which lets the bit-blaster encode a formula
  once and answer many coverage queries (p4-symbolic poses one query per
  table entry / branch) without re-encoding,
* a trail that survives between ``solve()`` calls (below).

Assumption levels.  Assumptions are applied as pseudo-decisions, one level
each, in list order: level ``i <= len(assumptions)`` is the pseudo-decision
for ``assumptions[i - 1]`` (an empty level if that literal was already
true).  A ``solve()`` does not start from the root: it keeps the levels
whose pseudo-decisions are the longest common prefix of the previous
assumption list and the new one — equal literals at equal positions — and
cancels only what lies above them, so the queries of one cascade propagate
only their new literals.  A restart returns to the assumption level, the
failed-assumption exit leaves the levels it reached, and ``add_clause``
always returns to the root first, so clause simplification only ever sees
root facts.  Nothing a caller can observe depends on any of this: verdicts
are semantic, and proof ``"l"``/``"u"`` lines mean what they meant (a
learned clause carries the negation of every pseudo-decision it used).

This is the only SAT kernel in the repo.  Its UNSAT answers are checkable
by something simpler than itself: a log collected through
:attr:`SatSolver.proof` is replayed by ``tests/rup.py`` using unit
propagation alone (see DESIGN.md, "How an UNSAT is certified").

Literal encoding: variable ``v`` (1-based) has positive literal ``2*v`` and
negative literal ``2*v + 1``; ``lit ^ 1`` negates.

Reason encoding: ``-1`` means "decision or root fact"; a value ``>= 0`` is
an index into the clause database; a value ``<= -2`` is a *binary reason
tag* ``-2 - partner_lit``, naming the (false) partner literal of the binary
clause that propagated the assignment.  Tags keep binary propagation free
of clause storage entirely.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

TRUE = 1
FALSE = 0
UNASSIGNED = -1


def var_of(lit: int) -> int:
    return lit >> 1


def pos_lit(var: int) -> int:
    return var << 1


def neg_lit(var: int) -> int:
    return (var << 1) | 1


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    The sequence is 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
    """
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    while i != (1 << k) - 1:
        # Recurse into the prefix block: i <- i - (2^(k-1) - 1).
        i -= (1 << (k - 1)) - 1
        k = 1
        while (1 << k) - 1 < i:
            k += 1
    return 1 << (k - 1)


class SatSolver:
    """CDCL SAT solver over integer-encoded literals."""

    def __init__(self) -> None:
        self._num_vars = 0
        # Clause storage holds only clauses of length >= 3.  Problem and
        # learned clauses interleave freely (incremental solving adds
        # problem clauses between solves, after clauses were learned), so
        # a parallel `_learned` flag — not a positional prefix — decides
        # what database reduction may delete.
        self._clauses: List[List[int]] = []
        self._learned: List[bool] = []
        self._clause_activity: List[float] = []
        self._clause_lbd: List[int] = []
        self._num_problem_clauses = 0  # long problem clauses (informational)
        # lit -> [(clause_idx, blocker), ...]: the clause is only fetched
        # when the blocker (some other literal of the clause) isn't
        # already satisfied.
        self._watches: List[List[Tuple[int, int]]] = [[], []]
        # lit -> implied literals: for every binary clause (l v o), o is in
        # _bin_occurs[l] and l is in _bin_occurs[o].  Falsifying l implies
        # every o with reason tag -2 - l.
        self._bin_occurs: List[List[int]] = [[], []]
        self._assign: List[int] = [UNASSIGNED]  # var -> TRUE/FALSE/UNASSIGNED
        self._level: List[int] = [0]
        self._reason: List[int] = [-1]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._prop_head = 0
        self._activity: List[float] = [0.0]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        # VSIDS order: a max-heap (negated activities) with lazy deletion.
        # Stale entries (outdated activity or already-assigned vars) are
        # skipped at pop time; _in_heap suppresses duplicate pushes.
        self._order_heap: List[tuple] = []
        self._in_heap: List[bool] = [False]
        self._polarity: List[bool] = [False]  # phase saving
        self._ok = True
        # Database-reduction schedule: reduce when the count of deletable
        # (long, learned) clauses reaches the cap; the cap then grows
        # geometrically so a long-lived pooled solver keeps more of the
        # clauses it spent conflicts learning.
        self._reduce_cap = 2000.0
        self._reduce_cap_mult = 1.5
        self._learned_count = 0
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.db_reductions = 0
        self.minimized_literals = 0
        # Clauses offered by the encoder (before root simplification) —
        # the clause-economy number benchmark tables compare.
        self.clauses_received = 0
        # After an UNSAT answer reached through an assumption: the one
        # assumption literal that was found false at its turn (the clauses
        # and the assumptions before it imply its negation) — a witness,
        # not a minimised core.  Empty when the clauses alone are UNSAT.
        self.failed_assumptions: List[int] = []
        # The previous solve()'s assumptions: levels 1..len(_assumed) of
        # whatever trail is left are their pseudo-decisions, in order.
        self._assumed: List[int] = []
        # The next search's preferred literals (see solve()).
        self._phases: Sequence[int] = ()
        # Test-facing proof sink: an attached list receives, in order,
        # ("a", lits) for every clause offered to add_clause, ("l", lits)
        # for every learned clause after minimisation (units and binaries
        # too) and ("u", assumptions) for every solve() returning False.
        # Deletions are not logged; a forward checker does not need them.
        self.proof: Optional[List[Tuple[str, Tuple[int, ...]]]] = None

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable; returns its index (1-based)."""
        self._num_vars += 1
        self._assign.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(-1)
        self._activity.append(0.0)
        self._polarity.append(False)
        self._watches.append([])
        self._watches.append([])
        self._bin_occurs.append([])
        self._bin_occurs.append([])
        self._in_heap.append(True)
        heapq.heappush(self._order_heap, (0.0, self._num_vars))
        return self._num_vars

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a problem clause. Returns False if the formula became UNSAT.

        Call it before or between solves; it returns to decision level 0
        itself, giving up whatever the last solve() left on the trail.
        """
        if self.proof is not None:
            self.proof.append(("a", tuple(lits)))
        if not self._ok:
            return False
        self.clauses_received += 1
        # A previous solve() leaves its assignment on the trail; clause
        # addition reasons about root-level state only.
        if self._trail_lim:
            self._cancel_until(0)
        # Simplify: drop duplicate and false literals, detect tautologies.
        seen: Dict[int, bool] = {}
        out: List[int] = []
        for lit in lits:
            if lit in seen:
                continue
            if (lit ^ 1) in seen:
                return True  # tautology
            val = self._lit_value(lit)
            if val == TRUE and self._level[var_of(lit)] == 0:
                return True  # already satisfied at the root
            if val == FALSE and self._level[var_of(lit)] == 0:
                continue  # permanently false literal
            seen[lit] = True
            out.append(lit)
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], -1):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True
        if len(out) == 2:
            # Binary clauses live in the implication lists, never in the
            # clause database (and are therefore never deleted).
            self._bin_occurs[out[0]].append(out[1])
            self._bin_occurs[out[1]].append(out[0])
            return True
        idx = len(self._clauses)
        self._clauses.append(out)
        self._learned.append(False)
        self._clause_activity.append(0.0)
        self._clause_lbd.append(0)
        self._watches[out[0]].append((idx, out[1]))
        self._watches[out[1]].append((idx, out[0]))
        self._num_problem_clauses += 1
        return True

    # ------------------------------------------------------------------
    # Assignment plumbing
    # ------------------------------------------------------------------
    def _lit_value(self, lit: int) -> int:
        val = self._assign[var_of(lit)]
        if val == UNASSIGNED:
            return UNASSIGNED
        return val ^ (lit & 1)

    def _enqueue(self, lit: int, reason: int) -> bool:
        val = self._lit_value(lit)
        if val == FALSE:
            return False
        if val == TRUE:
            return True
        var = var_of(lit)
        self._assign[var] = TRUE if not (lit & 1) else FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[Tuple[Sequence[int], int]]:
        """Unit propagation. Returns ``(conflict_lits, clause_idx)`` or None.

        ``clause_idx`` is ``-1`` for a conflict in a binary clause (there is
        no database entry to bump).  This is the solver's hot loop; locals
        are cached and literal values are computed inline
        (``assign[var] ^ (lit & 1)`` with the UNASSIGNED sentinel checked
        explicitly) to keep the Python overhead down.
        """
        assign = self._assign
        watches = self._watches
        bin_occurs = self._bin_occurs
        clauses = self._clauses
        trail = self._trail
        level = self._level
        reason = self._reason
        trail_lim_len = len(self._trail_lim)
        while self._prop_head < len(trail):
            lit = trail[self._prop_head]
            self._prop_head += 1
            self.propagations += 1
            falsified = lit ^ 1
            # Binary implications first: a flat list of implied literals,
            # no clause storage touched, reasons are tagged integers.
            for other in bin_occurs[falsified]:
                oval = assign[other >> 1]
                if oval == UNASSIGNED:
                    var = other >> 1
                    assign[var] = TRUE if not (other & 1) else FALSE
                    level[var] = trail_lim_len
                    reason[var] = -2 - falsified
                    trail.append(other)
                elif (oval ^ (other & 1)) == FALSE:
                    self._prop_head = len(trail)
                    return (other, falsified), -1
            watch_list = watches[falsified]
            i = 0
            while i < len(watch_list):
                cidx, blocker = watch_list[i]
                bval = assign[blocker >> 1]
                if bval != UNASSIGNED and (bval ^ (blocker & 1)) == TRUE:
                    # Blocking literal satisfied: clause satisfied, clause
                    # storage never fetched.
                    i += 1
                    continue
                clause = clauses[cidx]
                # Normalise: watched literals are clause[0] and clause[1].
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                # clause[1] == falsified now.
                first = clause[0]
                fval = assign[first >> 1]
                if (
                    first != blocker
                    and fval != UNASSIGNED
                    and (fval ^ (first & 1)) == TRUE
                ):
                    # Satisfied by the other watch: remember it as the
                    # blocker for next time.
                    watch_list[i] = (cidx, first)
                    i += 1
                    continue
                # Search for a new literal to watch.
                moved = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    oval = assign[other >> 1]
                    if oval == UNASSIGNED or (oval ^ (other & 1)) != FALSE:
                        clause[1] = other
                        clause[k] = falsified
                        watches[other].append((cidx, first))
                        watch_list[i] = watch_list[-1]
                        watch_list.pop()
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit or conflicting.
                if fval != UNASSIGNED:  # and first is FALSE here
                    self._prop_head = len(trail)
                    return clause, cidx
                # Inlined _enqueue of an unassigned literal.
                var = first >> 1
                assign[var] = TRUE if not (first & 1) else FALSE
                level[var] = trail_lim_len
                reason[var] = cidx
                trail.append(first)
                i += 1
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: Tuple[Sequence[int], int]) -> tuple[List[int], int, int]:
        """First-UIP analysis. Returns (learned_clause, backjump_level, lbd).

        The learned clause is minimized on the fly: a literal whose reason
        clause's other literals are all already in the learned clause (or
        root facts) is redundant — resolving it against its reason would
        self-subsume — and is dropped.
        """
        learned: List[int] = [0]  # placeholder for asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = -1
        lits, cidx = conflict
        index = len(self._trail) - 1
        cur_level = len(self._trail_lim)
        levels = self._level

        while True:
            if cidx >= 0:
                self._bump_clause(cidx)
            resolved_var = lit >> 1 if lit != -1 else 0
            for q in lits:
                v = q >> 1
                if v == resolved_var:
                    continue
                if not seen[v] and levels[v] > 0:
                    seen[v] = True
                    self._bump_var(v)
                    if levels[v] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Pick the next literal on the trail to resolve on.
            while not seen[self._trail[index] >> 1]:
                index -= 1
            lit = self._trail[index]
            v = lit >> 1
            seen[v] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            r = self._reason[v]
            if r >= 0:
                cidx = r
                lits = self._clauses[r]
            else:
                cidx = -1
                lits = (lit, -2 - r)
        learned[0] = lit ^ 1

        # On-the-fly minimization.  seen[] is True exactly for the vars of
        # learned[1:] here (their flags were set during resolution and, at
        # lower levels than the conflict, never consumed as pivots).  A
        # removed literal keeps its flag: reason literals strictly precede
        # their consequence on the trail, so redundancy chains stay
        # well-founded in any processing order.
        if len(learned) > 2:
            kept = [learned[0]]
            reasons = self._reason
            clauses = self._clauses
            for q in learned[1:]:
                v = q >> 1
                r = reasons[v]
                if r == -1:
                    kept.append(q)
                    continue
                rlits = clauses[r] if r >= 0 else (-2 - r,)
                redundant = True
                for u in rlits:
                    uv = u >> 1
                    if uv != v and not seen[uv] and levels[uv] > 0:
                        redundant = False
                        break
                if redundant:
                    self.minimized_literals += 1
                else:
                    kept.append(q)
            learned = kept

        backjump = 0
        if len(learned) > 1:
            max_i = 1
            for i in range(2, len(learned)):
                if levels[learned[i] >> 1] > levels[learned[max_i] >> 1]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backjump = levels[learned[1] >> 1]
        # LBD (glue): distinct decision levels among the learned literals,
        # computed before backjumping invalidates the level array entries.
        lbd = len({levels[q >> 1] for q in learned})
        return learned, backjump, lbd

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            # All heap entries are now stale; rebuild.
            self._order_heap = [
                (-self._activity[v], v)
                for v in range(1, self._num_vars + 1)
                if self._assign[v] == UNASSIGNED
            ]
            heapq.heapify(self._order_heap)
            for v in range(1, self._num_vars + 1):
                self._in_heap[v] = self._assign[v] == UNASSIGNED
            return
        if not self._in_heap[var]:
            self._in_heap[var] = True
            heapq.heappush(self._order_heap, (-self._activity[var], var))

    def _bump_clause(self, cidx: int) -> None:
        self._clause_activity[cidx] += self._cla_inc
        if self._clause_activity[cidx] > 1e20:
            for i in range(len(self._clause_activity)):
                self._clause_activity[i] *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        for i in range(len(self._trail) - 1, bound - 1, -1):
            lit = self._trail[i]
            var = var_of(lit)
            self._polarity[var] = not (lit & 1)
            self._assign[var] = UNASSIGNED
            self._reason[var] = -1
            if not self._in_heap[var]:
                self._in_heap[var] = True
                heapq.heappush(self._order_heap, (-self._activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._prop_head = len(self._trail)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> int:
        # Lazy deletion: entries for assigned vars are skipped; every var
        # re-enters the heap when unassigned (see _cancel_until), so the
        # heap always contains every unassigned var at least once.
        while self._order_heap:
            _neg_activity, var = heapq.heappop(self._order_heap)
            self._in_heap[var] = False
            if self._assign[var] == UNASSIGNED:
                return var
        return 0

    # ------------------------------------------------------------------
    # Learned clause DB reduction (glucose-style)
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        if self._learned_count < self._reduce_cap:
            return
        clauses = self._clauses
        learned = self._learned
        activity = self._clause_activity
        lbd = self._clause_lbd
        learned_idx = [i for i in range(len(clauses)) if learned[i]]
        # Worst first: highest LBD, ties broken by lowest activity.  Glue
        # clauses (LBD <= 2) and clauses locked as reasons survive.
        learned_idx.sort(key=lambda i: (-lbd[i], activity[i]))
        locked = {self._reason[lit >> 1] for lit in self._trail}
        budget = len(learned_idx) // 2
        to_remove = set()
        for i in learned_idx:
            if len(to_remove) >= budget:
                break
            if i in locked or lbd[i] <= 2:
                continue
            to_remove.add(i)
        # Geometric schedule: the cap grows by a constant factor on every
        # reduction, so long-lived (pooled) solvers retain progressively
        # more of what they learned.
        self._reduce_cap *= self._reduce_cap_mult
        self.db_reductions += 1
        if not to_remove:
            return
        # Compact the database.  Problem and learned clauses interleave
        # (incremental adds land after learned clauses), so every clause
        # past the first removed index may relocate; watch entries and
        # reasons are rewritten through the remap.
        remap: Dict[int, int] = {}
        dirty = set()
        write = 0
        for read in range(len(clauses)):
            if read in to_remove:
                c = clauses[read]
                dirty.add(c[0])
                dirty.add(c[1])
                continue
            if read != write:
                remap[read] = write
                c = clauses[read]
                dirty.add(c[0])
                dirty.add(c[1])
            write += 1
        for read in sorted(remap):
            dst = remap[read]
            clauses[dst] = clauses[read]
            activity[dst] = activity[read]
            lbd[dst] = lbd[read]
            learned[dst] = learned[read]
        del clauses[write:]
        del activity[write:]
        del lbd[write:]
        del learned[write:]
        self._learned_count -= len(to_remove)
        for lit in dirty:
            self._watches[lit] = [
                (remap.get(i, i), b)
                for (i, b) in self._watches[lit]
                if i not in to_remove
            ]
        # Reasons only exist for assigned vars, i.e. vars on the trail, and
        # a removed clause is never locked as a reason.
        for lit in self._trail:
            var = lit >> 1
            r = self._reason[var]
            if r >= 0:
                self._reason[var] = remap.get(r, r)

    # ------------------------------------------------------------------
    # Main solve loop
    # ------------------------------------------------------------------
    def solve(self, assumptions: Iterable[int] = (), phases: Sequence[int] = ()) -> bool:
        """Solve the formula under ``assumptions`` (a list of literals).

        Returns True (SAT — read the model via :meth:`model_value`) or
        False (UNSAT under these assumptions; ``failed_assumptions`` then
        holds the single assumption literal whose negation the clauses and
        the assumptions listed before it imply, or nothing when no
        assumption was involved).  List what successive calls share first:
        the common prefix of two lists is not propagated again.  Each of
        ``phases`` becomes its variable's saved phase, so a decision on it
        tries that literal first; the verdict does not depend on them.
        """
        assumptions = list(assumptions)
        self._phases = phases
        sat = self._search(assumptions)
        if not sat and self.proof is not None:
            self.proof.append(("u", tuple(assumptions)))
        return sat

    def _search(self, assumptions: List[int]) -> bool:
        self.failed_assumptions = []
        if not self._ok:
            return False
        # Keep the levels this query shares with the previous one (see the
        # module docstring); add_clause left none if the clauses changed.
        keep = 0
        limit = min(len(self._trail_lim), len(assumptions), len(self._assumed))
        while keep < limit and self._assumed[keep] == assumptions[keep]:
            keep += 1
        self._cancel_until(keep)
        self._assumed = assumptions
        for lit in self._phases:  # after the backtrack, whose phase saving overwrites
            self._polarity[lit >> 1] = not (lit & 1)

        restart_count = 0
        conflict_budget = 100 * _luby(restart_count + 1)
        conflicts_here = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if len(self._trail_lim) == 0:
                    self._ok = False
                    return False
                learned, backjump, lbd = self._analyze(conflict)
                if self.proof is not None:
                    self.proof.append(("l", tuple(learned)))
                self._cancel_until(max(backjump, 0))
                if len(learned) == 1:
                    if not self._enqueue(learned[0], -1):
                        self._ok = False
                        return False
                elif len(learned) == 2:
                    # Learned binaries join the implication lists (never
                    # deleted); the asserting literal's reason is the tag
                    # naming its false partner.
                    a, b = learned
                    self._bin_occurs[a].append(b)
                    self._bin_occurs[b].append(a)
                    self._enqueue(a, -2 - b)
                else:
                    idx = len(self._clauses)
                    self._clauses.append(learned)
                    self._learned.append(True)
                    self._clause_activity.append(self._cla_inc)
                    self._clause_lbd.append(lbd)
                    self._watches[learned[0]].append((idx, learned[1]))
                    self._watches[learned[1]].append((idx, learned[0]))
                    self._learned_count += 1
                    self._enqueue(learned[0], idx)
                self._decay_activities()
            else:
                if conflicts_here >= conflict_budget:
                    # Restart: back to the assumption level.
                    self.restarts += 1
                    restart_count += 1
                    conflict_budget = 100 * _luby(restart_count + 1)
                    conflicts_here = 0
                    self._cancel_until(len(assumptions))
                    self._reduce_db()
                    continue
                # Apply pending assumptions as pseudo-decisions.
                next_lit = 0
                depth = len(self._trail_lim)
                if depth < len(assumptions):
                    lit = assumptions[depth]
                    val = self._lit_value(lit)
                    if val == TRUE:
                        # Already satisfied; open an empty decision level so
                        # the depth bookkeeping still advances.
                        self._trail_lim.append(len(self._trail))
                        continue
                    if val == FALSE:
                        # The formula (plus earlier assumptions) propagated
                        # the negation of this assumption: UNSAT under the
                        # assumption set.
                        self.failed_assumptions = [lit]
                        return False
                    next_lit = lit
                else:
                    var = self._pick_branch_var()
                    if var == 0:
                        # All variables assigned: SAT.  Save the full model
                        # as the preferred phases before returning, so the
                        # next query in an assumption cascade (which differs
                        # by one or two assumption literals) starts its
                        # decisions from this satisfying assignment instead
                        # of re-deriving it — including the level-0 literals
                        # that backtracking-time phase saving never touches.
                        polarity = self._polarity
                        for lit in self._trail:
                            polarity[lit >> 1] = not (lit & 1)
                        return True
                    self.decisions += 1
                    next_lit = pos_lit(var) if self._polarity[var] else neg_lit(var)
                self._trail_lim.append(len(self._trail))
                self._enqueue(next_lit, -1)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def model_value(self, var: int) -> bool:
        """Value of ``var`` in the satisfying assignment (False if unset)."""
        return self._assign[var] == TRUE
