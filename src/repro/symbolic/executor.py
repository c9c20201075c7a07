"""The guarded single-pass symbolic executor (§5).

For each parser profile the executor maintains:

* the symbolic state **S** — every field path mapped to an SMT term over
  the input variables **X** (header fields and the ingress port);
* the symbolic trace **T** — every control construct (branch direction,
  table entry, table miss) mapped to the condition under which it executes.

Trace isolation uses guarded commands: side effects of an entry's action
are merged into S via ``ite(guard, new, old)`` where the guard is the
conjunction of the enclosing context, the entry's match condition, and the
negation of every higher-priority entry whose match can overlap it — the
T[i1]/T[i5] construction of the paper's worked example.  Entries whose
constants differ on bits both masks cover (``(v_i ^ v_j) & m_i & m_j != 0``)
are disjoint, so ``match_i`` implies ``not match_j`` and that conjunct adds
nothing — provided every entry matches the key terms read once per table
application, as the interpreter does.

Guards of one table application are therefore pairwise exclusive, so a field
the application wrote with constants (``vrf_id``, ``nexthop_id``, ...) is
compared with a constant by case, not bit by bit: ``(x & m) == c`` is the
disjunction of the guards that wrote a ``v`` with ``(v & m) == c`` and of
``no writer fired ∧ (x_before & m) == c`` (dropped when ``x_before`` is a
constant that does not match).  ``S`` keeps the ``ite`` chain.  A field
written under one guard twice, or with a non-constant, is compared by bits.

Hashing is free (§5): each hash use and each action-selector choice
introduces fresh unconstrained variables.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bmv2.entries import DecodedAction, DecodedActionSet, InstalledEntry
from repro.p4.ast import (
    BinOp,
    BoolOp,
    Cmp,
    Const,
    FieldRef,
    HashExpr,
    If,
    IsValid,
    P4Program,
    Param,
    Seq,
    Statement,
    Table,
    TableApply,
)
from repro.smt import terms as T
from repro.symbolic.profiles import ParserProfile, profiles_for_pattern

# A trace key identifies one control-flow construct:
#   ("branch", label, taken)          — an `if` direction
#   ("entry", table_name, identity)   — a specific installed entry matching
#   ("miss", table_name)              — the default action firing
TraceKey = Tuple


@dataclass
class ProfileExecution:
    """The result of symbolically executing one parser profile."""

    profile: ParserProfile
    # Input variables X: field path -> term (vars or pinned constants).
    inputs: Dict[str, T.Term]
    # Output expressions Y: field path -> term over X.
    outputs: Dict[str, T.Term]
    # The symbolic trace T.
    trace: Dict[TraceKey, T.Term]
    # Profile-level path constraints (parser pins/exclusions, port validity).
    constraints: List[T.Term]


class SymbolicExecutionError(RuntimeError):
    pass


class SymbolicExecutor:
    """Executes a program symbolically against a fixed table state."""

    def __init__(
        self,
        program: P4Program,
        state: Mapping[str, Sequence[InstalledEntry]],
        valid_ports: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    ) -> None:
        self.program = program
        self.state = {k: list(v) for k, v in state.items()}
        self.valid_ports = tuple(valid_ports)
        self._fresh_counter = 0
        self._plans: Dict[str, tuple] = {}
        # The running table application's writes, case-split fields, comparisons.
        self._writes: Optional[Dict[str, tuple]] = None
        self._cases: Dict[T.Term, tuple] = {}
        self._equal: Dict[tuple, T.Term] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(self) -> List[ProfileExecution]:
        """Run every parser profile; returns one execution per profile."""
        return [
            self._execute_profile(profile)
            for profile in profiles_for_pattern(self.program.parser.pattern)
        ]

    # ------------------------------------------------------------------
    # Per-profile execution
    # ------------------------------------------------------------------
    def _fresh(self, name: str, width: int) -> T.Term:
        self._fresh_counter += 1
        return T.bv_var(f"{name}#{self._fresh_counter}", width)

    def _execute_profile(self, profile: ParserProfile) -> ProfileExecution:
        state: Dict[str, T.Term] = {}
        inputs: Dict[str, T.Term] = {}
        constraints: List[T.Term] = []
        prefix = profile.name
        pins = profile.pin_map()

        for path in self.program.all_field_paths():
            width = self.program.field_width(path)
            header = path.split(".", 1)[0]
            if header in profile.valid_headers:
                term = (
                    T.bv_const(pins[path], width)
                    if path in pins
                    else T.bv_var(f"{prefix}::{path}", width)
                )
                inputs[path] = term
                state[path] = term
            elif path == "standard.ingress_port":
                term = T.bv_var(f"{prefix}::{path}", width)
                inputs[path] = term
                state[path] = term
                constraints.append(
                    T.or_(*[term.eq(p) for p in self.valid_ports])
                )
            else:
                # Invalid headers and metadata start at zero, matching the
                # concrete interpreter.
                state[path] = T.bv_const(0, width)

        for path, excluded in profile.exclusions:
            term = state[path]
            constraints.extend(term.ne(value) for value in excluded)

        trace: Dict[TraceKey, T.Term] = {}
        self._run_block(self.program.ingress, state, profile, T.TRUE, trace)
        # Egress only executes when the packet was not dropped in ingress.
        not_dropped = state["standard.drop"].eq(T.bv_const(0, 1))
        self._run_block(self.program.egress, state, profile, not_dropped, trace)

        # The smart constructors in repro.smt.terms already fold constants
        # and flatten connectives at construction time; a further global
        # simplification pass costs more than it saves on large states.
        outputs = dict(state)
        return ProfileExecution(
            profile=profile,
            inputs=inputs,
            outputs=outputs,
            trace=trace,
            constraints=constraints,
        )

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def _run_block(
        self,
        block: Seq,
        state: Dict[str, T.Term],
        profile: ParserProfile,
        context: T.Term,
        trace: Dict[TraceKey, T.Term],
    ) -> None:
        for node in block:
            if isinstance(node, TableApply):
                self._apply_table(node.table, state, profile, context, trace)
            elif isinstance(node, If):
                cond = self._eval_bool(node.cond, state, profile)
                label = node.label or repr(node.cond)
                then_ctx = T.and_(context, cond)
                else_ctx = T.and_(context, T.not_(cond))
                trace[("branch", label, True)] = T.or_(
                    trace.get(("branch", label, True), T.FALSE), then_ctx
                )
                trace[("branch", label, False)] = T.or_(
                    trace.get(("branch", label, False), T.FALSE), else_ctx
                )
                self._run_block(node.then_block, state, profile, then_ctx, trace)
                self._run_block(node.else_block, state, profile, else_ctx, trace)
            elif isinstance(node, Statement):
                self._assign(node, state, profile, context, params={})
            else:  # pragma: no cover - defensive
                raise SymbolicExecutionError(f"unknown control node {node!r}")

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def _table_plan(self, table: Table) -> tuple:
        """Entries in descending match priority (numeric for ternary tables,
        prefix length for LPM), their ``(value, mask)`` cubes and each one's
        overlapping higher-priority entries: once per table and executor."""
        plan = self._plans.get(table.name)
        if plan is None:
            entries = list(self.state.get(table.name, ()))
            if table.requires_priority:
                entries.sort(key=lambda e: -e.priority)
            elif table.lpm_key_name is not None:
                entries.sort(key=lambda e: -_prefix_len(e.match(table.lpm_key_name)))
            fulls = [(1 << self.program.field_width(k.field.path)) - 1 for k in table.keys]
            cubes = [
                tuple(_cube(e.match(k.key_name), f) for k, f in zip(table.keys, fulls, strict=True))
                for e in entries
            ]
            plan = self._plans[table.name] = (entries, cubes, _overlaps(cubes, fulls))
        return plan

    def _match_condition(self, keys: Sequence[T.Term], cube: Tuple[Tuple[int, int], ...]) -> T.Term:
        return T.and_(*[self._equals(k, m, v) for k, (v, m) in zip(keys, cube, strict=True) if m])

    def _equals(self, term: T.Term, mask: int, value: int) -> T.Term:
        """``(term & mask) == value``; by case on a table-written field."""
        key = (term, mask, value)
        if key not in self._equal:
            case = self._cases.get(term)
            if case is None:
                full = mask == (1 << term.width) - 1
                masked = term if full else term & T.bv_const(mask, term.width)
                self._equal[key] = masked.eq(T.bv_const(value, term.width))
            else:
                before, writes, none_fired = case
                hits = [guard for guard, v in writes if v.value & mask == value]
                if before.is_const:
                    rest = T.bool_const(before.value & mask == value)
                else:
                    rest = self._equals(before, mask, value)
                self._equal[key] = T.or_(*hits, T.and_(none_fired, rest))
        return self._equal[key]

    def _apply_table(
        self,
        table: Table,
        state: Dict[str, T.Term],
        profile: ParserProfile,
        context: T.Term,
        trace: Dict[TraceKey, T.Term],
    ) -> None:
        entries, cubes, overlaps = self._table_plan(table)
        if context is T.FALSE:
            # A dead application: every guard folds to FALSE and every write
            # to the old value, so only its trace keys are left to record.
            for entry in entries:
                trace.setdefault(("entry", table.name, entry.identity()), T.FALSE)
            trace.setdefault(("miss", table.name), T.FALSE)
            return
        # Each key is read once, before any entry's action writes the state.
        keys = [state[k.field.path] for k in table.keys]
        matches = [self._match_condition(keys, cube) for cube in cubes]
        negations = [T.not_(match) for match in matches]
        self._writes = {}
        for entry, match, higher in zip(entries, matches, overlaps, strict=True):
            guard = T.and_(context, *[negations[j] for j in higher], match)
            key: TraceKey = ("entry", table.name, entry.identity())
            trace[key] = T.or_(trace.get(key, T.FALSE), guard)
            self._execute_entry_action(table, entry, state, profile, guard)
        miss_guard = T.and_(context, *negations)
        miss_key: TraceKey = ("miss", table.name)
        trace[miss_key] = T.or_(trace.get(miss_key, T.FALSE), miss_guard)
        self._execute_action_body(table.default_action.body, {}, state, profile, miss_guard)
        for dest, (before, writes) in self._writes.items():
            case = _case(writes)
            if case is not None:
                self._cases[state[dest]] = (before, *case)
        self._writes = None

    def _execute_entry_action(
        self,
        table: Table,
        entry: InstalledEntry,
        state: Dict[str, T.Term],
        profile: ParserProfile,
        guard: T.Term,
    ) -> None:
        if isinstance(entry.action, DecodedActionSet):
            # Free selection: fresh boolean selectors choose the member; the
            # guard chain makes exactly one fire per execution.
            members = entry.action.members
            remaining = guard
            for index, (member, _weight) in enumerate(members):
                if index == len(members) - 1:
                    member_guard = remaining
                else:
                    self._fresh_counter += 1
                    chooser = T.bool_var(f"select:{table.name}#{self._fresh_counter}")
                    member_guard = T.and_(remaining, chooser)
                    remaining = T.and_(remaining, T.not_(chooser))
                self._run_named_action(table, member, state, profile, member_guard)
        else:
            self._run_named_action(table, entry.action, state, profile, guard)

    def _run_named_action(
        self,
        table: Table,
        decoded: DecodedAction,
        state: Dict[str, T.Term],
        profile: ParserProfile,
        guard: T.Term,
    ) -> None:
        if decoded.name in table.action_names:
            action = table.action(decoded.name)
        elif decoded.name == table.default_action.name:
            action = table.default_action
        else:
            raise SymbolicExecutionError(
                f"entry in {table.name} uses unknown action {decoded.name}"
            )
        self._execute_action_body(action.body, decoded.param_map(), state, profile, guard)

    def _execute_action_body(
        self,
        body: Sequence[Statement],
        params: Dict[str, int],
        state: Dict[str, T.Term],
        profile: ParserProfile,
        guard: T.Term,
    ) -> None:
        for stmt in body:
            self._assign(stmt, state, profile, guard, params)

    def _assign(
        self,
        stmt: Statement,
        state: Dict[str, T.Term],
        profile: ParserProfile,
        guard: T.Term,
        params: Dict[str, int],
    ) -> None:
        dest = stmt.dest.path
        width = self.program.field_width(dest)
        value = self._eval_expr(stmt.value, state, profile, params, width)
        old = state[dest]
        state[dest] = T.ite(guard, value, old)
        if self._writes is not None and state[dest] is not old:
            self._writes.setdefault(dest, (old, []))[1].append((guard, value))

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _eval_expr(
        self,
        expr,
        state: Dict[str, T.Term],
        profile: ParserProfile,
        params: Dict[str, int],
        width_hint: int,
    ) -> T.Term:
        if isinstance(expr, Const):
            return T.bv_const(expr.value, expr.width if expr.width else width_hint)
        if isinstance(expr, FieldRef):
            return state[expr.path]
        if isinstance(expr, Param):
            if expr.name not in params:
                raise SymbolicExecutionError(f"unbound parameter {expr.name}")
            return T.bv_const(params[expr.name], width_hint)
        if isinstance(expr, BinOp):
            left = self._eval_expr(expr.left, state, profile, params, width_hint)
            right = self._eval_expr(expr.right, state, profile, params, left.width)
            if left.width != right.width:
                # Align narrower constants to the wider operand.
                if right.width < left.width:
                    right = T.zext(right, left.width - right.width)
                else:
                    left = T.zext(left, right.width - left.width)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "&":
                return left & right
            if expr.op == "|":
                return left | right
            if expr.op == "^":
                return left ^ right
            raise SymbolicExecutionError(f"unknown binop {expr.op}")
        if isinstance(expr, HashExpr):
            # Hashing is a free operation: a fresh unconstrained variable.
            return self._fresh(f"hash:{expr.label}", expr.width)
        raise SymbolicExecutionError(f"unknown expression {expr!r}")

    def _eval_bool(self, cond, state: Dict[str, T.Term], profile: ParserProfile) -> T.Term:
        if isinstance(cond, IsValid):
            return T.TRUE if cond.header in profile.valid_headers else T.FALSE
        if isinstance(cond, Cmp):
            left = self._eval_expr(cond.left, state, profile, {}, 0)
            right = self._eval_expr(cond.right, state, profile, {}, left.width)
            if cond.op in ("==", "!=") and right.is_const and right.width == left.width:
                equal = self._equals(left, (1 << left.width) - 1, right.value)
                return equal if cond.op == "==" else T.not_(equal)
            if cond.op == "==":
                return left.eq(right)
            if cond.op == "!=":
                return left.ne(right)
            if cond.op == "<":
                return left.ult(right)
            if cond.op == "<=":
                return left.ule(right)
            if cond.op == ">":
                return right.ult(left)
            return right.ule(left)
        if isinstance(cond, BoolOp):
            args = [self._eval_bool(a, state, profile) for a in cond.args]
            if cond.op == "and":
                return T.and_(*args)
            if cond.op == "or":
                return T.or_(*args)
            return T.not_(args[0])
        raise SymbolicExecutionError(f"unknown condition {cond!r}")


def _case(writes: List[Tuple[T.Term, T.Term]]):
    """``(writes, no writer fired)`` for the ``ite`` nodes one table application
    added to a field (``_assign`` skips a write that folds away), if every
    value is a constant and no guard writes twice."""
    guards = [guard for guard, _value in writes]
    if len(set(guards)) < len(guards) or not all(value.is_const for _guard, value in writes):
        return None
    return writes, T.and_(*[T.not_(guard) for guard in guards])


def _prefix_len(m) -> int:
    return m.prefix_len if m is not None and m.present else -1


def _cube(m, full: int) -> Tuple[int, int]:
    """One key of an entry's match as ``(value, mask)``; mask 0 is a wildcard."""
    if m is None or not m.present:
        return (0, 0)
    mask = m.mask if m.mask and m.mask != full else full
    return (m.value & mask, mask)


def _overlaps(cubes: List[Tuple[Tuple[int, int], ...]], fulls: List[int]) -> List[List[int]]:
    """Per entry (in priority order), the earlier entries whose match can hold
    together with its own.  Entries are bucketed by the keys every entry
    matches in full.  If one other key remains and a bucket's masks on it are
    prefixes, each no longer than the one before (an LPM table), an entry
    overlaps the earlier prefixes inside its range; otherwise every pair in
    the bucket is tested."""
    full_keys = [k for k, full in enumerate(fulls) if all(c[k][1] == full for c in cubes)]
    rest = [k for k in range(len(fulls)) if k not in full_keys]
    buckets = defaultdict(list)
    for i, cube in enumerate(cubes):
        buckets[tuple(cube[k][0] for k in full_keys)].append(i)
    out: List[List[int]] = [[] for _ in cubes]
    for members in buckets.values():
        column = [cubes[i][rest[0]] for i in members] if len(rest) == 1 else []
        full = fulls[rest[0]] if column else 0
        inverse = [full ^ mask for _value, mask in column]  # 0b0..01..1 for a prefix
        if column and all(not m & m + 1 for m in inverse) and inverse == sorted(inverse):
            ranked = sorted(zip(column, members, strict=True))
            values = [value for (value, _mask), _i in ranked]
            for (value, mask), i in zip(column, members, strict=True):
                window = ranked[bisect_left(values, value):bisect_right(values, value | full ^ mask)]
                out[i] = sorted(j for _member, j in window if j < i)
            continue
        for n, i in enumerate(members):
            out[i] = [j for j in members[:n] if _can_overlap(cubes[i], cubes[j], rest)]
    return out


def _can_overlap(a, b, keys) -> bool:
    return all(not (a[k][0] ^ b[k][0]) & a[k][1] & b[k][1] for k in keys)
