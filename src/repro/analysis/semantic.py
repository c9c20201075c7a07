"""Semantic lint passes: SMT-backed proofs over the model, no entries needed.

Where the symbolic executor (:mod:`repro.symbolic.executor`) answers "what
does the program do to *this* table state", these passes answer "can the
program ever do X under *any* table state" — so instead of encoding
installed entries, table applications **havoc** every field their actions
could write (a fresh unconstrained variable, conditionally merged).  A
property proven UNSAT under havoc is UNSAT under every concrete table
state, which is what makes these passes safe to gate campaigns on: an
``unreachable-branch`` or ``table-never-hits`` finding cannot be an
artifact of the abstraction.

Two walker modes share one implementation:

* **havoc-entry** — metadata and standard fields start as fresh variables
  (any preceding pipeline could have produced them).  Used for the
  dead-code passes: a branch/table unreachable even with arbitrary
  metadata is genuinely dead.
* **zero-entry** — metadata starts at zero, exactly like the concrete
  interpreter with no entries installed.  Used for the invalid-header-read
  pass: a SAT read witness is then a real packet through the real empty
  pipeline, never an artifact of havocked classification metadata.

Header validity is concrete per parser profile (§5's "semi-hardcoded"
parser patterns), so ``IsValid`` folds to TRUE/FALSE and reads of header
fields are checked against the profile that leaves the header unparsed.

Solvers live for one run of the passes.  Each profile walk gets one, with
the profile's exclusion constraints asserted, for its reach queries; one
assumption-only witness solver answers the restriction and witness
queries.  Query-specific terms flow in through
``Solver.check(*assumptions)``, so the queries of one run share
bit-blasting caches and learned clauses.  Nothing outlives the run, so a
repeated lint costs what the first did, and no process-wide state can
leak from one program's analysis into another's.  Verdicts and witnesses
are pure functions of the formulas, never of solver history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.p4.ast import (
    BinOp,
    BoolOp,
    Cmp,
    Const,
    FieldRef,
    HashExpr,
    If,
    IsValid,
    MatchKind,
    P4Program,
    Param,
    Seq,
    Statement,
    Table,
    TableApply,
)
from repro.p4.constraints.lang import (
    CAnd,
    ConstraintSyntaxError,
    parse_constraint,
)
from repro.p4.constraints.symbolic import SymbolicKeySet, encode_constraint
from repro.p4.p4info import P4Info, build_p4info
from repro.smt import Result, Solver
from repro.smt import terms as T
from repro.smt.compile import compile_term
from repro.symbolic.profiles import ParserProfile, profiles_for_pattern
from repro.analysis.diagnostics import (
    ACTION_NEVER_FIRES,
    Diagnostic,
    INVALID_HEADER_READ,
    PARSER_PATTERN,
    RESTRICTION_UNSAT,
    Severity,
    TABLE_NEVER_HITS,
    UNREACHABLE_BRANCH,
    UNREACHABLE_TABLE,
    branch_location,
    table_location,
)
from repro.analysis.witness import (
    input_variables,
    packet_witness,
    unsat_core_witness,
)

# The names CLI/CI use to select semantic passes (--only/--skip).
SEMANTIC_PASS_NAMES = (
    "restriction-sat",
    "dead-branches",
    "dead-tables",
    "table-hits",
    "action-reach",
    "invalid-reads",
)

@dataclass
class _ProfileRun:
    """Everything one walk of one profile learned."""

    profile: ParserProfile
    constraints: List[T.Term]
    # (label, taken) -> condition under which that direction executes.
    branch_reach: Dict[Tuple[str, bool], T.Term] = field(default_factory=dict)
    # table name -> condition under which the table is applied.
    table_reach: Dict[str, T.Term] = field(default_factory=dict)
    # table name -> [(ctx, key field path -> term at apply time)]
    key_states: Dict[str, List[Tuple[T.Term, Dict[str, T.Term]]]] = field(
        default_factory=dict
    )
    # (location, field path) -> condition under which a field of an
    # unparsed header is read (If conditions and exact/LPM keys only).
    header_reads: Dict[Tuple[str, str], T.Term] = field(default_factory=dict)


class _Walker:
    """One symbolic walk of the pipeline for one profile and entry mode."""

    def __init__(
        self, program: P4Program, profile: ParserProfile, havoc_entry: bool
    ) -> None:
        self.program = program
        self.profile = profile
        self.run = _ProfileRun(profile=profile, constraints=[])
        self._fresh_counter = 0
        self._state: Dict[str, T.Term] = {}

        pins = profile.pin_map()
        prefix = profile.name
        for path in program.all_field_paths():
            width = program.field_width(path)
            header = path.split(".", 1)[0]
            if header in profile.valid_headers:
                self._state[path] = (
                    T.bv_const(pins[path], width)
                    if path in pins
                    else T.bv_var(f"{prefix}::{path}", width)
                )
            elif path == "standard.ingress_port":
                self._state[path] = T.bv_var(f"{prefix}::{path}", width)
            elif header in ("meta", "standard") and havoc_entry:
                self._state[path] = T.bv_var(f"{prefix}::entry::{path}", width)
            else:
                # Unparsed headers (and, in zero-entry mode, metadata)
                # start at zero, matching the concrete interpreter.
                self._state[path] = T.bv_const(0, width)
        for path, excluded in profile.exclusions:
            term = self._state[path]
            self.run.constraints.extend(term.ne(value) for value in excluded)

    def walk(self) -> _ProfileRun:
        self._run_block(self.program.ingress, T.TRUE)
        not_dropped = self._state["standard.drop"].eq(T.bv_const(0, 1))
        self._run_block(self.program.egress, not_dropped)
        return self.run

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def _fresh_var(self, name: str, width: int) -> T.Term:
        self._fresh_counter += 1
        return T.bv_var(f"{self.profile.name}::{name}#{self._fresh_counter}", width)

    def _fresh_bool(self, name: str) -> T.Term:
        self._fresh_counter += 1
        return T.bool_var(f"{self.profile.name}::{name}#{self._fresh_counter}")

    def _run_block(self, block: Seq, ctx: T.Term) -> None:
        for node in block:
            if isinstance(node, TableApply):
                self._apply_table(node.table, ctx)
            elif isinstance(node, If):
                label = node.label or repr(node.cond)
                cond = self._eval_bool(node.cond, ctx, T.TRUE, branch_location(label))
                then_ctx = T.and_(ctx, cond)
                else_ctx = T.and_(ctx, T.not_(cond))
                reach = self.run.branch_reach
                reach[(label, True)] = T.or_(
                    reach.get((label, True), T.FALSE), then_ctx
                )
                reach[(label, False)] = T.or_(
                    reach.get((label, False), T.FALSE), else_ctx
                )
                self._run_block(node.then_block, then_ctx)
                self._run_block(node.else_block, else_ctx)
            elif isinstance(node, Statement):
                value = self._eval_expr(
                    node.value, self.program.field_width(node.dest.path)
                )
                old = self._state[node.dest.path]
                self._state[node.dest.path] = T.ite(ctx, value, old)

    def _apply_table(self, table: Table, ctx: T.Term) -> None:
        reach = self.run.table_reach
        reach[table.name] = T.or_(reach.get(table.name, T.FALSE), ctx)
        self.run.key_states.setdefault(table.name, []).append(
            (ctx, {k.field.path: self._state[k.field.path] for k in table.keys})
        )
        # Reads through exact/LPM keys are unconditional header reads; a
        # ternary/optional key can be wildcarded, so the model never *has*
        # to look at the field.
        for key in table.keys:
            if key.kind in (MatchKind.EXACT, MatchKind.LPM):
                self._record_read(
                    key.field.path,
                    ctx,
                    table_location(table.name, f"key {key.key_name}"),
                )
        # Havoc: any of the table's actions may fire (for some entry set)
        # and write any value to the fields it assigns.
        assigned: Set[str] = set()
        for ref in table.actions:
            for stmt in ref.action.body:
                assigned.add(stmt.dest.path)
        for stmt in table.default_action.body:
            assigned.add(stmt.dest.path)
        for path in sorted(assigned):
            width = self.program.field_width(path)
            fired = self._fresh_bool(f"havoc:{table.name}:{path}")
            value = self._fresh_var(f"havoc:{table.name}:{path}", width)
            self._state[path] = T.ite(
                T.and_(ctx, fired), value, self._state[path]
            )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _record_read(self, path: str, reach: T.Term, location: str) -> None:
        header = path.split(".", 1)[0]
        if header in ("meta", "standard") or header in self.profile.valid_headers:
            return
        reads = self.run.header_reads
        key = (location, path)
        reads[key] = T.or_(reads.get(key, T.FALSE), reach)

    def _record_expr_reads(self, expr, reach: T.Term, location: str) -> None:
        if isinstance(expr, FieldRef):
            self._record_read(expr.path, reach, location)
        elif isinstance(expr, BinOp):
            self._record_expr_reads(expr.left, reach, location)
            self._record_expr_reads(expr.right, reach, location)
        # HashExpr inputs are free (§5): hashing an unparsed field is not a
        # read the model depends on.

    def _eval_expr(self, expr, width_hint: int) -> T.Term:
        if isinstance(expr, Const):
            return T.bv_const(expr.value, expr.width if expr.width else width_hint)
        if isinstance(expr, FieldRef):
            return self._state[expr.path]
        if isinstance(expr, BinOp):
            left = self._eval_expr(expr.left, width_hint)
            right = self._eval_expr(expr.right, left.width)
            if left.width != right.width:
                if right.width < left.width:
                    right = T.zext(right, left.width - right.width)
                else:
                    left = T.zext(left, right.width - left.width)
            ops = {
                "+": lambda a, b: a + b,
                "-": lambda a, b: a - b,
                "&": lambda a, b: a & b,
                "|": lambda a, b: a | b,
                "^": lambda a, b: a ^ b,
            }
            return ops[expr.op](left, right)
        if isinstance(expr, (HashExpr, Param)):
            # Hash outputs are free; a raw Param outside an action body has
            # no binding — both havoc to a fresh variable.
            width = expr.width if isinstance(expr, HashExpr) else width_hint
            return self._fresh_var("free", width or width_hint or 1)
        raise TypeError(f"unknown expression {expr!r}")

    def _eval_bool(self, cond, ctx: T.Term, guard: T.Term, location: str) -> T.Term:
        """Evaluate a condition, threading the short-circuit ``guard``:
        inside ``a && b``, ``b``'s field reads only happen when ``a`` held
        (this is what keeps ``IsValid(h) && h.f == v`` read-safe)."""
        if isinstance(cond, IsValid):
            return T.TRUE if cond.header in self.profile.valid_headers else T.FALSE
        if isinstance(cond, Cmp):
            read_reach = T.and_(ctx, guard)
            self._record_expr_reads(cond.left, read_reach, location)
            self._record_expr_reads(cond.right, read_reach, location)
            left = self._eval_expr(cond.left, 0)
            right = self._eval_expr(cond.right, left.width)
            if left.width != right.width:
                if right.width < left.width:
                    right = T.zext(right, left.width - right.width)
                else:
                    left = T.zext(left, right.width - left.width)
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
            if cond.op == "not":
                return T.not_(self._eval_bool(cond.args[0], ctx, guard, location))
            terms: List[T.Term] = []
            running = guard
            for arg in cond.args:
                term = self._eval_bool(arg, ctx, running, location)
                terms.append(term)
                running = T.and_(
                    running, term if cond.op == "and" else T.not_(term)
                )
            return T.and_(*terms) if cond.op == "and" else T.or_(*terms)
        raise TypeError(f"unknown condition {cond!r}")


def _walk_all(
    program: P4Program, profiles: List[ParserProfile], havoc_entry: bool
) -> List[_ProfileRun]:
    return [_Walker(program, p, havoc_entry).walk() for p in profiles]


class _ReachChecker:
    """SAT oracle for reach queries under one profile run's constraints.

    Most reach conditions in a real pipeline are satisfiable, and the
    packets that witness them overlap heavily (reach terms share guard
    structure).  So before paying for a SAT check, compile the full
    formula ``and(run.constraints, *terms)`` to bytecode and evaluate it
    under cheap concrete candidates: witnesses recovered from earlier SAT
    answers in this run, then all-zeros, then all-ones.  Any candidate
    that evaluates true *is* a model — the answer is SAT with no solver
    work.  Only queries every candidate misses (including every UNSAT
    one) reach the solver, so verdicts are unchanged.

    The witness cache is LRU: a hit moves the witness to the front, so
    hot witnesses that keep answering reach queries are the last evicted
    (eviction pops the least recently *useful* witness off the tail).
    """

    _MAX_WITNESSES = 8

    def __init__(self, run: _ProfileRun) -> None:
        self.run = run
        # The walk's own solver: its exclusion constraints are asserted
        # once, every reach query rides on them as assumptions.
        self.solver = Solver()
        self.solver.add(*run.constraints)
        self._witnesses: List[Dict[str, int]] = []
        self.cache_hits = 0

    def sat(self, *terms: T.Term) -> bool:
        if any(t is T.FALSE for t in terms):
            return False
        compiled = compile_term(T.and_(*self.run.constraints, *terms))
        for index, witness in enumerate(self._witnesses):
            if compiled.evaluate(witness):
                self.cache_hits += 1
                if index:
                    self._witnesses.insert(0, self._witnesses.pop(index))
                return True
        if compiled.evaluate({}):  # all-zeros
            return True
        if compiled.evaluate(compiled.var_masks):  # all-ones
            return True
        if self.solver.check(*terms) is not Result.SAT:
            return False
        witness = dict(self.solver.model(compiled.variables))
        self._witnesses.insert(0, witness)
        if len(self._witnesses) > self._MAX_WITNESSES:
            self._witnesses.pop()
        return True


# ----------------------------------------------------------------------
# Restriction encoding helpers (shared with the witness construction)
# ----------------------------------------------------------------------


def _restriction_terms(
    table: Table, info: P4Info
) -> Optional[Tuple[SymbolicKeySet, Optional[T.Term], List[Tuple[str, T.Term]]]]:
    """(key set, encoded restriction or None, top-level conjuncts).

    Returns ``None`` when the table is not in the catalogue or its
    restriction fails to parse/encode (reported structurally)."""
    table_info = info.table_by_name(table.name)
    if table_info is None:  # pragma: no cover - programmable implies listed
        return None
    keys = SymbolicKeySet(table_info)
    if not table.entry_restriction:
        return keys, None, []
    try:
        expr = parse_constraint(table.entry_restriction)
    except ConstraintSyntaxError:
        return None
    parts = expr.args if isinstance(expr, CAnd) else (expr,)
    try:
        conjuncts = [(repr(p), encode_constraint(p, keys)) for p in parts]
        constraint = encode_constraint(expr, keys)
    except KeyError:
        return None  # unknown key, reported structurally
    return keys, constraint, conjuncts


def _restriction_core_witness(table: Table, info: P4Info, solver: Solver, note: str):
    """Minimal unsat core of a table's restriction conjuncts, given
    well-formedness — the evidence payload for restriction-unsat and for
    findings caused by it (blocked references)."""
    encoded = _restriction_terms(table, info)
    if encoded is None:
        return None
    keys, _constraint, conjuncts = encoded
    return unsat_core_witness(solver, [keys.wellformedness()], conjuncts, note=note)


# ----------------------------------------------------------------------
# Pass: unsatisfiable entry restrictions
# ----------------------------------------------------------------------


def check_restriction_sat(
    program: P4Program,
    info: P4Info,
    solver: Solver,
    witnesses: bool = False,
) -> Tuple[List[Diagnostic], Set[str]]:
    """Tables whose @entry_restriction admits no well-formed entry at all.

    Such a table can never hold an entry — the fuzzer's constraint-aware
    generator would spin forever looking for a compliant one.  Returns the
    diagnostics plus the set of offending table names so downstream passes
    do not also assert the contradiction.
    """
    out: List[Diagnostic] = []
    unsat: Set[str] = set()
    for table in program.programmable_tables():
        if not table.entry_restriction:
            continue
        encoded = _restriction_terms(table, info)
        if encoded is None:
            continue
        keys, constraint, conjuncts = encoded
        if solver.check(keys.wellformedness(), constraint) is Result.UNSAT:
            unsat.add(table.name)
            witness = None
            if witnesses:
                witness = unsat_core_witness(
                    solver,
                    [keys.wellformedness()],
                    conjuncts,
                    note="these conjuncts are jointly unsatisfiable for "
                    "well-formed entries",
                )
            out.append(
                Diagnostic(
                    code=RESTRICTION_UNSAT,
                    severity=Severity.ERROR,
                    location=table_location(table.name, "@entry_restriction"),
                    message="no well-formed entry satisfies the restriction; "
                    "the table can never hold an entry",
                    fix_hint="the restriction contradicts itself or the "
                    "match kinds; relax it",
                    table_name=table.name,
                    witness=witness,
                )
            )
    return out, unsat


# ----------------------------------------------------------------------
# Passes: dead control flow (havoc-entry runs)
# ----------------------------------------------------------------------


def check_dead_branches(
    runs: List[_ProfileRun], checkers: List[_ReachChecker]
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    labels: Dict[Tuple[str, bool], None] = {}
    for run in runs:
        for key in run.branch_reach:
            labels.setdefault(key, None)
    for label, taken in labels:
        reachable = any(
            checker.sat(run.branch_reach.get((label, taken), T.FALSE))
            for run, checker in zip(runs, checkers, strict=True)
        )
        if not reachable:
            direction = "then" if taken else "else"
            out.append(
                Diagnostic(
                    code=UNREACHABLE_BRANCH,
                    severity=Severity.WARNING,
                    location=branch_location(label),
                    message=f"the {direction} direction is unreachable in "
                    "every parser profile, for every table state",
                    fix_hint="the condition is decided by the parser/guards; "
                    "delete the dead arm or fix the condition",
                )
            )
    return out


def check_dead_tables(
    runs: List[_ProfileRun], checkers: List[_ReachChecker]
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    names: Dict[str, None] = {}
    for run in runs:
        for name in run.table_reach:
            names.setdefault(name, None)
    for name in names:
        reachable = any(
            checker.sat(run.table_reach.get(name, T.FALSE))
            for run, checker in zip(runs, checkers, strict=True)
        )
        if not reachable:
            out.append(
                Diagnostic(
                    code=UNREACHABLE_TABLE,
                    severity=Severity.WARNING,
                    location=table_location(name),
                    message="no packet reaches this table in any parser "
                    "profile, for any table state",
                    fix_hint="its guards are contradictory; entries "
                    "installed here are dead weight",
                    table_name=name,
                )
            )
    return out


def check_table_hits(
    program: P4Program,
    info: P4Info,
    solver: Solver,
    runs: List[_ProfileRun],
    checkers: List[_ReachChecker],
    skip: Set[str],
    witnesses: bool = False,
) -> Tuple[List[Diagnostic], Set[str]]:
    """Tables where no reachable packet can match any well-formed,
    restriction-compliant entry.  Returns (diagnostics, never-hit names)
    so the action-reachability pass can suppress per-action findings the
    table-level verdict already covers."""
    out: List[Diagnostic] = []
    never: Set[str] = set()
    for table in program.programmable_tables():
        if table.name in skip or not table.keys:
            continue
        encoded = _restriction_terms(table, info)
        if encoded is None:
            continue
        keys, constraint, conjuncts = encoded
        side = [keys.wellformedness()]
        if constraint is not None:
            side.append(constraint)
        hittable = False
        reach_arms: List[T.Term] = []
        for run, checker in zip(runs, checkers, strict=True):
            arms = []
            for ctx, state in run.key_states.get(table.name, ()):
                conj = [ctx]
                for key in table.keys:
                    value = state[key.field.path]
                    mask = keys.mask_vars[key.key_name]
                    conj.append(
                        (value & mask).eq(keys.value_vars[key.key_name])
                    )
                arms.append(T.and_(*conj))
            if arms:
                reach_arms.append(
                    T.and_(*run.constraints, T.or_(*arms))
                    if run.constraints
                    else T.or_(*arms)
                )
            if arms and checker.sat(T.or_(*arms), *side):
                hittable = True
                break
        if not hittable:
            never.add(table.name)
            witness = None
            if witnesses:
                # Which restriction conjuncts (if any) are to blame, given
                # that some reachable packet must also match the entry?
                fixed = [keys.wellformedness()]
                if reach_arms:
                    fixed.append(T.or_(*reach_arms))
                witness = unsat_core_witness(
                    solver,
                    fixed,
                    conjuncts,
                    note=(
                        "minimal restriction subset excluding every "
                        "reachable packet"
                        if conjuncts
                        else "no reachable packet matches any well-formed "
                        "entry, restriction aside"
                    ),
                )
            out.append(
                Diagnostic(
                    code=TABLE_NEVER_HITS,
                    severity=Severity.WARNING,
                    location=table_location(table.name),
                    message="no reachable packet matches any well-formed "
                    "entry; only the default action can ever fire",
                    fix_hint="the keys/restriction exclude every packet "
                    "the guards let through",
                    table_name=table.name,
                    witness=witness,
                )
            )
    return out, never


# ----------------------------------------------------------------------
# Pass: action-level reachability (havoc-entry runs)
# ----------------------------------------------------------------------


def check_action_reach(
    program: P4Program,
    info: P4Info,
    solver: Solver,
    unsat_restrictions: Set[str],
    never_hits: Set[str],
    witnesses: bool,
    summary: Dict[str, int],
) -> List[Diagnostic]:
    """Per (table, action): can some packet + installed entry execute it?

    In this IR any entry may name any non-``@defaultonly`` action, so a
    hittable table fires an action iff an entry *naming that action* is
    installable — and installability is transitive through ``@refers_to``:
    an entry whose action parameter references table X needs a live entry
    in X first, so an action pointing (directly or through a chain) at a
    table that can never hold an entry (unsat restriction) can never
    fire, while its sibling actions on the same table still can.  That
    per-action refinement is exactly what the table/branch granularity of
    the other passes cannot see.

    Tables already flagged (never-hit, unsat restriction) are suppressed:
    the table-level finding covers every action at once.
    """
    out: List[Diagnostic] = []
    tables = {t.name: t for t in program.programmable_tables()}
    blocked = dict.fromkeys(unsat_restrictions, None)  # name -> root cause
    memo: Dict[str, Optional[str]] = {}

    def blocking_table(name: str, stack: Tuple[str, ...] = ()) -> Optional[str]:
        """The table that stops entries from being installed in ``name``
        (possibly itself), or None when installable.  The reference graph
        is acyclic here (cycles are structural errors that stop the
        semantic stage); the stack guard is belt and braces."""
        if name in memo:
            return memo[name]
        if name in stack:
            return name
        table = tables.get(name)
        result: Optional[str] = None
        if table is None or not table.keys:
            result = name  # dangling or keyless: cannot hold entries
        elif name in unsat_restrictions:
            result = name
        else:
            for key in table.keys:
                if key.refers_to is not None:
                    result = blocking_table(key.refers_to[0], stack + (name,))
                    if result is not None:
                        break
        memo[name] = result
        return result

    total = reachable = 0
    for table in program.programmable_tables():
        if not table.keys:
            continue
        suppressed = table.name in never_hits or table.name in blocked
        for ref in table.actions:
            if ref.default_only:
                continue
            total += 1
            if suppressed:
                continue  # the table-level finding covers every action
            cause: Optional[str] = blocking_table(table.name)
            if cause is None:
                for param in ref.action.params:
                    for target_table, _key in param.references():
                        cause = blocking_table(target_table)
                        if cause is not None:
                            break
                    if cause is not None:
                        break
            if cause is None:
                reachable += 1
                continue
            witness = None
            if witnesses and cause in tables:
                witness = _restriction_core_witness(
                    tables[cause],
                    info,
                    solver,
                    note=f"entries naming this action need a live entry in "
                    f"table {cause}, whose restriction admits none",
                )
            out.append(
                Diagnostic(
                    code=ACTION_NEVER_FIRES,
                    severity=Severity.WARNING,
                    location=table_location(table.name, f"action {ref.action.name}"),
                    message=f"no installable entry can name this action: its "
                    f"@refers_to chain requires an entry in table {cause}, "
                    "which can never hold one",
                    fix_hint="fix the referenced table's restriction or drop "
                    "the reference",
                    table_name=table.name,
                    witness=witness,
                )
            )
    summary["actions_total"] = summary.get("actions_total", 0) + total
    summary["actions_reachable"] = summary.get("actions_reachable", 0) + reachable
    return out


# ----------------------------------------------------------------------
# Pass: reads of unparsed header fields (zero-entry runs)
# ----------------------------------------------------------------------


def check_invalid_reads(
    runs: List[_ProfileRun],
    checkers: List[_ReachChecker],
    witnesses: bool = False,
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    flagged: Set[Tuple[str, str]] = set()
    for run, checker in zip(runs, checkers, strict=True):
        for (location, path), reach in run.header_reads.items():
            if (location, path) in flagged:
                continue
            if checker.sat(reach):
                flagged.add((location, path))
                header = path.split(".", 1)[0]
                witness = None
                if witnesses:
                    formula = T.and_(*run.constraints, reach)
                    witness = packet_witness(
                        checker.solver,
                        [formula],
                        input_variables(formula),
                        note=f"profile {run.profile.name}: this packet "
                        f"reaches the read with {header} unparsed",
                    )
                out.append(
                    Diagnostic(
                        code=INVALID_HEADER_READ,
                        severity=Severity.ERROR,
                        location=location,
                        message=f"reads {path} on a path where {header} "
                        f"is not parsed (e.g. profile {run.profile.name}); "
                        "the model sees zero, the switch sees garbage",
                        fix_hint=f"guard the read with isValid({header}) "
                        "or a ternary key",
                        witness=witness,
                    )
                )
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_semantic_passes(
    program: P4Program,
    selected: Optional[Sequence[str]] = None,
    witnesses: bool = False,
) -> Tuple[List[Diagnostic], Dict[str, int]]:
    """The SMT-backed passes named by ``selected`` (default: all).

    Assumes the structural passes found no errors (callers gate on that):
    fields resolve, restrictions parse.  Returns the findings plus the
    pass-level counters (reach-cache hits, action totals) merged into the
    report summary."""
    summary: Dict[str, int] = {}
    try:
        profiles = profiles_for_pattern(program.parser.pattern)
    except ValueError:
        return [
            Diagnostic(
                code=PARSER_PATTERN,
                severity=Severity.ERROR,
                location="parser",
                message=f"unknown parser pattern "
                f"{program.parser.pattern!r}; no profiles to analyze",
                fix_hint="use a registered pattern (ethernet_ipv4_ipv6)",
            )
        ], summary

    passes = set(SEMANTIC_PASS_NAMES if selected is None else selected)
    info = build_p4info(program)
    # Assumption-only: restriction and witness queries assert nothing.
    witness_solver = Solver()
    out: List[Diagnostic] = []
    checkers: List[_ReachChecker] = []

    # restriction-sat's unsat set feeds table-hits and action-reach even
    # when the pass itself is deselected (its verdict, not its findings).
    unsat_restrictions: Set[str] = set()
    if passes & {"restriction-sat", "table-hits", "action-reach"}:
        diags, unsat_restrictions = check_restriction_sat(
            program, info, witness_solver, witnesses=witnesses
        )
        if "restriction-sat" in passes:
            out.extend(diags)

    never_hits: Set[str] = set()
    if passes & {"dead-branches", "dead-tables", "table-hits", "action-reach"}:
        havoc_runs = _walk_all(program, profiles, havoc_entry=True)
        havoc_checkers = [_ReachChecker(r) for r in havoc_runs]
        checkers.extend(havoc_checkers)
        if "dead-branches" in passes:
            out.extend(check_dead_branches(havoc_runs, havoc_checkers))
        if "dead-tables" in passes:
            out.extend(check_dead_tables(havoc_runs, havoc_checkers))
        if passes & {"table-hits", "action-reach"}:
            hit_diags, never_hits = check_table_hits(
                program,
                info,
                witness_solver,
                havoc_runs,
                havoc_checkers,
                unsat_restrictions,
                witnesses=witnesses,
            )
            if "table-hits" in passes:
                out.extend(hit_diags)
        if "action-reach" in passes:
            out.extend(
                check_action_reach(
                    program,
                    info,
                    witness_solver,
                    unsat_restrictions,
                    never_hits,
                    witnesses,
                    summary,
                )
            )

    if "invalid-reads" in passes:
        zero_runs = _walk_all(program, profiles, havoc_entry=False)
        zero_checkers = [_ReachChecker(r) for r in zero_runs]
        checkers.extend(zero_checkers)
        out.extend(check_invalid_reads(zero_runs, zero_checkers, witnesses=witnesses))

    summary["reach_cache_hits"] = sum(c.cache_hits for c in checkers)
    return out, summary
