"""The P4 model IR.

This is a faithful subset of P4-16 sufficient for the SwitchV use case
(§3 "P4 Language Features"): headers and metadata, match-action tables with
``exact``/``lpm``/``ternary``/``optional`` keys, actions built from
assignments and primitives, single-pass control flow (``if`` + table
application; no loops, no table reuse), and a restricted parser abstraction.
Header stacks, unions and registers are deliberately absent — the paper did
not need them either.

All behaviour-bearing nodes are pure data; the concrete interpreter
(:mod:`repro.bmv2.interpreter`) and the symbolic executor
(:mod:`repro.symbolic.executor`) both walk this AST.

Field naming convention: dotted paths, e.g. ``"ipv4.dst_addr"`` for header
fields, ``"meta.vrf_id"`` for user metadata and ``"standard.egress_port"``
for standard/intrinsic metadata.  Primitive effects (drop, punt to CPU,
mirroring) desugar to assignments on reserved standard-metadata fields so
that both interpreters only ever execute assignments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

# ----------------------------------------------------------------------
# Reserved standard-metadata fields.
# ----------------------------------------------------------------------

STANDARD_FIELDS: Dict[str, int] = {
    "standard.ingress_port": 16,
    "standard.egress_port": 16,
    "standard.drop": 1,
    "standard.punt": 1,  # packet-in: copy/redirect to the controller
    "standard.mirror_port": 16,  # SAI mirroring target port (0 = none)
    "standard.mirror_session": 16,  # logical clone-session id (modeling artifact)
    "standard.vlan_id": 12,
}

CPU_PORT = 0xFFF0  # distinguished port value meaning "the controller"
DROP_PORT = 0xFFFF  # distinguished port value meaning "dropped"


class ModelConstructionError(ValueError):
    """An IR node was built that cannot mean anything.

    Raised at *construction* time for mistakes that need no program context
    (a boolean where a bitvector belongs, two literals of different widths,
    a body referencing an undeclared parameter).  Containers (``Action``,
    ``Table``, ``If``) prefix their messages with the same location
    vocabulary the analyzer's diagnostics use — ``action <name>:``,
    ``table <name>:``, ``if <label>:`` — so a constructor crash and a
    lint finding point at the same place.  Mistakes that *do* need program
    context (field widths, reference targets) are the analyzer's job:
    :mod:`repro.analysis`.
    """


class MatchKind(enum.Enum):
    """P4Runtime match kinds supported by the model."""

    EXACT = "exact"
    LPM = "lpm"
    TERNARY = "ternary"
    OPTIONAL = "optional"


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FieldRef:
    """A reference to a header/metadata field by dotted path."""

    path: str

    def __repr__(self) -> str:
        return self.path


@dataclass(frozen=True)
class Const:
    """An integer literal with an explicit width."""

    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ModelConstructionError(f"constant width {self.width} is negative")
        if self.value < 0:
            raise ModelConstructionError(
                f"constant {self.value} is negative (bitvectors are unsigned)"
            )
        if self.width and self.value >> self.width:
            raise ModelConstructionError(
                f"constant {self.value} does not fit in {self.width} bit(s)"
            )

    def __repr__(self) -> str:
        return f"{self.value}w{self.width}"


@dataclass(frozen=True)
class Param:
    """A reference to an action parameter (valid only in action bodies)."""

    name: str

    def __repr__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class BinOp:
    """Bitvector binary operation: ``+ - & | ^`` (same-width operands)."""

    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "&", "|", "^"):
            raise ModelConstructionError(f"unknown binary operator {self.op!r}")
        _require_bitvector_operand(self.left, f"operator {self.op}")
        _require_bitvector_operand(self.right, f"operator {self.op}")
        _check_literal_widths(self.left, self.right, f"operator {self.op}")

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class HashExpr:
    """A black-box hash over the given fields (§3 "Hashing").

    The paper models hashing as an unspecified free operation: the symbolic
    executor treats the result as an unconstrained variable, and BMv2 is run
    with round-robin hashing to enumerate the set of admissible behaviours.
    ``width`` is the bit-width of the hash output.
    """

    fields: Tuple[FieldRef, ...]
    width: int
    label: str = "hash"

    def __repr__(self) -> str:
        inner = ", ".join(f.path for f in self.fields)
        return f"{self.label}({inner})"


Expr = Union[FieldRef, Const, Param, BinOp, HashExpr]


# Boolean expressions (conditions in `if` statements).


@dataclass(frozen=True)
class Cmp:
    """Comparison producing a boolean: op in ``== != < <= > >=`` (unsigned)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ("==", "!=", "<", "<=", ">", ">="):
            raise ModelConstructionError(f"unknown comparison operator {self.op!r}")
        _require_bitvector_operand(self.left, f"comparison {self.op}")
        _require_bitvector_operand(self.right, f"comparison {self.op}")
        _check_literal_widths(self.left, self.right, f"comparison {self.op}")

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class IsValid:
    """Header validity test, e.g. ``headers.ipv4.isValid()``."""

    header: str

    def __repr__(self) -> str:
        return f"{self.header}.isValid()"


@dataclass(frozen=True)
class BoolOp:
    """Boolean connective over conditions: op in ``and or not``."""

    op: str
    args: Tuple["BoolExpr", ...]

    def __post_init__(self) -> None:
        if self.op not in ("and", "or", "not"):
            raise ModelConstructionError(f"unknown boolean connective {self.op!r}")
        if self.op == "not" and len(self.args) != 1:
            raise ModelConstructionError(
                f"'not' takes exactly one argument, got {len(self.args)}"
            )
        if not self.args:
            raise ModelConstructionError(f"'{self.op}' needs at least one argument")
        for arg in self.args:
            _require_bool_operand(arg, f"connective {self.op}")

    def __repr__(self) -> str:
        if self.op == "not":
            return f"!({self.args[0]!r})"
        joiner = f" {self.op} "
        return "(" + joiner.join(repr(a) for a in self.args) + ")"


BoolExpr = Union[Cmp, IsValid, BoolOp]


def _require_bitvector_operand(node, where: str) -> None:
    """Sort check: boolean nodes cannot appear where a bitvector belongs.

    Resolved at call time (the boolean classes are defined below the
    bitvector ones), which is safe: no IR node is constructed while this
    module is still importing.
    """
    if isinstance(node, (Cmp, IsValid, BoolOp)):
        raise ModelConstructionError(
            f"{where}: operand {node!r} is boolean, expected a bitvector"
        )


def _require_bool_operand(node, where: str) -> None:
    if not isinstance(node, (Cmp, IsValid, BoolOp)):
        raise ModelConstructionError(
            f"{where}: operand {node!r} is a bitvector, expected a boolean"
        )


def _literal_width(node) -> Optional[int]:
    """The width of an expression when it is statically known *without*
    program context: literals and hashes carry one; fields and parameters
    resolve only against a program (the analyzer's job)."""
    if isinstance(node, Const):
        return node.width or None
    if isinstance(node, HashExpr):
        return node.width
    return None


def _check_literal_widths(left, right, where: str) -> None:
    lw, rw = _literal_width(left), _literal_width(right)
    if lw is not None and rw is not None and lw != rw:
        raise ModelConstructionError(
            f"{where}: operand widths differ ({left!r} is {lw} bit(s), "
            f"{right!r} is {rw} bit(s))"
        )


def and_(*args: BoolExpr) -> BoolExpr:
    return BoolOp("and", tuple(args))


def or_(*args: BoolExpr) -> BoolExpr:
    return BoolOp("or", tuple(args))


def not_(arg: BoolExpr) -> BoolExpr:
    return BoolOp("not", (arg,))


# ----------------------------------------------------------------------
# Statements (action bodies)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """An assignment ``dest := value``.

    This is the only statement kind: drop/punt/mirror primitives are
    constructed via the helpers below and desugar to assignments on
    standard-metadata fields.
    """

    dest: FieldRef
    value: Expr

    def __post_init__(self) -> None:
        if not isinstance(self.dest, FieldRef):
            raise ModelConstructionError(
                f"assignment destination must be a field, got {self.dest!r}"
            )
        _require_bitvector_operand(self.value, "assignment")

    def __repr__(self) -> str:
        return f"{self.dest!r} := {self.value!r}"


def assign(dest: str, value: Expr) -> Statement:
    return Statement(FieldRef(dest), value)


def mark_to_drop() -> Statement:
    return assign("standard.drop", Const(1, 1))


def punt_to_cpu() -> Statement:
    return assign("standard.punt", Const(1, 1))


def set_egress_port(value: Expr) -> Statement:
    return assign("standard.egress_port", value)


def mirror_to(port: Expr) -> Statement:
    return assign("standard.mirror_port", port)


# ----------------------------------------------------------------------
# Actions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ActionParamSpec:
    """Declared action parameter: name, bit width, optional @refers_to.

    ``refers_to`` is a single ``(table, key)`` pair or a tuple of them: a
    parameter may participate in references to several tables (the SAI-P4
    pattern where a next hop's ``router_interface_id`` refers to both the
    RIF table and — jointly with ``neighbor_id`` — the neighbor table).
    Parameters of one action referring to the same table form a *composite*
    reference: a single entry must match all of them (see
    :mod:`repro.p4.constraints.refs`).
    """

    name: str
    width: int
    refers_to: Optional[Tuple] = None  # (table, key) or ((table, key), ...)

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ModelConstructionError(
                f"parameter {self.name}: width must be positive, got {self.width}"
            )

    def references(self) -> Tuple[Tuple[str, str], ...]:
        """The parameter's reference edges, normalised to a tuple of pairs."""
        if self.refers_to is None:
            return ()
        if self.refers_to and isinstance(self.refers_to[0], str):
            return (self.refers_to,)
        return tuple(self.refers_to)


@dataclass(frozen=True)
class Action:
    """A P4 action: named parameters and a straight-line body."""

    name: str
    params: Tuple[ActionParamSpec, ...] = ()
    body: Tuple[Statement, ...] = ()

    def __post_init__(self) -> None:
        env: Dict[str, int] = {}
        for p in self.params:
            if p.name in env:
                raise ModelConstructionError(
                    f"action {self.name}: duplicate parameter {p.name}"
                )
            env[p.name] = p.width

        def width_of(expr) -> Optional[int]:
            if isinstance(expr, Param):
                if expr.name not in env:
                    raise ModelConstructionError(
                        f"action {self.name}: body references undeclared "
                        f"parameter ${expr.name}"
                    )
                return env[expr.name]
            if isinstance(expr, BinOp):
                lw, rw = width_of(expr.left), width_of(expr.right)
                if lw is not None and rw is not None and lw != rw:
                    raise ModelConstructionError(
                        f"action {self.name}: operand widths differ in "
                        f"{expr!r} ({lw} vs {rw} bit(s))"
                    )
                return lw if lw is not None else rw
            return _literal_width(expr)

        for stmt in self.body:
            width_of(stmt.value)

    def param(self, name: str) -> ActionParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"action {self.name} has no parameter {name}")

    def __repr__(self) -> str:
        params = ", ".join(f"{p.name}:{p.width}" for p in self.params)
        return f"action {self.name}({params})"


NO_ACTION = Action("NoAction")


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TableKey:
    """A match key: the field it matches, the match kind, and annotations."""

    field: FieldRef
    kind: MatchKind
    name: Optional[str] = None  # P4Runtime match-field name; defaults to path
    refers_to: Optional[Tuple[str, str]] = None  # @refers_to(table, key)

    @property
    def key_name(self) -> str:
        return self.name if self.name is not None else self.field.path


@dataclass(frozen=True)
class ActionProfile:
    """One-shot action-selector implementation (WCMP groups, §4.2).

    Tables with an action profile map an entry to a *set* of weighted
    actions; member selection happens via the black-box hash.
    """

    name: str
    max_group_size: int = 256
    selector_fields: Tuple[FieldRef, ...] = ()


@dataclass(frozen=True)
class ActionRef:
    """An action allowed in a table, with scope annotations."""

    action: Action
    # Actions annotated @defaultonly may only be used as the default action;
    # @tableonly actions may not be used as the default action.
    default_only: bool = False
    table_only: bool = False


@dataclass(frozen=True)
class Table:
    """A match-action table (one SAI object, §3)."""

    name: str
    keys: Tuple[TableKey, ...]
    actions: Tuple[ActionRef, ...]
    default_action: Action = NO_ACTION
    size: int = 1024  # minimum guaranteed capacity (resource limit)
    entry_restriction: Optional[str] = None  # P4-constraints source text
    implementation: Optional[ActionProfile] = None
    const_default: bool = True
    # Tables whose P4 semantics is a no-op but whose switch semantics
    # allocates a bounded internal resource (§3 "Bounded Internal
    # Resources"), e.g. the VRF table.
    is_resource_table: bool = False
    # Logical tables that are modeling artifacts not programmable by the
    # controller (§3 "Mirror Sessions").
    is_logical: bool = False

    def __post_init__(self) -> None:
        # Duplicate key names make P4Runtime match-field ids ambiguous.
        # The entry_restriction text is deliberately NOT parsed here: a
        # malformed restriction is a model artifact the oracle/analyzer
        # report in context, and tests construct them on purpose.
        seen = set()
        for k in self.keys:
            if k.key_name in seen:
                raise ModelConstructionError(
                    f"table {self.name}: duplicate key {k.key_name}"
                )
            seen.add(k.key_name)
        for ref in self.actions:
            if not isinstance(ref, ActionRef):
                raise ModelConstructionError(
                    f"table {self.name}: actions must be ActionRef, "
                    f"got {ref!r}"
                )

    def key(self, name: str) -> TableKey:
        for k in self.keys:
            if k.key_name == name:
                return k
        raise KeyError(f"table {self.name} has no key {name}")

    @cached_property
    def match_plan(self) -> Tuple[Tuple[str, str, MatchKind], ...]:
        """``(key name, field path, kind)`` per key: what matching one entry reads."""
        return tuple((k.key_name, k.field.path, k.kind) for k in self.keys)

    @cached_property
    def lpm_key_name(self) -> Optional[str]:
        """The key longest-prefix selection ranks by (the first LPM key)."""
        return next((k.key_name for k in self.keys if k.kind is MatchKind.LPM), None)

    @cached_property
    def actions_by_name(self) -> Dict[str, Action]:
        """Every action an entry or the default slot may invoke, by name."""
        out = {self.default_action.name: self.default_action}
        for ref in reversed(self.actions):
            out[ref.action.name] = ref.action
        return out

    def action(self, name: str) -> Action:
        for ref in self.actions:
            if ref.action.name == name:
                return ref.action
        raise KeyError(f"table {self.name} has no action {name}")

    @property
    def action_names(self) -> List[str]:
        return [ref.action.name for ref in self.actions]

    @cached_property
    def requires_priority(self) -> bool:
        """Per the P4Runtime spec, entries need an explicit priority iff the
        table has at least one ternary/optional (range) key."""
        return any(k.kind in (MatchKind.TERNARY, MatchKind.OPTIONAL) for k in self.keys)

    def __repr__(self) -> str:
        return f"table {self.name}[{len(self.keys)} keys, {len(self.actions)} actions]"


# ----------------------------------------------------------------------
# Control flow
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TableApply:
    """Apply a table at this point in the pipeline."""

    table: Table

    def __repr__(self) -> str:
        return f"{self.table.name}.apply()"


@dataclass(frozen=True)
class If:
    """Conditional: ``if (cond) then_block else else_block``."""

    cond: BoolExpr
    then_block: "Seq"
    else_block: "Seq"
    # Stable label used by coverage bookkeeping; derived from position if
    # not given.
    label: str = ""

    def __post_init__(self) -> None:
        where = f"if {self.label}" if self.label else "if"
        if not isinstance(self.cond, (Cmp, IsValid, BoolOp)):
            raise ModelConstructionError(
                f"{where}: condition {self.cond!r} is not boolean"
            )
        for block_name, block in (("then", self.then_block), ("else", self.else_block)):
            if not isinstance(block, Seq):
                raise ModelConstructionError(
                    f"{where}: {block_name} branch must be a Seq, got {block!r}"
                )


@dataclass(frozen=True)
class Seq:
    """A block of control-flow nodes executed in order."""

    nodes: Tuple[Union[TableApply, If, Statement], ...] = ()

    def __iter__(self):
        return iter(self.nodes)


def seq(*nodes) -> Seq:
    return Seq(tuple(nodes))


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParserSpec:
    """Semi-hardcoded parser (§5 "Limitations").

    The paper deprioritised generic parsers and relied on hardcoded support
    for the parser patterns of interest.  We model the parser as the name of
    a registered pattern from :mod:`repro.bmv2.headers`; both the concrete
    and symbolic sides share the pattern registry.
    """

    pattern: str = "ethernet_ipv4_ipv6"


# ----------------------------------------------------------------------
# The program
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HeaderType:
    """A header type: ordered (field name, bit width) pairs."""

    name: str
    fields: Tuple[Tuple[str, int], ...]

    @property
    def bit_width(self) -> int:
        return sum(w for _, w in self.fields)


@dataclass(frozen=True)
class P4Program:
    """A complete P4 model: the formal specification of one switch role."""

    name: str
    headers: Tuple[HeaderType, ...]
    metadata: Tuple[Tuple[str, int], ...]  # user metadata: (name, width)
    parser: ParserSpec
    ingress: Seq
    egress: Seq = field(default_factory=Seq)
    role: str = "unspecified"

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def header(self, name: str) -> HeaderType:
        for h in self.headers:
            if h.name == name:
                return h
        raise KeyError(f"program {self.name} has no header {name}")

    @cached_property
    def plan(self) -> "ExecutionPlan":
        """What a per-packet walk would re-derive from the (frozen) AST, computed once."""
        return ExecutionPlan(self)

    def field_width(self, path: str) -> int:
        """Bit width of a dotted field path (header, meta or standard)."""
        try:
            return self.plan.widths[path]
        except KeyError:
            raise KeyError(f"program {self.name} has no field {path}") from None

    def tables(self) -> List[Table]:
        """All tables in pipeline order (ingress then egress)."""
        return list(self.plan.tables)

    def programmable_tables(self) -> List[Table]:
        """Tables exposed via the control-plane API (excludes logical ones)."""
        return [t for t in self.tables() if not t.is_logical]

    def table(self, name: str) -> Table:
        try:
            return self.plan.tables_by_name[name]
        except KeyError:
            raise KeyError(f"program {self.name} has no table {name}") from None

    def actions(self) -> List[Action]:
        """All distinct actions across tables, in first-seen order."""
        out: List[Action] = []
        seen = set()
        for t in self.tables():
            for ref in t.actions:
                if ref.action.name not in seen:
                    seen.add(ref.action.name)
                    out.append(ref.action)
        return out

    def conditionals(self) -> List[If]:
        """All `if` nodes, in pipeline order, with stable indices."""
        return list(self.plan.conditionals)

    def all_field_paths(self) -> List[str]:
        """Every addressable field path: headers, metadata, standard."""
        return list(self.plan.zero_fields)

    def __repr__(self) -> str:
        return f"P4Program({self.name}, role={self.role}, {len(self.plan.tables)} tables)"


class ExecutionPlan:
    """Per-program lookup maps, built once by :attr:`P4Program.plan`: what
    both interpreters and the reference switch ask per packet or per
    assignment (which tables, how wide a field is, which header owns it)
    depends only on the frozen AST."""

    def __init__(self, program: P4Program) -> None:
        tables: List[Table] = []
        conditionals: List[If] = []

        def walk(block: Seq) -> None:
            for node in block:
                if isinstance(node, TableApply):
                    if node.table not in tables:
                        tables.append(node.table)
                elif isinstance(node, If):
                    conditionals.append(node)
                    walk(node.then_block)
                    walk(node.else_block)

        walk(program.ingress)
        walk(program.egress)
        self.tables: Tuple[Table, ...] = tuple(tables)
        self.conditionals: Tuple[If, ...] = tuple(conditionals)
        self.tables_by_name: Dict[str, Table] = {}
        for table in tables:
            self.tables_by_name.setdefault(table.name, table)
        # First declaration wins, as the linear searches this replaces did;
        # standard metadata shadows everything.
        self.widths: Dict[str, int] = dict(STANDARD_FIELDS)
        self.header_of: Dict[str, str] = {}
        paths: List[str] = []
        for h in program.headers:
            for fname, width in h.fields:
                path = f"{h.name}.{fname}"
                paths.append(path)
                self.widths.setdefault(path, width)
                self.header_of.setdefault(path, h.name)
        for name, width in program.metadata:
            paths.append(f"meta.{name}")
            self.widths.setdefault(f"meta.{name}", width)
        paths.extend(STANDARD_FIELDS)
        # Every addressable path, zeroed: the start-of-packet field map (copy it).
        self.zero_fields: Dict[str, int] = dict.fromkeys(paths, 0)
