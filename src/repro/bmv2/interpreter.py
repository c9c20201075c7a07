"""The single-packet P4 model interpreter.

Executes a :class:`~repro.p4.ast.P4Program` on a concrete packet given the
installed table entries, producing the packet's fate plus an execution
trace (which entries were hit, which branches taken) used for coverage
accounting and incident reports.

Match semantics follow the P4Runtime specification:

* a candidate entry must match on every *present* clause (omitted
  lpm/ternary/optional clauses are wildcards);
* in tables with ternary/optional keys, the highest numeric priority wins;
* otherwise, if the table has an LPM key, the longest prefix wins;
* exact-only tables have at most one candidate.

Hashing (WCMP member selection) is delegated to a :class:`HashProvider`:
the round-robin provider enumerates behaviours (§5 "Hashing"), the seeded
provider mimics a concrete ASIC hash.
"""

from __future__ import annotations

import operator
import zlib
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from repro.bmv2.entries import DecodedActionSet, InstalledEntry
from repro.bmv2.index import TableIndex
from repro.bmv2.packet import Packet
from repro.p4 import ast
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


class InterpreterError(RuntimeError):
    """An internal inconsistency while executing the model."""


# ----------------------------------------------------------------------
# Hash providers
# ----------------------------------------------------------------------


class HashProvider:
    """Strategy for resolving black-box hashes (member selection)."""

    def select_weighted(
        self, label: str, packet_fields: Mapping[str, int], weights: Sequence[int]
    ) -> int:
        """Pick a member index given per-member weights."""
        raise NotImplementedError

    def value(self, label: str, packet_fields: Mapping[str, int], width: int) -> int:
        raise NotImplementedError


class RoundRobinHash(HashProvider):
    """Deterministic rotation parameterised by a round index.

    Running the interpreter with round = 0, 1, 2, ... enumerates the set of
    possible behaviours of every non-deterministic construct.  Selection
    rotates over *distinct* members — weights shape a distribution, which is
    unobservable for a single packet, so enumerating members is what
    matters for the admissible-behaviour set.
    """

    def __init__(self, round_index: int = 0) -> None:
        self.round_index = round_index

    def select_weighted(
        self, label: str, packet_fields: Mapping[str, int], weights: Sequence[int]
    ) -> int:
        if not weights:
            raise InterpreterError("selection over an empty member set")
        return self.round_index % len(weights)

    def value(self, label: str, packet_fields: Mapping[str, int], width: int) -> int:
        return self.round_index & ((1 << width) - 1)


class SeededHash(HashProvider):
    """A concrete, vendor-style hash: CRC32 over selected field bytes.

    Models the real ASIC whose exact algorithm the P4 model deliberately
    does not specify.  Every field is framed at its declared width:
    minimal-length encoding would make distinct field tuples alias (e.g.
    src=0x01,dst=0x02 vs src=0x0102,dst=0) and collapse WCMP spreading at
    scale.  Widths default to the canonical 5-tuple fields and are bound
    from the program by the interpreter; unknown fields fall back to a
    length-prefixed encoding, which is alias-free as well.
    """

    DEFAULT_WIDTHS = {
        "ipv4.src_addr": 32,
        "ipv4.dst_addr": 32,
        "ipv4.protocol": 8,
        "ipv6.src_addr": 128,
        "ipv6.dst_addr": 128,
    }

    def __init__(
        self,
        seed: int = 0,
        fields: Sequence[str] = (),
        field_widths: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.seed = seed
        self.fields = tuple(fields) or tuple(self.DEFAULT_WIDTHS)
        self.field_widths: Dict[str, int] = dict(self.DEFAULT_WIDTHS)
        if field_widths:
            self.field_widths.update(field_widths)

    def bind_widths(self, widths: Mapping[str, int]) -> None:
        """Fill in missing field widths from a program's declarations (a
        field unknown to the program keeps the length-prefixed fallback)."""
        for name in self.fields:
            if name not in self.field_widths and name in widths:
                self.field_widths[name] = widths[name]

    def _digest(self, packet_fields: Mapping[str, int]) -> int:
        material = bytearray(self.seed.to_bytes(4, "big"))
        for name in self.fields:
            value = packet_fields.get(name, 0)
            width = self.field_widths.get(name)
            if width is None:
                # No declared width: frame with an explicit length so
                # adjacent fields can never alias.
                encoded = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
                material += len(encoded).to_bytes(2, "big")
                material += encoded
            else:
                material += value.to_bytes((width + 7) // 8, "big")
        return zlib.crc32(bytes(material))

    def select_weighted(
        self, label: str, packet_fields: Mapping[str, int], weights: Sequence[int]
    ) -> int:
        if not weights:
            raise InterpreterError("selection over an empty member set")
        total = sum(weights)
        point = self._digest(packet_fields) % total
        for index, weight in enumerate(weights):
            point -= weight
            if point < 0:
                return index
        return len(weights) - 1  # pragma: no cover - arithmetic guarantee

    def value(self, label: str, packet_fields: Mapping[str, int], width: int) -> int:
        return self._digest(packet_fields) & ((1 << width) - 1)


# ----------------------------------------------------------------------
# Execution results
# ----------------------------------------------------------------------


@dataclass
class ExecutionTrace:
    """What happened during one interpretation, for coverage/incidents."""

    # (table name, entry identity or None for miss/default, action name)
    table_hits: List[Tuple[str, Optional[Tuple], str]] = dc_field(default_factory=list)
    # (branch label, taken?)
    branches: List[Tuple[str, bool]] = dc_field(default_factory=list)
    # How often the run consulted what the model leaves open: the hash
    # provider (a selector with several members, a black-box hash value)
    # or the tie-break round (a priority tie between several candidates).
    # A run that never asked is the same for every provider / every round.
    hash_choices: int = 0
    tie_choices: int = 0


@dataclass
class PacketResult:
    """The fate of one packet."""

    packet: Packet  # final (possibly rewritten) packet
    egress_port: Optional[int]  # None when dropped
    punted: bool
    mirror_copies: List[Tuple[int, Packet]] = dc_field(default_factory=list)
    trace: ExecutionTrace = dc_field(default_factory=ExecutionTrace)

    @property
    def dropped(self) -> bool:
        return self.egress_port is None

    def behavior_signature(self) -> Tuple:
        """A hashable summary for behaviour-set comparison (§5 "Hashing").

        Deliberately excludes the trace: two executions with the same
        externally visible outcome are the same behaviour.  A packet that is
        dropped without being punted or mirrored has no observable contents,
        so its signature normalises them away.
        """
        if self.egress_port is None and not self.punted and not self.mirror_copies:
            return (None, False, None, ())
        return (
            self.egress_port,
            self.punted,
            self.packet.signature(),
            tuple(sorted((port, pkt.signature()) for port, pkt in self.mirror_copies)),
        )

    def __repr__(self) -> str:
        fate = "DROP" if self.dropped else f"port {self.egress_port}"
        extra = " +punt" if self.punted else ""
        if self.mirror_copies:
            extra += f" +{len(self.mirror_copies)} mirror"
        return f"PacketResult({fate}{extra})"


# ----------------------------------------------------------------------
# The interpreter
# ----------------------------------------------------------------------

TableState = Mapping[str, Sequence[InstalledEntry]]

_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_WRAPPING = {"+": operator.add, "-": operator.sub}
_BITWISE = {"&": operator.and_, "|": operator.or_, "^": operator.xor}


class _Run(NamedTuple):
    """One interpretation: its (mutable) packet state and what was asked of it."""

    fields: Dict[str, int]
    valid: Set[str]
    trace: ExecutionTrace
    hash_provider: HashProvider
    tie_break_round: int


class Interpreter:
    """Executes a P4 program on packets against a table state.

    One instance serves any number of packets: what derives from the
    program comes from its :attr:`~repro.p4.ast.P4Program.plan`, what varies
    per packet (hash provider, tie-break round) is an argument of :meth:`run`.

    The two boolean knobs reproduce real BMv2 defects from the paper's
    Cerberus campaign (Table 1 lists 4 simulator bugs); they are only ever
    enabled through fault injection:

    * ``optional_absent_matches_zero`` — an omitted optional match is
      treated as "must equal zero" instead of wildcard;
    * ``lpm_shortest_prefix_wins`` — the LPM comparator is inverted.
    """

    # Below this many installed entries a linear scan beats index
    # construction; standalone interpreters only auto-build above it.
    INDEX_MIN_ENTRIES = 33

    def __init__(
        self,
        program: P4Program,
        state: TableState,
        optional_absent_matches_zero: bool = False,
        lpm_shortest_prefix_wins: bool = False,
        table_indices: Optional[Mapping[str, "TableIndex"]] = None,
    ) -> None:
        self.program = program
        self.state = state
        self.optional_absent_matches_zero = optional_absent_matches_zero
        self.lpm_shortest_prefix_wins = lpm_shortest_prefix_wins
        self._plan = program.plan
        # Externally maintained indices (a switch's persistent state, read
        # live between packets) take precedence; otherwise large tables get
        # a lazily built index, valid while the state holds the same list.
        self._table_indices = table_indices if table_indices is not None else {}
        self._index_cache: Dict[str, Tuple[Sequence[InstalledEntry], TableIndex]] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(
        self,
        packet: Packet,
        ingress_port: int,
        hash_provider: Optional[HashProvider] = None,
        tie_break_round: int = 0,
    ) -> PacketResult:
        """Interpret one packet (which is read, never modified).

        Among same-priority candidates the P4Runtime spec fixes no winner,
        and real switches reorder ties when entries are modified (remove +
        re-add in the agent): ``tie_break_round`` picks the tied candidate,
        so the behaviour-set enumeration can visit them all.
        """
        hash_provider = hash_provider or SeededHash()
        if isinstance(hash_provider, SeededHash):
            hash_provider.bind_widths(self._plan.widths)
        fields = dict(self._plan.zero_fields)
        fields.update(packet.fields)
        fields["standard.ingress_port"] = ingress_port
        valid = set(packet.valid_headers)
        run = _Run(fields, valid, ExecutionTrace(), hash_provider, tie_break_round)

        self._run_block(self.program.ingress, run)
        dropped = bool(fields.get("standard.drop"))
        if not dropped:
            self._run_block(self.program.egress, run)
            dropped = bool(fields.get("standard.drop"))

        header_of = self._plan.header_of
        out_fields = {}
        for path, value in fields.items():
            header = header_of.get(path)
            if header is None and "." in path:
                header = path.split(".", 1)[0]  # a field the program does not declare
            if header in valid:
                out_fields[path] = value
        out_packet = Packet(fields=out_fields, valid_headers=valid, payload=packet.payload)
        # Port 0: no forwarding decision was made, the model drops.
        egress = None if dropped else fields.get("standard.egress_port") or None
        mirror_port = fields.get("standard.mirror_port", 0)
        return PacketResult(
            packet=out_packet,
            egress_port=egress,
            punted=bool(fields.get("standard.punt")),
            mirror_copies=[(mirror_port, out_packet.copy())] if mirror_port else [],
            trace=run.trace,
        )

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def _run_block(self, block: Seq, run: _Run) -> None:
        for node in block:
            if isinstance(node, TableApply):
                self._apply_table(node.table, run)
            elif isinstance(node, If):
                taken = self._eval_bool(node.cond, run)
                run.trace.branches.append((node.label or repr(node.cond), taken))
                self._run_block(node.then_block if taken else node.else_block, run)
            elif isinstance(node, Statement):
                self._execute_statement(node, run, params={})
            else:  # pragma: no cover - defensive
                raise InterpreterError(f"unknown control node {node!r}")

    # ------------------------------------------------------------------
    # Table application
    # ------------------------------------------------------------------
    def _apply_table(self, table: Table, run: _Run) -> None:
        winner = self._match(table, self.state.get(table.name, ()), run)
        trace = run.trace
        if winner is None:
            trace.table_hits.append((table.name, None, table.default_action.name))
            self._execute_action_body(table.default_action.body, run, params={})
            return
        action = winner.action
        if isinstance(action, DecodedActionSet):
            weights = [weight for _member, weight in action.members]
            if len(weights) > 1:
                trace.hash_choices += 1
            index = run.hash_provider.select_weighted(
                f"selector:{table.name}", run.fields, weights
            )
            action, _weight = action.members[index]
        trace.table_hits.append((table.name, winner.identity(), action.name))
        declared = table.actions_by_name.get(action.name)
        if declared is None:
            raise InterpreterError(
                f"entry in {table.name} references unknown action {action.name}"
            )
        self._execute_action_body(declared.body, run, params=action.param_map())

    def _match(
        self, table: Table, entries: Sequence[InstalledEntry], run: _Run
    ) -> Optional[InstalledEntry]:
        candidates = self._candidates(table, entries, run.fields)
        if not candidates:
            return None
        if table.requires_priority:
            # Highest priority wins; equal-priority ties are under-specified
            # (see ``run``) — rotate among the tied candidates.
            top = max(entry.priority for _order, entry in candidates)
            tied = [entry for _order, entry in candidates if entry.priority == top]
            if len(tied) > 1:
                run.trace.tie_choices += 1
            return tied[run.tie_break_round % len(tied)]
        key_name = table.lpm_key_name
        if key_name is not None:
            sign = -1 if self.lpm_shortest_prefix_wins else 1  # seeded simulator bug

            def rank(item: Tuple[int, InstalledEntry]) -> Tuple[int, int]:
                m = item[1].matches_by_key.get(key_name)
                length = m.prefix_len if m is not None and m.present else -1
                return (sign * length, -item[0])

            return max(candidates, key=rank)[1]
        return candidates[0][1]

    def _candidates(
        self, table: Table, entries: Sequence[InstalledEntry], fields
    ) -> List[Tuple[int, InstalledEntry]]:
        """Matching (order, entry) pairs, ascending by installation order.

        An index (externally maintained, or lazily built for large states)
        narrows the scan to the probed buckets; every candidate it yields is
        re-verified with the same predicate the linear scan uses, so the
        result — and with it every downstream priority/LPM/tie-break
        decision — is identical entry-for-entry.
        """
        index = self._index_for(table, entries)
        pool = enumerate(entries) if index is None else index.probe(fields)
        found = [item for item in pool if self._entry_matches(table, item[1], fields)]
        if index is not None:
            found.sort(key=operator.itemgetter(0))
        return found

    def _index_for(self, table: Table, entries: Sequence[InstalledEntry]) -> Optional[TableIndex]:
        index = self._table_indices.get(table.name)
        if index is not None:
            return index
        if len(entries) < self.INDEX_MIN_ENTRIES:
            return None
        cached = self._index_cache.get(table.name)
        if cached is not None and cached[0] is entries:
            return cached[1]
        index = TableIndex.build(table, entries)
        self._index_cache[table.name] = (entries, index)
        return index

    def _entry_matches(self, table: Table, entry: InstalledEntry, fields) -> bool:
        by_key = entry.matches_by_key
        for key_name, path, kind in table.match_plan:
            m = by_key.get(key_name)
            if m is None or not m.present:
                if (
                    self.optional_absent_matches_zero
                    and kind is ast.MatchKind.OPTIONAL
                    and fields.get(path, 0) != 0
                ):
                    return False  # seeded simulator bug
                continue  # wildcard
            value = fields.get(path, 0)
            if m.mask:
                if (value & m.mask) != (m.value & m.mask):
                    return False
            elif value != m.value:
                return False
        return True

    def _execute_action_body(self, body, run: _Run, params) -> None:
        for stmt in body:
            self._execute_statement(stmt, run, params)

    def _execute_statement(self, stmt: Statement, run: _Run, params) -> None:
        value = self._eval_expr(stmt.value, run, params)
        path = stmt.dest.path
        run.fields[path] = value & ((1 << self._plan.widths[path]) - 1)

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def _eval_expr(self, expr, run: _Run, params) -> int:
        if isinstance(expr, Const):
            return expr.value & ((1 << expr.width) - 1)
        if isinstance(expr, FieldRef):
            return run.fields.get(expr.path, 0)
        if isinstance(expr, Param):
            if expr.name not in params:
                raise InterpreterError(f"unbound action parameter {expr.name}")
            return params[expr.name]
        if isinstance(expr, BinOp):
            left = self._eval_expr(expr.left, run, params)
            right = self._eval_expr(expr.right, run, params)
            mask = (1 << self._expr_width(expr.left)) - 1
            if expr.op in _WRAPPING:
                return _WRAPPING[expr.op](left, right) & mask
            if expr.op in _BITWISE:
                return _BITWISE[expr.op](left, right)
            raise InterpreterError(f"unknown binary op {expr.op}")
        if isinstance(expr, HashExpr):
            run.trace.hash_choices += 1
            return run.hash_provider.value(expr.label, run.fields, expr.width)
        raise InterpreterError(f"unknown expression {expr!r}")

    def _expr_width(self, expr) -> int:
        if isinstance(expr, Const):
            return expr.width
        if isinstance(expr, FieldRef):
            return self._plan.widths[expr.path]
        if isinstance(expr, BinOp):
            return self._expr_width(expr.left)
        if isinstance(expr, HashExpr):
            return expr.width
        if isinstance(expr, Param):
            return 64  # parameters carry their declared width at decode time
        raise InterpreterError(f"cannot determine width of {expr!r}")

    def _eval_bool(self, cond, run: _Run) -> bool:
        if isinstance(cond, IsValid):
            return cond.header in run.valid
        if isinstance(cond, Cmp):
            left = self._eval_expr(cond.left, run, {})
            right = self._eval_expr(cond.right, run, {})
            return _COMPARE[cond.op](left, right)
        if isinstance(cond, BoolOp):
            if cond.op == "and":
                return all(self._eval_bool(a, run) for a in cond.args)
            if cond.op == "or":
                return any(self._eval_bool(a, run) for a in cond.args)
            return not self._eval_bool(cond.args[0], run)
        raise InterpreterError(f"unknown condition {cond!r}")
