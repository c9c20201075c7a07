"""A model-faithful reference switch.

Implements the P4Runtime service by interpreting the P4 program directly
(the reference decoder for validation, the BMv2 interpreter with a seeded
hash for forwarding).  Two uses:

* harness self-tests — SwitchV run against this switch with the same model
  must report zero incidents (the "no false positives" invariant);
* programs that do not fit the SAI shape (the toy program), where the
  layered PINS stack has no table mapping.

State bookkeeping is incremental: per-table entry counters, per-table
:class:`~repro.bmv2.index.TableIndex` lookup structures handed to every
interpreter run, a :class:`~repro.p4.constraints.refs.ReferenceIndex`
answering the dangling/orphan questions, and per-table read views — so
per-update and per-packet cost is independent of how many entries are
installed.  ``tests/linear_state.py`` keeps the linear recomputation as the
executable specification the differential tests compare against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bmv2.entries import EntryDecodeError, InstalledEntry, decode_table_entry
from repro.bmv2.index import TableIndex
from repro.bmv2.interpreter import Interpreter, SeededHash
from repro.bmv2.packet import PacketError, deparse_packet, parse_packet
from repro.p4.ast import P4Program
from repro.p4.constraints import parse_constraint
from repro.p4.constraints.evaluator import evaluate_constraint
from repro.p4.constraints.refs import ReferenceGraph, ReferenceIndex
from repro.p4.p4info import P4Info
from repro.p4rt.messages import (
    PacketIn,
    PacketOut,
    ReadRequest,
    ReadResponse,
    TableEntry,
    Update,
    UpdateType,
    WriteRequest,
    WriteResponse,
)
from repro.p4rt.service import P4RuntimeService
from repro.p4rt.status import (
    Status,
    already_exists,
    failed_precondition,
    invalid_argument,
    not_found,
    resource_exhausted,
)
from repro.switch.stack import ObservedForwarding


class ReferenceSwitch(P4RuntimeService):
    """A switch whose behaviour *is* the model's behaviour."""

    def __init__(self, program: P4Program, hash_seed: int = 7) -> None:
        self.program = program
        self._hash = SeededHash(seed=hash_seed)
        self._p4info: Optional[P4Info] = None
        self._refs: Optional[ReferenceGraph] = None
        self._constraints: Dict[int, object] = {}
        self._store: Dict[Tuple, Tuple[TableEntry, InstalledEntry]] = {}
        self._packet_ins: List[PacketIn] = []
        self._egress_log: List[Tuple[int, bytes]] = []
        # Incremental bookkeeping (mirrors _store; set up by the first
        # pipeline config, which every write and preload requires).
        self._counts: Dict[str, int] = {}
        self._orders: Dict[Tuple, int] = {}
        self._next_order = 0
        self._indices: Dict[str, TableIndex] = {}
        self._refindex: Optional[ReferenceIndex] = None
        self._by_table_wire: Dict[int, Dict[Tuple, TableEntry]] = {}
        # One interpreter for every packet.  It needs no entry lists: every
        # table the AST declares gets its (live) index on first insert,
        # and a table the AST does not declare is never applied.
        self._interpreter = Interpreter(program, {}, table_indices=self._indices)

    # ------------------------------------------------------------------
    # P4RuntimeService
    # ------------------------------------------------------------------
    def set_forwarding_pipeline_config(self, p4info: P4Info) -> Status:
        self._p4info = p4info
        self._refs = ReferenceGraph(p4info)
        self._constraints = {
            tid: parse_constraint(t.entry_restriction)
            for tid, t in p4info.tables.items()
            if t.entry_restriction
        }
        # The reference index derives from the new p4info; the store (and
        # the p4info-independent lookup structures) survive a config push,
        # as they always have.
        self._refindex = ReferenceIndex(self._refs)
        for key, (wire, _decoded) in self._store.items():
            self._refindex.insert(key, wire)
        return Status()

    def write(self, request: WriteRequest) -> WriteResponse:
        if self._p4info is None:
            return WriteResponse(
                statuses=tuple(
                    failed_precondition("no pipeline config") for _ in request.updates
                )
            )
        return WriteResponse(
            statuses=tuple(self._apply(update) for update in request.updates)
        )

    def _apply(self, update: Update) -> Status:
        try:
            decoded = decode_table_entry(self._p4info, update.entry)
        except EntryDecodeError as exc:
            return invalid_argument(str(exc))
        table = self._p4info.tables[update.entry.table_id]
        constraint = self._constraints.get(table.id)
        if (
            constraint is not None
            and update.type is not UpdateType.DELETE
            and not evaluate_constraint(constraint, decoded.key_values())
        ):
            return invalid_argument(f"violates @entry_restriction on {table.name}")
        key = decoded.identity()
        if update.type is UpdateType.INSERT:
            if key in self._store:
                return already_exists(table.name)
            if self._count(table.name) >= table.size:
                return resource_exhausted(table.name)
            if self._dangling(update.entry):
                return invalid_argument("dangling reference")
            self._store[key] = (update.entry, decoded)
            self._track_insert(key, update.entry, decoded)
            return Status()
        if update.type is UpdateType.MODIFY:
            if key not in self._store:
                return not_found(table.name)
            if self._dangling(update.entry):
                return invalid_argument("dangling reference")
            _old_wire, old_decoded = self._store[key]
            self._store[key] = (update.entry, decoded)
            self._track_modify(key, old_decoded, update.entry, decoded)
            return Status()
        if key not in self._store:
            return not_found(table.name)
        if self._orphans(key):
            return failed_precondition("entry is still referenced")
        old_wire, old_decoded = self._store.pop(key)
        self._track_delete(key, old_wire, old_decoded)
        return Status()

    # ------------------------------------------------------------------
    # Incremental bookkeeping
    # ------------------------------------------------------------------
    def _track_insert(self, key: Tuple, wire: TableEntry, decoded: InstalledEntry) -> None:
        name = decoded.table_name
        order = self._next_order
        self._next_order += 1
        self._orders[key] = order
        self._bump(name, +1)
        index = self._index_for(name)
        if index is not None:
            index.add(order, decoded)
        self._refindex.insert(key, wire)
        self._by_table_wire.setdefault(wire.table_id, {})[key] = wire

    def _track_modify(
        self,
        key: Tuple,
        old_decoded: InstalledEntry,
        wire: TableEntry,
        decoded: InstalledEntry,
    ) -> None:
        # Same identity, new action: the entry keeps its installation order
        # (a MODIFY replaces in place; it does not move the entry), so
        # relative match order is preserved exactly.
        index = self._index_for(decoded.table_name)
        if index is not None:
            index.replace(old_decoded, self._orders[key], decoded)
        self._refindex.replace(key, wire)
        self._by_table_wire[wire.table_id][key] = wire

    def _track_delete(self, key: Tuple, wire: TableEntry, decoded: InstalledEntry) -> None:
        name = decoded.table_name
        index = self._index_for(name)
        if index is not None:
            index.remove(decoded)
        self._orders.pop(key, None)
        self._bump(name, -1)
        self._refindex.delete(key)
        per_table = self._by_table_wire.get(wire.table_id)
        if per_table is not None:
            per_table.pop(key, None)

    def _bump(self, table_name: str, delta: int) -> None:
        count = self._counts.get(table_name, 0) + delta
        if count:
            self._counts[table_name] = count
        else:
            self._counts.pop(table_name, None)

    def _index_for(self, table_name: str) -> Optional[TableIndex]:
        index = self._indices.get(table_name)
        if index is None:
            table = self.program.plan.tables_by_name.get(table_name)
            if table is None:
                return None  # no AST declaration: never applied to a packet
            index = self._indices[table_name] = TableIndex(table)
        return index

    def _count(self, table_name: str) -> int:
        return self._counts.get(table_name, 0)

    def preload(self, entries: Sequence[TableEntry]) -> int:
        """Bulk-load valid entries, bypassing per-update admission checks.

        Benchmark/test seeding helper: skips the per-update admission
        checks (constraints, capacity, referential integrity) so a
        production-scale state can be seeded without judging each entry.
        Entries must decode; duplicates overwrite (insert semantics are not
        enforced).
        """
        if self._p4info is None:
            raise RuntimeError("preload requires a forwarding pipeline config")
        loaded = 0
        for wire in entries:
            decoded = decode_table_entry(self._p4info, wire)
            key = decoded.identity()
            existed = self._store.get(key)
            self._store[key] = (wire, decoded)
            if existed is not None:
                self._track_modify(key, existed[1], wire, decoded)
            else:
                self._track_insert(key, wire, decoded)
            loaded += 1
        return loaded

    # ------------------------------------------------------------------
    # Referential integrity
    # ------------------------------------------------------------------
    def _dangling(self, entry: TableEntry) -> bool:
        return bool(self._refs.dangling_references(entry, self._refindex.available))

    def _orphans(self, key: Tuple) -> bool:
        return self._refindex.would_orphan(key)

    def read(self, request: ReadRequest) -> ReadResponse:
        if not request.table_id:
            return ReadResponse(
                entries=tuple(wire for wire, _decoded in self._store.values())
            )
        per_table = self._by_table_wire.get(request.table_id, {})
        return ReadResponse(entries=tuple(per_table.values()))

    def packet_out(self, packet: PacketOut) -> Status:
        if packet.submit_to_ingress:
            try:
                parsed = parse_packet(packet.payload, self.program.parser.pattern)
            except PacketError as exc:
                return invalid_argument(str(exc))
            observed = self.send_packet(deparse_packet(parsed), ingress_port=0)
            if observed.egress_port is not None:
                self._egress_log.append(
                    (observed.egress_port, deparse_packet(observed.packet))
                )
            return Status()
        self._egress_log.append((packet.egress_port, packet.payload))
        return Status()

    def drain_packet_ins(self) -> List[PacketIn]:
        out = self._packet_ins
        self._packet_ins = []
        return out

    def drain_egress(self) -> List[Tuple[int, bytes]]:
        out = self._egress_log
        self._egress_log = []
        return out

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def send_packet(self, payload: bytes, ingress_port: int) -> ObservedForwarding:
        parsed = parse_packet(payload, self.program.parser.pattern)
        result = self._interpreter.run(parsed, ingress_port, self._hash)
        if result.punted:
            self._packet_ins.append(
                PacketIn(payload=deparse_packet(result.packet), ingress_port=ingress_port)
            )
        return ObservedForwarding(
            egress_port=result.egress_port,
            punted=result.punted,
            packet=result.packet,
            mirror_copies=list(result.mirror_copies),
        )
