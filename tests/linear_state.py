"""Linear state bookkeeping: the executable specification of the indexed one.

The oracle (:class:`repro.fuzzer.oracle.Oracle`), the reference switch
(:class:`repro.switch.reference.ReferenceSwitch`) and the PINS P4Runtime
layer (:class:`repro.switch.p4rt_server.P4RuntimeServer`) keep per-table
counters, reverse-reference indices, table lookup indices and per-table
read views so that no update, packet or read costs O(installed entries).
The classes here answer every one of those questions the obvious way — by
recomputing from the full store on each call — and are otherwise the
production classes, unchanged.  ``tests/test_scale_differential.py``
substitutes them for the production classes and demands byte-identical
statuses, reads, forwarding and verdicts.
"""

from typing import Dict, List, Optional, Tuple

from repro.bmv2.entries import EntryDecodeError, InstalledEntry, decode_table_entry
from repro.fuzzer.oracle import Oracle
from repro.p4rt.messages import ReadRequest, ReadResponse, TableEntry, UpdateType
from repro.switch.p4rt_server import P4RuntimeServer
from repro.switch.reference import ReferenceSwitch


class LinearOracle(Oracle):
    """The oracle with its referenceable state recomputed from ``expected``."""

    def __init__(self, p4info, strict_constraints: bool = False) -> None:
        super().__init__(p4info, strict_constraints)
        self._available = self.refs.collect_state(())

    def _table_count(self, table_id: int) -> int:
        return sum(1 for k in self.expected if self._key_table(k) == table_id)

    def _available_values(self):
        return self._available

    def _delete_would_orphan(self, key: Tuple) -> bool:
        remaining = self.refs.collect_state(
            entry for other_key, entry in self.expected.items() if other_key != key
        )
        return any(
            self.refs.dangling_references(entry, remaining)
            for other_key, entry in self.expected.items()
            if other_key != key
        )

    def _adopt(self, observed, diff=None) -> None:
        self.expected = observed
        self._available = self.refs.collect_state(observed.values())

    def _same_entry(self, a: TableEntry, b: TableEntry) -> bool:
        try:
            da = decode_table_entry(self.p4info, a)
            db = decode_table_entry(self.p4info, b)
        except EntryDecodeError:
            return False
        return da == db

    def _apply(self, update) -> None:
        key = update.entry.match_key()
        if update.type is UpdateType.DELETE:
            removed = self.expected.pop(key, None)
            if removed is None:
                return
            exported = self.refs.exported_keyset(removed)
            if exported is not None:
                self._available.remove(*exported)
        else:
            if key not in self.expected:
                exported = self.refs.exported_keyset(update.entry)
                if exported is not None:
                    self._available.add(*exported)
            self.expected[key] = update.entry


class LinearReferenceSwitch(ReferenceSwitch):
    """The reference switch scanning its store for every answer: no
    counters, no reference index, no table indices, no read views."""

    def _track_insert(self, key, wire, decoded) -> None:
        pass

    def _track_modify(self, key, old_decoded, wire, decoded) -> None:
        pass

    def _track_delete(self, key, wire, decoded) -> None:
        pass

    def _count(self, table_name: str) -> int:
        return sum(1 for k in self._store if k[0] == table_name)

    def _available(self, excluding: Optional[Tuple] = None):
        return self._refs.collect_state(
            wire
            for key, (wire, _decoded) in self._store.items()
            if key != excluding
        )

    def _dangling(self, entry: TableEntry) -> bool:
        return bool(self._refs.dangling_references(entry, self._available()))

    def _orphans(self, key: Tuple) -> bool:
        remaining = self._available(excluding=key)
        return any(
            self._refs.dangling_references(wire, remaining)
            for other, (wire, _d) in self._store.items()
            if other != key
        )

    def read(self, request: ReadRequest) -> ReadResponse:
        return ReadResponse(
            entries=tuple(
                wire
                for _key, (wire, _decoded) in self._store.items()
                if not request.table_id or wire.table_id == request.table_id
            )
        )

    def _state(self) -> Dict[str, List[InstalledEntry]]:
        state: Dict[str, List[InstalledEntry]] = {}
        for _wire, decoded in self._store.values():
            state.setdefault(decoded.table_name, []).append(decoded)
        return state

    def send_packet(self, payload: bytes, ingress_port: int):
        self._interpreter.state = self._state()
        return super().send_packet(payload, ingress_port)


class LinearP4RuntimeServer(P4RuntimeServer):
    """The PINS P4Runtime layer with a tracked referenceable-value set and
    store scans in place of its counters, reference index and read views."""

    def set_pipeline_config(self, p4info):
        status = super().set_pipeline_config(p4info)
        if self._refs is not None:
            self._available = self._refs.collect_state(
                stored.wire for stored in self._store.values()
            )
        return status

    def _table_count(self, table_name: str) -> int:
        return sum(1 for k in self._store if k[0] == table_name)

    def _available_values(self, excluding: Optional[Tuple] = None):
        if excluding is None:
            return self._available
        # Delete checks need the state without one entry; derive it cheaply.
        derived = self._available.copy()
        stored = self._store.get(excluding)
        if stored is not None:
            exported = self._refs.exported_keyset(stored.wire)
            if exported is not None:
                derived.remove(*exported)
        return derived

    def _would_orphan(self, key: Tuple) -> bool:
        remaining = self._available_values(excluding=key)
        return any(
            self._refs.dangling_references(stored.wire, remaining)
            for other_key, stored in self._store.items()
            if other_key != key
        )

    def _track_insert(self, table_name: str, key: Tuple, entry: TableEntry) -> None:
        exported = self._refs.exported_keyset(entry)
        if exported is not None:
            self._available.add(*exported)

    def _track_modify(self, key: Tuple, entry: TableEntry) -> None:
        pass

    def _track_delete(self, table_name: str, key: Tuple, wire: TableEntry) -> None:
        exported = self._refs.exported_keyset(wire)
        if exported is not None:
            self._available.remove(*exported)

    def _table_wires(self, table_id: int):
        return [
            stored.wire for stored in self._store.values() if stored.wire.table_id == table_id
        ]
