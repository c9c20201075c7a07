"""Per-table lookup indices for the model interpreter.

The interpreter's original match loop scans every installed entry per
table application — fine for the paper's 798/1314-entry workloads, hopeless
at production scale (a million-route LPM table makes every packet a
million-entry scan).  A :class:`TableIndex` holds the same entries in
shape-aware buckets so one lookup touches O(key bits) of state:

* exact-only tables — a hash map keyed by the tuple of key values;
* LPM tables — per exact-key group, a prefix map keyed by (mask, masked
  value), one probe per distinct installed prefix length (<= key bits);
* ternary/optional (priority) tables — tuple-space buckets keyed by the
  signature of present clauses and their masks, one probe per distinct
  installed mask shape.

Verdict identity is structural, not hoped-for: the buckets are *sound
over-approximations* (an entry the linear scan would match is always in
the probed buckets — absent clauses are wildcards, and any entry whose
shape does not fit its table's scheme goes to a residual list that is
always scanned), and the interpreter re-verifies every candidate with its
own match predicate, then sorts the survivors by installation order — so
priority ties, LPM tie-breaks, and first-candidate selection behave
bit-identically to the linear scan, including under the seeded simulator
faults, whose predicates only ever *shrink* the match set.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bmv2.entries import InstalledEntry
from repro.p4 import ast
from repro.p4.ast import Table

# A candidate: (installation order, entry).  Order numbers need only be
# monotonic in installation order — the match loop compares them, never
# uses them as positions.
Candidate = Tuple[int, InstalledEntry]


class TableIndex:
    """An incrementally maintained lookup index over one table's entries."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self._paths: Dict[str, str] = {k.key_name: k.field.path for k in table.keys}
        self._exact_keys: Tuple[str, ...] = tuple(
            k.key_name for k in table.keys if k.kind is ast.MatchKind.EXACT
        )
        self._lpm_key: Optional[str] = table.lpm_key_name
        self._priority = table.requires_priority
        # Priority tables: signature (sorted (key, mask-or-None) of present
        # clauses) -> masked-value tuple -> candidates.
        self._tuple_space: Dict[Tuple, Dict[Tuple, List[Candidate]]] = {}
        # LPM tables: exact values -> mask -> masked value -> candidates,
        # plus per-group wildcard (absent LPM clause) candidates.
        self._lpm_groups: Dict[Tuple, Dict[int, Dict[int, List[Candidate]]]] = {}
        self._lpm_wild: Dict[Tuple, List[Candidate]] = {}
        # Exact-only tables: values tuple -> candidates.
        self._exact: Dict[Tuple, List[Candidate]] = {}
        # Entries whose shape does not fit the table's scheme (hand-built
        # states, mislabeled clauses): always scanned.
        self._residual: List[Candidate] = []
        self._size = 0

    @classmethod
    def build(cls, table: Table, entries: Sequence[InstalledEntry]) -> "TableIndex":
        index = cls(table)
        for order, entry in enumerate(entries):
            index.add(order, entry)
        return index

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, order: int, entry: InstalledEntry) -> None:
        self._bucket_for(entry).append((order, entry))
        self._size += 1

    def remove(self, entry: InstalledEntry) -> None:
        bucket = self._bucket_for(entry)
        identity = entry.identity()
        for i, (_order, existing) in enumerate(bucket):
            if existing is entry or existing.identity() == identity:
                del bucket[i]
                self._size -= 1
                return
        raise KeyError(f"entry not indexed in {self.table.name}: {identity!r}")

    def replace(self, old: InstalledEntry, order: int, new: InstalledEntry) -> None:
        """MODIFY: same identity (same bucket shape), new action/object."""
        self.remove(old)
        self.add(order, new)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def probe(self, fields: Mapping[str, int]) -> List[Candidate]:
        """Every entry that can match the packet, in no particular order (the
        caller verifies each and restores installation order)."""
        raw: List[Candidate] = []
        if self._priority:
            for signature, buckets in self._tuple_space.items():
                probe = tuple(
                    (fields.get(self._paths[name], 0) & mask)
                    if mask is not None
                    else fields.get(self._paths[name], 0)
                    for name, mask in signature
                )
                hit = buckets.get(probe)
                if hit:
                    raw.extend(hit)
        elif self._lpm_key is not None:
            exact_values = tuple(
                fields.get(self._paths[name], 0) for name in self._exact_keys
            )
            group = self._lpm_groups.get(exact_values)
            if group:
                value = fields.get(self._paths[self._lpm_key], 0)
                for mask, buckets in group.items():
                    hit = buckets.get(value & mask)
                    if hit:
                        raw.extend(hit)
            wild = self._lpm_wild.get(exact_values)
            if wild:
                raw.extend(wild)
        else:
            values = tuple(
                fields.get(self._paths[name], 0) for name in self._exact_keys
            )
            hit = self._exact.get(values)
            if hit:
                raw.extend(hit)
        raw.extend(self._residual)
        return raw

    # ------------------------------------------------------------------
    # Bucketing
    # ------------------------------------------------------------------
    def _bucket_for(self, entry: InstalledEntry) -> List[Candidate]:
        if self._priority:
            return self._tuple_space_bucket(entry)
        if self._lpm_key is not None:
            return self._lpm_bucket(entry)
        return self._exact_bucket(entry)

    def _tuple_space_bucket(self, entry: InstalledEntry) -> List[Candidate]:
        clauses: List[Tuple[str, Optional[int], int]] = []
        for key in self.table.keys:
            m = entry.match(key.key_name)
            if m is None or not m.present:
                continue  # wildcard: not part of the signature
            if m.mask:
                clauses.append((key.key_name, m.mask, m.value & m.mask))
            else:
                clauses.append((key.key_name, None, m.value))
        clauses.sort(key=lambda c: c[0])
        signature = tuple((name, mask) for name, mask, _value in clauses)
        probe = tuple(value for _name, _mask, value in clauses)
        return self._tuple_space.setdefault(signature, {}).setdefault(probe, [])

    def _lpm_bucket(self, entry: InstalledEntry) -> List[Candidate]:
        exact_values = []
        for name in self._exact_keys:
            m = entry.match(name)
            if m is None or not m.present:
                return self._residual
            exact_values.append(m.value)
        group_key = tuple(exact_values)
        m = entry.match(self._lpm_key)
        if m is None or not m.present:
            return self._lpm_wild.setdefault(group_key, [])
        # Bucket by the entry's own mask (one bucket per installed prefix
        # length); the packet probe recomputes value & mask per bucket.
        return (
            self._lpm_groups.setdefault(group_key, {})
            .setdefault(m.mask, {})
            .setdefault(m.value & m.mask, [])
        )

    def _exact_bucket(self, entry: InstalledEntry) -> List[Candidate]:
        values = []
        for name in self._exact_keys:
            m = entry.match(name)
            if m is None or not m.present:
                return self._residual
            values.append(m.value)
        # Keys of other kinds on a no-priority table (unusual): any present
        # clause beyond the exact tuple still narrows the match, which the
        # verify predicate handles; the bucket only needs to be sound.
        return self._exact.setdefault(tuple(values), [])
