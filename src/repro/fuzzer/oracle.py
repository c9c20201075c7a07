"""The P4Runtime oracle (§4.3).

Encodes the P4Runtime specification instantiated for a given P4 program and
judges whether the switch's observable behaviour is *admissible* — never
predicting a single outcome, because the spec under-specifies (resource
rejections, batch ordering).  To avoid tracking the exponential set of
valid states across a request sequence, the oracle follows the paper's
design: after each batch it reads the switch's state back, checks that the
observed state is a valid successor of the previous one given the reported
per-update statuses, then adopts it and forgets history.

The oracle deliberately shares no validation code with the switch's
P4Runtime layer: it classifies updates with the reference decoder
(:func:`repro.bmv2.entries.decode_table_entry`), so a disagreement between
the two implementations of the spec surfaces as an incident either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bmv2.entries import EntryDecodeError, InstalledEntry, decode_table_entry
from repro.p4.constraints import parse_constraint
from repro.p4.constraints.evaluator import evaluate_constraint
from repro.p4.constraints.lang import ConstraintSyntaxError
from repro.p4.constraints.refs import ReferenceGraph, ReferenceIndex
from repro.p4.p4info import P4Info
from repro.p4rt.messages import TableEntry, Update, UpdateType, WriteResponse
from repro.p4rt.status import Code, Status
from repro.switchv.report import Incident, IncidentKind, IncidentLog


@dataclass(frozen=True)
class Classified:
    """The oracle's verdict on one update, before seeing the response."""

    update: Update
    # "invalid": must be rejected.  "valid": state-dependent rules apply.
    validity: str
    reason: str = ""
    decoded: Optional[InstalledEntry] = None


class _Ranked:
    """The slots whose flag is set, as a sequence: a Fenwick tree over the
    slots' 0/1 flags (a power-of-two capacity) finds the k-th in O(log n)."""

    def __init__(self, slots: List, flags: List[bool], capacity: int) -> None:
        self._slots, self._tree = slots, [0, *flags] + [0] * (capacity - len(flags))
        self._count = sum(flags)
        for i in range(1, capacity):
            if i + (i & -i) <= capacity:
                self._tree[i + (i & -i)] += self._tree[i]

    def add(self, slot: int, delta: int) -> None:
        self._count += delta
        tree, slot = self._tree, slot + 1
        while slot < len(tree):
            tree[slot] += delta
            slot += slot & -slot

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, k: int):
        if not 0 <= k < self._count:
            raise IndexError(k)
        pos, step = 0, len(self._tree) - 1
        while step:
            if self._tree[pos + step] <= k:
                pos += step
                k -= self._tree[pos]
            step >>= 1
        return self._slots[pos]


class EntryOrder:
    """An insertion-ordered entry dict's values, ``all``, and those of known
    ``tables``, ``known``, as sequences indexable in O(log n).  A new key takes
    the next slot, a delete leaves a tombstone (compacted once tombstones
    outnumber live slots), a new value keeps its slot: ``all[k]`` is
    ``list(entries.values())[k]``, so ``rng.choice`` draws the same entry."""

    def __init__(self, tables) -> None:
        self._tables = tables
        self.reset({})

    def reset(self, entries: Dict[Tuple, TableEntry]) -> None:
        self._slots: List[Optional[TableEntry]] = list(entries.values())
        self._index = {key: slot for slot, key in enumerate(entries)}
        self._capacity = 1 << len(self._slots).bit_length()
        self.all = _Ranked(self._slots, [True] * len(self._slots), self._capacity)
        known = [entry.table_id in self._tables for entry in self._slots]
        self.known = _Ranked(self._slots, known, self._capacity)

    def put(self, key: Tuple, entry: TableEntry) -> None:
        slot = self._index.setdefault(key, len(self._slots))
        if slot < len(self._slots):
            self._slots[slot] = entry
            return
        self._slots.append(entry)
        if slot == self._capacity:
            self._compact()
        else:
            self.all.add(slot, 1)
            self.known.add(slot, entry.table_id in self._tables)

    def discard(self, key: Tuple) -> None:
        slot = self._index.pop(key, None)
        if slot is None:
            return
        self.all.add(slot, -1)
        self.known.add(slot, -(self._slots[slot].table_id in self._tables))
        self._slots[slot] = None
        if 2 * len(self.all) < len(self._slots):
            self._compact()

    def _compact(self) -> None:
        self.reset({key: self._slots[slot] for key, slot in self._index.items()})


class Oracle:
    """Judges responses and read-backs against the instantiated spec.

    State bookkeeping is incremental: per-table entry counters and a
    :class:`~repro.p4.constraints.refs.ReferenceIndex` answering the
    dangling/orphan questions, so per-update judging cost is independent of
    how many entries are installed.  No decoded copy of the state is kept:
    the keys of adopted entries not known to decode are the only record,
    and a read-back decodes just those and the entries it changed.
    ``tests/linear_state.py`` keeps the linear
    recomputation of the same state as the executable specification the
    differential tests compare against.
    """

    def __init__(self, p4info: P4Info, strict_constraints: bool = False) -> None:
        self.p4info = p4info
        self.refs = ReferenceGraph(p4info)
        self._constraints = {}
        # A malformed @entry_restriction must never *silently* disable
        # constraint checking for its table: that would suppress every
        # constraint-violation incident with no signal.  The error is a
        # model bug; it is recorded here and surfaced as a MODEL_ERROR
        # incident (see constraint_incidents), or raised immediately in
        # strict mode.
        self.constraint_errors: Dict[int, str] = {}
        for tid, table in p4info.tables.items():
            if table.entry_restriction:
                try:
                    self._constraints[tid] = parse_constraint(table.entry_restriction)
                except ConstraintSyntaxError as exc:
                    if strict_constraints:
                        raise
                    self.constraint_errors[tid] = str(exc)
        # The adopted switch state: entry identity -> wire entry.
        self.expected: Dict[Tuple, TableEntry] = {}
        # Mirrors of `expected`: per-table entry counts, the
        # reverse-reference index, and its values in order for the
        # generator's draws.
        self._counts: Dict[int, int] = {}
        self._order = EntryOrder(p4info.tables)
        self._index = ReferenceIndex(self.refs)
        # Keys of `expected` not known to decode (adopted unjudged, or
        # accepted though invalid); the rest passed a decode.
        self._unverified: Dict[Tuple, None] = {}

    # The installed-state view RequestGenerator and the stateful mutators
    # read (GeneratorState's), maintained in place.
    entries = property(lambda self: self.expected)
    available = property(lambda self: self._available_values())
    victims = property(lambda self: self._order.all)
    known_victims = property(lambda self: self._order.known)

    def constraint_incidents(self) -> IncidentLog:
        """Model incidents for tables whose @entry_restriction failed to
        parse (constraint checking is disabled there — say so loudly)."""
        log = IncidentLog()
        for tid in sorted(self.constraint_errors):
            table = self.p4info.tables[tid]
            log.report(
                Incident(
                    kind=IncidentKind.MODEL_ERROR,
                    summary=f"malformed @entry_restriction on {table.name}: "
                    "constraint checking disabled for this table",
                    expected="a parseable entry restriction",
                    observed=self.constraint_errors[tid],
                    table_id=tid,
                    table_name=table.name,
                    source="p4-fuzzer",
                )
            )
        return log

    # ------------------------------------------------------------------
    # Classification (syntactic validity + constraint compliance, §4)
    # ------------------------------------------------------------------
    def classify(self, update: Update) -> Classified:
        try:
            decoded = decode_table_entry(self.p4info, update.entry)
        except EntryDecodeError as exc:
            return Classified(update, "invalid", reason=exc.reason)
        constraint = self._constraints.get(update.entry.table_id)
        if (
            constraint is not None
            and update.type is not UpdateType.DELETE
            and not evaluate_constraint(constraint, decoded.key_values())
        ):
            return Classified(update, "invalid", reason="constraint_violation")
        return Classified(update, "valid", decoded=decoded)

    # ------------------------------------------------------------------
    # Batch judging
    # ------------------------------------------------------------------
    def judge_batch(
        self,
        updates: Sequence[Update],
        response: WriteResponse,
        read_back: Optional[Sequence[TableEntry]] = None,
    ) -> IncidentLog:
        """Judge one batch's statuses and, if provided, the post-batch
        read-back (pass ``None`` to skip the read comparison)."""
        log = IncidentLog()
        if len(response.statuses) != len(updates):
            log.report(
                Incident(
                    kind=IncidentKind.SWITCH_UNRESPONSIVE,
                    summary="response cardinality mismatch",
                    expected=f"{len(updates)} statuses",
                    observed=f"{len(response.statuses)} statuses",
                    source="p4-fuzzer",
                )
            )
            # The per-update outcomes are unknowable, so the projected
            # expected state is now garbage.  Resynchronise from the
            # read-back (when one was taken) so subsequent batches are
            # judged against the switch's actual state instead of a stale
            # projection compounding phantom incidents.
            if read_back is not None:
                self.resync(read_back)
            return log

        for update, status in zip(updates, response.statuses, strict=False):
            self._judge_update(update, status, log)

        if read_back is not None:
            self._judge_read_back(read_back, log)
        return log

    def _judge_update(self, update: Update, status: Status, log: IncidentLog) -> None:
        classified = self.classify(update)
        entry = update.entry
        if classified.validity == "invalid":
            if status.ok:
                table = self.p4info.tables.get(entry.table_id)
                log.report(
                    Incident(
                        kind=IncidentKind.INVALID_REQUEST_ACCEPTED,
                        summary=f"{update.type.value} with {classified.reason} accepted",
                        expected="rejection (request is invalid)",
                        observed="OK",
                        test_input=repr(entry),
                        table_id=entry.table_id,
                        table_name=table.name if table else "",
                        source="p4-fuzzer",
                    )
                )
                # The switch claims it applied the entry; adopt it so the
                # read-back comparison stays coherent.
                self._apply(update)
                if update.type is not UpdateType.DELETE:
                    self._unverified[entry.match_key()] = None
            return

        # Valid update: state-dependent admissibility.
        if update.type is UpdateType.INSERT:
            self._judge_insert(update, status, log)
        elif update.type is UpdateType.MODIFY:
            self._judge_modify(update, status, log)
        else:
            self._judge_delete(update, status, log)

    def _judge_insert(self, update: Update, status: Status, log: IncidentLog) -> None:
        entry = update.entry
        key = entry.match_key()
        table = self.p4info.tables[entry.table_id]
        exists = key in self.expected
        dangling = self.refs.dangling_references(entry, self._available_values())
        table_count = self._table_count(entry.table_id)

        if exists:
            if status.ok:
                log.report(
                    Incident(
                        kind=IncidentKind.INVALID_REQUEST_ACCEPTED,
                        summary=f"duplicate insert into {table.name} accepted",
                        expected="ALREADY_EXISTS",
                        observed="OK",
                        test_input=repr(entry),
                        table_id=entry.table_id,
                        table_name=table.name,
                        source="p4-fuzzer",
                    )
                )
            elif status.code is not Code.ALREADY_EXISTS:
                log.report(
                    Incident(
                        kind=IncidentKind.WRONG_ERROR_CODE,
                        summary=f"duplicate insert into {table.name} rejected with "
                        f"{status.code.name}",
                        expected="ALREADY_EXISTS",
                        observed=status.code.name,
                        table_id=entry.table_id,
                        table_name=table.name,
                        source="p4-fuzzer",
                    )
                )
            return
        if dangling:
            if status.ok:
                ref = dangling[0]
                log.report(
                    Incident(
                        kind=IncidentKind.INVALID_REQUEST_ACCEPTED,
                        summary=f"insert with dangling reference to "
                        f"{ref.target_table}.{ref.target_key} accepted",
                        expected="rejection (referential integrity)",
                        observed="OK",
                        test_input=repr(entry),
                        table_id=entry.table_id,
                        table_name=table.name,
                        related_tables=(ref.target_table,),
                        source="p4-fuzzer",
                    )
                )
                self._apply(update)
            return
        if status.ok:
            self._apply(update)
            return
        if status.code is Code.RESOURCE_EXHAUSTED:
            if table_count < table.size:
                log.report(
                    Incident(
                        kind=IncidentKind.VALID_REQUEST_REJECTED,
                        summary=f"insert into {table.name} hit RESOURCE_EXHAUSTED below "
                        f"the guaranteed size ({table_count}/{table.size})",
                        expected=f"acceptance up to {table.size} entries",
                        observed=status.message,
                        test_input=repr(entry),
                        table_id=entry.table_id,
                        table_name=table.name,
                        source="p4-fuzzer",
                    )
                )
            return  # beyond the guarantee, rejection is admissible
        log.report(
            Incident(
                kind=IncidentKind.VALID_REQUEST_REJECTED,
                summary=f"valid insert into {table.name} rejected: "
                f"{status.code.name}",
                expected="OK",
                observed=f"{status.code.name}: {status.message}",
                test_input=repr(entry),
                table_id=entry.table_id,
                table_name=table.name,
                source="p4-fuzzer",
            )
        )

    def _judge_modify(self, update: Update, status: Status, log: IncidentLog) -> None:
        entry = update.entry
        key = entry.match_key()
        table = self.p4info.tables[entry.table_id]
        exists = key in self.expected
        dangling = self.refs.dangling_references(entry, self._available_values())
        if not exists:
            if status.ok:
                log.report(
                    Incident(
                        kind=IncidentKind.INVALID_REQUEST_ACCEPTED,
                        summary=f"modify of non-existent entry in {table.name} accepted",
                        expected="NOT_FOUND",
                        observed="OK",
                        table_id=entry.table_id,
                        table_name=table.name,
                        source="p4-fuzzer",
                    )
                )
                self._apply(update)
            elif status.code is not Code.NOT_FOUND:
                log.report(
                    Incident(
                        kind=IncidentKind.WRONG_ERROR_CODE,
                        summary=f"modify of non-existent entry in {table.name} rejected "
                        f"with {status.code.name}",
                        expected="NOT_FOUND",
                        observed=status.code.name,
                        table_id=entry.table_id,
                        table_name=table.name,
                        source="p4-fuzzer",
                    )
                )
            return
        if dangling:
            if status.ok:
                log.report(
                    Incident(
                        kind=IncidentKind.INVALID_REQUEST_ACCEPTED,
                        summary=f"modify with dangling reference in {table.name} accepted",
                        expected="rejection (referential integrity)",
                        observed="OK",
                        table_id=entry.table_id,
                        table_name=table.name,
                        related_tables=(dangling[0].target_table,),
                        source="p4-fuzzer",
                    )
                )
                self._apply(update)
            return
        if status.ok:
            self._apply(update)
            return
        log.report(
            Incident(
                kind=IncidentKind.VALID_REQUEST_REJECTED,
                summary=f"valid modify in {table.name} rejected: {status.code.name}",
                expected="OK",
                observed=f"{status.code.name}: {status.message}",
                test_input=repr(entry),
                table_id=entry.table_id,
                table_name=table.name,
                source="p4-fuzzer",
            )
        )

    def _judge_delete(self, update: Update, status: Status, log: IncidentLog) -> None:
        entry = update.entry
        key = entry.match_key()
        table = self.p4info.tables[entry.table_id]
        exists = key in self.expected
        if not exists:
            if status.ok:
                log.report(
                    Incident(
                        kind=IncidentKind.INVALID_REQUEST_ACCEPTED,
                        summary=f"delete of non-existent entry in {table.name} accepted",
                        expected="NOT_FOUND",
                        observed="OK",
                        table_id=entry.table_id,
                        table_name=table.name,
                        source="p4-fuzzer",
                    )
                )
            elif status.code not in (Code.NOT_FOUND, Code.ABORTED):
                log.report(
                    Incident(
                        kind=IncidentKind.WRONG_ERROR_CODE,
                        summary=f"delete of non-existent entry in {table.name} rejected "
                        f"with {status.code.name}",
                        expected="NOT_FOUND",
                        observed=status.code.name,
                        table_id=entry.table_id,
                        table_name=table.name,
                        source="p4-fuzzer",
                    )
                )
            return
        if self._delete_would_orphan(key):
            if status.ok:
                log.report(
                    Incident(
                        kind=IncidentKind.INVALID_REQUEST_ACCEPTED,
                        summary=f"delete orphaning references in {table.name} accepted",
                        expected="rejection (referential integrity)",
                        observed="OK",
                        table_id=entry.table_id,
                        table_name=table.name,
                        source="p4-fuzzer",
                    )
                )
                self._apply(update)
            return
        if status.ok:
            self._apply(update)
            return
        log.report(
            Incident(
                kind=IncidentKind.VALID_REQUEST_REJECTED,
                summary=f"valid delete in {table.name} rejected: {status.code.name}",
                expected="OK",
                observed=f"{status.code.name}: {status.message}",
                test_input=repr(entry),
                table_id=entry.table_id,
                table_name=table.name,
                source="p4-fuzzer",
            )
        )

    # ------------------------------------------------------------------
    # Read-back validation
    # ------------------------------------------------------------------
    def _judge_read_back(self, read_back: Sequence[TableEntry], log: IncidentLog) -> None:
        # The steady state: the read-back is the projection, in order (list
        # equality tries identity before __eq__: an echoed entry costs one
        # pointer compare).  With every entry known to decode, the diff would
        # report nothing and adopt an equal dict.  Unverified entries are
        # decoded here, once; one that fails sends each read-back to the diff.
        if len(read_back) == len(self.expected) and list(read_back) == list(self.expected.values()):
            self._unverified = dict.fromkeys(
                key for key in self._unverified if self._decode(self.expected[key]) is None
            )
            if not self._unverified:
                return
        self._diff_read_back(read_back, log)

    def _diff_read_back(self, read_back: Sequence[TableEntry], log: IncidentLog) -> None:
        """Entry-by-entry: report missing, unexpected and changed entries, then adopt."""
        observed: Dict[Tuple, TableEntry] = {}
        for entry in read_back:
            observed[entry.match_key()] = entry
        missing = [k for k in self.expected if k not in observed]
        extra = [k for k in observed if k not in self.expected]
        for key in missing[:5]:
            table = self.p4info.tables.get(self._key_table(key))
            log.report(
                Incident(
                    kind=IncidentKind.READBACK_MISMATCH,
                    summary=f"entry missing from read-back of "
                    f"{table.name if table else key[0]}",
                    expected=repr(self.expected[key]),
                    observed="absent",
                    table_id=self._key_table(key),
                    table_name=table.name if table else "",
                    source="p4-fuzzer",
                )
            )
        if len(missing) > 5:
            log.report(
                Incident(
                    kind=IncidentKind.READBACK_MISMATCH,
                    summary=f"{len(missing) - 5} further entries missing from "
                    "read-back (suppressed)",
                    expected=f"{len(missing)} expected entries present",
                    observed=f"{len(missing)} entries absent; first 5 reported "
                    "individually",
                    source="p4-fuzzer",
                )
            )
        for key in extra[:5]:
            table = self.p4info.tables.get(self._key_table(key))
            log.report(
                Incident(
                    kind=IncidentKind.READBACK_MISMATCH,
                    summary=f"unexpected entry in read-back of "
                    f"{table.name if table else key[0]}",
                    expected="absent",
                    observed=repr(observed[key]),
                    table_id=self._key_table(key),
                    table_name=table.name if table else "",
                    source="p4-fuzzer",
                )
            )
        if len(extra) > 5:
            log.report(
                Incident(
                    kind=IncidentKind.READBACK_MISMATCH,
                    summary=f"{len(extra) - 5} further unexpected entries in "
                    "read-back (suppressed)",
                    expected="no unexpected entries",
                    observed=f"{len(extra)} unexpected entries; first 5 reported "
                    "individually",
                    source="p4-fuzzer",
                )
            )
        # Wire-level changes among common keys feed the incremental adopt
        # diff; the semantic comparison below decides whether to report.
        changed: List[Tuple] = []
        for key, entry in self.expected.items():
            other = observed.get(key)
            if other is None:
                continue
            if other is not entry and other != entry:
                changed.append(key)
            if not self._same_entry(key, entry, other):
                log.report(
                    Incident(
                        kind=IncidentKind.READBACK_MISMATCH,
                        summary=f"entry content differs in read-back "
                        f"(table 0x{entry.table_id:08x})",
                        expected=repr(entry),
                        observed=repr(other),
                        table_id=entry.table_id,
                        table_name=getattr(self.p4info.tables.get(entry.table_id), "name", ""),
                        source="p4-fuzzer",
                    )
                )
        # Adopt the observed state so bookkeeping stays coherent even after
        # a mismatch (the paper's "forget the prior state" step).
        self._adopt(observed, diff=(missing, extra, changed))

    # ------------------------------------------------------------------
    # Resynchronisation (§4.3 "adopt the observed state")
    # ------------------------------------------------------------------
    def resync(self, read_back: Sequence[TableEntry]) -> None:
        """Adopt the switch's read-back as ground truth, judging nothing.

        This is the recovery path after an *ambiguous* outcome — a retried
        write whose earlier attempt may or may not have landed, or a
        response whose cardinality made per-update judging impossible.
        The spec admits several end states there, so the only sound move
        is the paper's: read the state back and forget the projection.
        """
        self._adopt({entry.match_key(): entry for entry in read_back})

    def _adopt(
        self,
        observed: Dict[Tuple, TableEntry],
        diff: Optional[Tuple[List[Tuple], List[Tuple], List[Tuple]]] = None,
    ) -> None:
        # When the observed state equals the projection (the common case —
        # no diff entries at all), adopting is just swapping the dict; the
        # index and counters already describe it.  Otherwise apply only the
        # deltas instead of rebuilding the referenceable state from scratch.
        if diff is None:
            missing = [k for k in self.expected if k not in observed]
            extra = [k for k in observed if k not in self.expected]
            changed = [
                k
                for k, entry in observed.items()
                if k in self.expected
                and self.expected[k] is not entry
                and self.expected[k] != entry
            ]
        else:
            missing, extra, changed = diff
        for key in missing:
            self._index.delete(key)
            self._bump(self._key_table(key), -1)
            self._unverified.pop(key, None)
        for key in extra:
            self._index.insert(key, observed[key])
            self._bump(self._key_table(key), +1)
            self._unverified[key] = None
        for key in changed:
            self._index.replace(key, observed[key])
            self._unverified[key] = None
        self.expected = observed
        self._order.reset(observed)

    def _same_entry(self, key: Tuple, a: TableEntry, b: TableEntry) -> bool:
        """Whether adopted entry ``a`` and its read-back ``b`` decode to the
        same entry.  An unchanged entry (every steady-state read-back) only
        has to decode, which is decided once; a changed pair is decoded."""
        if a is b or a == b:
            if key in self._unverified and self._decode(a) is not None:
                del self._unverified[key]
            return key not in self._unverified
        decoded = self._decode(a)
        return decoded is not None and decoded == self._decode(b)

    def _decode(self, entry: TableEntry) -> Optional[InstalledEntry]:
        try:
            return decode_table_entry(self.p4info, entry)
        except EntryDecodeError:
            return None

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------
    def _apply(self, update: Update) -> None:
        key = update.entry.match_key()
        self._unverified.pop(key, None)
        if update.type is UpdateType.DELETE:
            if self.expected.pop(key, None) is None:
                return
            self._order.discard(key)
            self._index.delete(key)
            self._bump(self._key_table(key), -1)
        else:
            if key in self.expected:
                self._index.replace(key, update.entry)
            else:
                self._index.insert(key, update.entry)
                self._bump(self._key_table(key), +1)
            self.expected[key] = update.entry
            self._order.put(key, update.entry)

    def _bump(self, table_id: int, delta: int) -> None:
        new = self._counts.get(table_id, 0) + delta
        if new:
            self._counts[table_id] = new
        else:
            self._counts.pop(table_id, None)

    @staticmethod
    def _key_table(key: Tuple) -> int:
        return key[0]

    def _table_count(self, table_id: int) -> int:
        return self._counts.get(table_id, 0)

    def _available_values(self):
        return self._index.available

    def _delete_would_orphan(self, key: Tuple) -> bool:
        return self._index.would_orphan(key)

    def installed_entries(self) -> List[TableEntry]:
        return list(self.expected.values())


class GeneratorState(Oracle):
    """A standalone generator's installed-state view: the oracle's projection
    driven by ``install`` / ``remove`` / ``replace_all`` instead of by judged
    batches.  A campaign's generator reads its fuzzer's oracle instead."""

    def install(self, entry: TableEntry) -> None:
        self._apply(Update(UpdateType.INSERT, entry))

    def remove(self, entry: TableEntry) -> None:
        self._apply(Update(UpdateType.DELETE, entry))

    def replace_all(self, entries: Sequence[TableEntry]) -> None:
        self.resync(entries)
