"""@refers_to referential integrity (§3, §4.4).

A ``@refers_to(table, key)`` annotation on a match key or action parameter
means the annotated value must equal the value of an *existing* entry's key
in the referenced table.  When several parameters of one action refer to
different keys of the *same* table, they form a **composite reference**:
one entry of that table must match all of them jointly (the SAI pattern —
a next hop's ``(router_interface_id, neighbor_id)`` pair must name an
existing neighbor entry, not merely two values that appear somewhere).

Three subsystems consume this graph:

* the switch's P4Runtime layer rejects dangling inserts and orphaning
  deletes;
* p4-fuzzer's request generator picks referenced values from installed
  entries (consistent keysets for composites) or deliberately dangling
  values (the Invalid Reference mutation);
* the batcher sequences dependent updates into different batches, because a
  single Write's updates may execute in any order (§4 Example 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.p4.p4info import P4Info
from repro.p4rt import codec
from repro.p4rt.messages import (
    ActionInvocation,
    ActionProfileActionSet,
    TableEntry,
)

# One entry's referenceable identity in a table: the set of (key, value)
# pairs its match contributes.
KeySet = FrozenSet[Tuple[str, int]]


@dataclass(frozen=True)
class Reference:
    """One outgoing reference: possibly-composite (key, value) demands."""

    source: str  # "<table>.<key>" or "<action>"
    target_table: str
    pairs: Tuple[Tuple[str, int], ...]  # (target key, value), jointly required

    @property
    def target_key(self) -> str:
        """First referenced key (for single-pair references / messages)."""
        return self.pairs[0][0]

    @property
    def value(self) -> int:
        """First referenced value (for single-pair references / messages)."""
        return self.pairs[0][1]


class AvailableState:
    """The referenceable keysets of a set of installed entries.

    Only entries of tables some ``@refers_to`` targets contribute (see
    :meth:`ReferenceGraph.exported_keyset`): a route or an ACL that nothing
    can refer to costs no keyset, pair-index or shape bookkeeping here.

    Refcounted (distinct entries can export identical keysets, e.g. two
    priorities over the same matches) and incrementally maintainable, so
    long campaigns avoid rebuilding it per update.

    A per-pair inverted index ((table, key, value) -> keysets containing
    the pair) makes :meth:`satisfies` cost proportional to the *demand*,
    not to the number of installed keysets — the difference between O(1)
    and O(N) per referential-integrity check at production table sizes.
    A per-table index of key-name *shapes* does the same for
    :meth:`provides_keys`.
    """

    def __init__(self) -> None:
        self._by_table: Dict[str, Dict[KeySet, int]] = {}
        # (table, (key, value)) -> keysets currently available that contain
        # the pair.  Maintained only on 0<->1 refcount transitions.
        self._by_pair: Dict[Tuple[str, Tuple[str, int]], Set[KeySet]] = {}
        # table -> key-name shape -> distinct available keysets of that
        # shape.  Same transitions as _by_pair.
        self._shapes: Dict[str, Dict[FrozenSet[str], int]] = {}
        # table -> keysets() answer, dropped on the same transitions, which
        # also bump `version` (what satisfiability answers were read at).
        self._sorted: Dict[str, Tuple[KeySet, ...]] = {}
        self.version = 0

    def add(self, table: str, keyset: KeySet) -> None:
        counts = self._by_table.setdefault(table, {})
        count = counts.get(keyset, 0)
        counts[keyset] = count + 1
        if count == 0:
            self._sorted.pop(table, None)
            self.version += 1
            shapes = self._shapes.setdefault(table, {})
            shape = frozenset(key for key, _value in keyset)
            shapes[shape] = shapes.get(shape, 0) + 1
            for pair in keyset:
                self._by_pair.setdefault((table, pair), set()).add(keyset)

    def remove(self, table: str, keyset: KeySet) -> None:
        counts = self._by_table.get(table)
        if not counts or keyset not in counts:
            return
        counts[keyset] -= 1
        if counts[keyset] <= 0:
            del counts[keyset]
            self._sorted.pop(table, None)
            self.version += 1
            shapes = self._shapes[table]
            shape = frozenset(key for key, _value in keyset)
            shapes[shape] -= 1
            if not shapes[shape]:
                del shapes[shape]
            for pair in keyset:
                holders = self._by_pair.get((table, pair))
                if holders is not None:
                    holders.discard(keyset)
                    if not holders:
                        del self._by_pair[(table, pair)]

    def count(self, table: str, keyset: KeySet) -> int:
        """How many installed entries export exactly this keyset."""
        return self._by_table.get(table, {}).get(keyset, 0)

    def satisfying_keysets(self, table: str, pairs: Iterable[Tuple[str, int]]) -> Set[KeySet]:
        """Available keysets of ``table`` containing *all* of ``pairs``."""
        sets = []
        for pair in pairs:
            holders = self._by_pair.get((table, pair))
            if not holders:
                return set()
            sets.append(holders)
        if not sets:
            # An empty demand is satisfied by any keyset of the table.
            return set(self._by_table.get(table, ()))
        if len(sets) == 1:
            return set(sets[0])
        sets.sort(key=len)
        return sets[0].intersection(*sets[1:])

    def satisfies(self, reference: Reference) -> bool:
        return bool(
            self.satisfying_keysets(reference.target_table, reference.pairs)
        )

    def provides_keys(self, table: str, keys: FrozenSet[str]) -> bool:
        """Whether some available keyset of ``table`` carries all of ``keys``."""
        return any(keys <= shape for shape in self._shapes.get(table, ()))

    def keysets(self, table: str) -> Tuple[KeySet, ...]:
        # Canonical order: dict iteration depends on insertion history, and
        # consumers feed these into seeded random choices — determinism of
        # fuzz campaigns requires a stable order here.  Cached per table.
        if table not in self._sorted:
            keysets = self._by_table.get(table, ())
            self._sorted[table] = tuple(sorted(keysets, key=lambda ks: sorted(ks)))
        return self._sorted[table]

    def copy(self) -> "AvailableState":
        clone = AvailableState()
        clone._by_table = {t: dict(c) for t, c in self._by_table.items()}
        clone._by_pair = {pair: set(ks) for pair, ks in self._by_pair.items()}
        clone._shapes = {t: dict(c) for t, c in self._shapes.items()}
        return clone

    def __contains__(self, item: Tuple[str, str, int]) -> bool:
        table, key, value = item
        return bool(self._by_pair.get((table, (key, value))))


class ReferenceGraph:
    """The static reference structure of a P4 program plus query helpers."""

    def __init__(self, p4info: P4Info) -> None:
        self._p4info = p4info
        # Match-key edges: (table name, key name) -> (target table, key).
        self._key_edges: Dict[Tuple[str, str], Tuple[str, str]] = {}
        for (source, field), target in p4info.references.items():
            if p4info.table_by_name(source) is not None:
                self._key_edges[(source, field)] = target
        # Action edges, grouped into composites per target table:
        # action name -> target table -> [(param name, target key)].
        self._action_edges: Dict[str, Dict[str, List[Tuple[str, str]]]] = {}
        for action in p4info.actions.values():
            groups: Dict[str, List[Tuple[str, str]]] = {}
            for param in action.params:
                for table, key in param.refers_to:
                    groups.setdefault(table, []).append((param.name, key))
            if groups:
                self._action_edges[action.name] = groups
        # All reference edges, one representative target per source.
        self.edges: Dict[Tuple[str, str], Tuple[str, str]] = dict(self._key_edges)
        for action_name, groups in self._action_edges.items():
            for table, pairs in groups.items():
                for param_name, key in pairs:
                    self.edges[(action_name, param_name)] = (table, key)
        # table name -> [(target table, key names)] an entry of the table
        # must find installed: one per referring match key, one per
        # composite of each permitted action.
        self.demanded_keys: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {
            info.name: [] for info in p4info.tables.values()
        }
        for (source, _field), (table, key) in self._key_edges.items():
            self.demanded_keys[source].append((table, frozenset((key,))))
        for info in p4info.tables.values():
            for aid in info.action_ids:
                groups = self._action_edges.get(p4info.actions[aid].name, {})
                for table, pairs in groups.items():
                    keys = frozenset(key for _param, key in pairs)
                    self.demanded_keys[info.name].append((table, keys))
        # The tables some match key or action parameter refers to: the only
        # ones whose keysets a demand can ever read, so the only exporters.
        self.targets: FrozenSet[str] = frozenset(
            table for table, _key in self._key_edges.values()
        ).union(*(groups.keys() for groups in self._action_edges.values()))
        self._exporters = {
            tid: (info.name, info.match_fields_by_id)
            for tid, info in p4info.tables.items()
            if info.name in self.targets
        }
        # Extraction plans, decoding only the values a reference names.
        # table id -> field id -> (width, target table, target key, source).
        self._key_plans: Dict[int, Dict[int, Tuple[int, str, str, str]]] = {
            tid: {
                fid: (mf.bitwidth, *self._key_edges[info.name, mf.name], f"{info.name}.{mf.name}")
                for fid, mf in info.match_fields_by_id.items()
                if (info.name, mf.name) in self._key_edges
            }
            for tid, info in p4info.tables.items()
        }
        # action id -> (name, reference groups, param id -> (name, width)).
        self._action_plans: Dict[int, Tuple] = {}
        for aid, action in p4info.actions.items():
            groups = self._action_edges.get(action.name)
            if groups:
                named = {name for pairs in groups.values() for name, _key in pairs}
                params = {
                    pid: (p.name, p.bitwidth)
                    for pid, p in action.params_by_id.items()
                    if p.name in named
                }
                self._action_plans[aid] = (action.name, tuple(groups.items()), params)

    def action_reference_groups(self, action_name: str) -> Dict[str, List[Tuple[str, str]]]:
        """target table -> [(param name, target key)] for one action."""
        return {t: list(pairs) for t, pairs in self._action_edges.get(action_name, {}).items()}

    def is_referenced_table(self, table_name: str) -> bool:
        """Whether any edge points *at* this table."""
        return table_name in self.targets

    # ------------------------------------------------------------------
    # Entry-level reference extraction
    # ------------------------------------------------------------------
    def references_of(self, entry: TableEntry) -> List[Reference]:
        """All outgoing references of an entry (keys + action composites).

        Values that fail to decode are skipped: a malformed entry will be
        rejected on syntactic grounds before integrity is consulted.
        """
        return [Reference(*found) for found in self._extract(entry)]

    def _extract(self, entry: TableEntry) -> List[Tuple[str, str, Tuple[Tuple[str, int], ...]]]:
        """(source, target table, pairs) per reference, through the plans."""
        key_plan = self._key_plans.get(entry.table_id)
        if key_plan is None:
            return []
        out = []
        if key_plan:
            for match in entry.matches:
                step = key_plan.get(match.field_id)
                if step is None:
                    continue
                width, target, key, source = step
                try:
                    value = codec.decode(match.value, width, strict=False)
                except codec.CodecError:
                    continue
                out.append((source, target, ((key, value),)))
        if isinstance(entry.action, ActionInvocation):
            invocations = (entry.action,)
        elif isinstance(entry.action, ActionProfileActionSet):
            invocations = [m.action for m in entry.action.actions]
        else:
            return out
        for inv in invocations:
            plan = self._action_plans.get(inv.action_id)
            if plan is None:
                continue
            name, groups, params = plan
            values: Dict[str, int] = {}
            for pid, data in inv.params:
                param = params.get(pid)
                if param is None:
                    continue
                try:
                    values[param[0]] = codec.decode(data, param[1], strict=False)
                except codec.CodecError:
                    continue
            for target, pairs in groups:
                demanded = tuple(
                    (key, values[param_name]) for param_name, key in pairs if param_name in values
                )
                if demanded:
                    out.append((name, target, demanded))
        return out

    # ------------------------------------------------------------------
    # Values exported by an entry (what others may refer to)
    # ------------------------------------------------------------------
    def exported_keyset(self, entry: TableEntry) -> Optional[Tuple[str, KeySet]]:
        """The (table, keyset) this entry makes referenceable, if any.

        Only an entry of a table in :attr:`targets` exports one: no
        reference can demand a keyset of any other table.
        """
        exporter = self._exporters.get(entry.table_id)
        if exporter is None:
            return None
        table, fields = exporter
        pairs = []
        for match in entry.matches:
            mf = fields.get(match.field_id)
            if mf is None:
                continue
            try:
                value = codec.decode(match.value, mf.bitwidth, strict=False)
            except codec.CodecError:
                continue
            pairs.append((mf.name, value))
        if not pairs:
            return None
        return (table, frozenset(pairs))

    def exported_values(self, entry: TableEntry) -> List[Tuple[str, str, int]]:
        """(table, key, value) triples this entry makes referenceable."""
        exported = self.exported_keyset(entry)
        if exported is None:
            return []
        table, keyset = exported
        return [(table, key, value) for key, value in keyset]

    def collect_state(self, entries: Iterable[TableEntry]) -> AvailableState:
        """The referenceable state of a set of installed entries."""
        state = AvailableState()
        for entry in entries:
            exported = self.exported_keyset(entry)
            if exported is not None:
                state.add(*exported)
        return state

    # ------------------------------------------------------------------
    # Integrity checks against a state
    # ------------------------------------------------------------------
    def dangling_references(
        self, entry: TableEntry, available: AvailableState
    ) -> List[Reference]:
        """References of ``entry`` not satisfied by ``available``."""
        return [
            ref for ref in self.references_of(entry) if not available.satisfies(ref)
        ]

    def depends_on(self, entry: TableEntry, other: TableEntry) -> bool:
        """Whether ``entry`` references a keyset exported by ``other``.

        Used by the batcher: two such entries must not share a batch.  A
        composite reference depends on ``other`` if any demanded pair is
        provided by it.
        """
        exported = self.exported_keyset(other)
        if exported is None:
            return False
        table, keyset = exported
        for ref in self.references_of(entry):
            if ref.target_table != table:
                continue
            if any(pair in keyset for pair in ref.pairs):
                return True
        return False


# A demand shared by every entry that references the same joint keyset:
# (target table, the jointly-required (key, value) pairs).
Demand = Tuple[str, KeySet]


class ReferenceIndex:
    """Incrementally maintained referential integrity over an entry store.

    Mirrors a store of wire entries (the oracle's projection, or a switch's
    installed state) and answers the two hot integrity questions in time
    proportional to the *entry*, never to the store:

    * :meth:`dangling` — which of an entry's references the current state
      fails to satisfy (via the pair-indexed :class:`AvailableState`);
    * :meth:`would_orphan` — whether deleting one entry would leave any
      *other* entry with a dangling reference.

    The orphan check decomposes exactly as the linear rebuild does.
    Deleting D orphans iff (1) some other entry is *already* dangling in
    the full state (removal cannot repair it — the remaining state is a
    subset), or (2) D's exported keyset is the last copy (refcount 1) and
    some demand held by another entry is satisfied by that keyset alone.
    Both terms are answered from refcounted demand bookkeeping:
    ``_holders`` counts how many installed reference instances share each
    demand, ``_unsat`` tracks the demands unsatisfied in the full state,
    and ``_by_pair`` finds the demands a disappearing keyset could strand.

    Demands are interned: every entry holding an equal demand stores the
    same immutable ``(target, frozenset)`` object, which lives exactly as
    long as its holder count is positive: routes naming one VRF and a few
    next hops keep a few demands, not two per route.
    """

    def __init__(self, refs: ReferenceGraph) -> None:
        self._refs = refs
        self.available = AvailableState()
        self._exports: Dict[Hashable, Tuple[str, KeySet]] = {}
        self._demands: Dict[Hashable, Tuple[Demand, ...]] = {}
        self._holders: Dict[Demand, int] = {}
        self._canonical: Dict[Demand, Demand] = {}  # the one shared copy
        self._unsat: Dict[Demand, int] = {}  # demand -> unsatisfied instances
        self._by_pair: Dict[Tuple[str, Tuple[str, int]], Set[Demand]] = {}

    # ------------------------------------------------------------------
    # Store mirroring
    # ------------------------------------------------------------------
    def insert(self, key: Hashable, entry: TableEntry) -> None:
        exported = self._refs.exported_keyset(entry)
        if exported is not None:
            self._exports[key] = exported
            self._add_export(*exported)
        demands = tuple(
            self._register((target, frozenset(pairs)))
            for _source, target, pairs in self._refs._extract(entry)
        )
        if demands:
            self._demands[key] = demands

    def delete(self, key: Hashable) -> None:
        for demand in self._demands.pop(key, ()):
            self._unregister(demand)
        exported = self._exports.pop(key, None)
        if exported is not None:
            self._remove_export(*exported)

    def replace(self, key: Hashable, entry: TableEntry) -> None:
        """MODIFY: same identity, possibly different references."""
        self.delete(key)
        self.insert(key, entry)

    def rebuild(self, items: Iterable[Tuple[Hashable, TableEntry]]) -> None:
        self.available = AvailableState()
        self._exports.clear()
        self._demands.clear()
        self._holders.clear()
        self._canonical.clear()
        self._unsat.clear()
        self._by_pair.clear()
        for key, entry in items:
            self.insert(key, entry)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def dangling(self, entry: TableEntry) -> List[Reference]:
        return self._refs.dangling_references(entry, self.available)

    def would_orphan(self, key: Hashable) -> bool:
        mine: Dict[Demand, int] = {}
        for demand in self._demands.get(key, ()):
            mine[demand] = mine.get(demand, 0) + 1
        # (1) Any dangling reference held by another entry stays dangling.
        for demand, instances in self._unsat.items():
            if instances > mine.get(demand, 0):
                return True
        # (2) Demands whose only satisfier is this entry's exported keyset.
        exported = self._exports.get(key)
        if exported is None:
            return False
        table, keyset = exported
        if self.available.count(table, keyset) > 1:
            return False  # another entry exports the same keyset
        candidates: Set[Demand] = set()
        for pair in keyset:
            candidates.update(self._by_pair.get((table, pair), ()))
        for demand in candidates:
            target, pairs = demand
            if target != table or not pairs <= keyset:
                continue
            if self._holders.get(demand, 0) <= mine.get(demand, 0):
                continue  # held only by the entry being deleted
            if len(self.available.satisfying_keysets(target, pairs)) == 1:
                return True
        return False

    # ------------------------------------------------------------------
    # Demand bookkeeping
    # ------------------------------------------------------------------
    def _register(self, demand: Demand) -> Demand:
        """Count one more holder of ``demand``; returns its shared copy."""
        demand = self._canonical.setdefault(demand, demand)
        count = self._holders.get(demand, 0)
        self._holders[demand] = count + 1
        if count == 0:
            target, pairs = demand
            for pair in pairs:
                self._by_pair.setdefault((target, pair), set()).add(demand)
            if not self.available.satisfying_keysets(target, pairs):
                self._unsat[demand] = 1
        elif demand in self._unsat:
            self._unsat[demand] += 1
        return demand

    def _unregister(self, demand: Demand) -> None:
        count = self._holders.get(demand, 0)
        if count <= 1:
            self._holders.pop(demand, None)
            self._canonical.pop(demand, None)
            self._unsat.pop(demand, None)
            target, pairs = demand
            for pair in pairs:
                holders = self._by_pair.get((target, pair))
                if holders is not None:
                    holders.discard(demand)
                    if not holders:
                        del self._by_pair[(target, pair)]
            return
        self._holders[demand] = count - 1
        if demand in self._unsat:
            self._unsat[demand] -= 1
            if self._unsat[demand] <= 0:
                del self._unsat[demand]

    def _add_export(self, table: str, keyset: KeySet) -> None:
        fresh = self.available.count(table, keyset) == 0
        self.available.add(table, keyset)
        if not fresh:
            return
        # A newly available keyset can only *satisfy* demands.
        for pair in keyset:
            for demand in list(self._by_pair.get((table, pair), ())):
                if demand in self._unsat and demand[1] <= keyset:
                    del self._unsat[demand]

    def _remove_export(self, table: str, keyset: KeySet) -> None:
        self.available.remove(table, keyset)
        if self.available.count(table, keyset) > 0:
            return
        # The keyset left the available state: demands it covered may now
        # be unsatisfied.
        candidates: Set[Demand] = set()
        for pair in keyset:
            candidates.update(self._by_pair.get((table, pair), ()))
        for demand in candidates:
            target, pairs = demand
            if demand in self._unsat or not pairs <= keyset:
                continue
            if not self.available.satisfying_keysets(target, pairs):
                self._unsat[demand] = self._holders.get(demand, 0)
