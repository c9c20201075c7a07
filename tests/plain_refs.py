"""Plain @refers_to extraction: the executable spec of ``ReferenceGraph``'s plans.

:class:`repro.p4.constraints.refs.ReferenceGraph` compiles, per table and
per action, which match fields and parameters a reference names, decodes
only those, and lets only tables some ``@refers_to`` targets export a
keyset.  :class:`PlainReferenceGraph` is the graph as it was before: every
match clause and every parameter looked up by a scan of the catalogue and
decoded, every table exporting a keyset, and "is this table referenced?"
answered by walking every edge.  Slow on purpose; the tests require the
production graph to produce the same references, the same demands and,
for every referenced table, the same available keysets.
"""

from typing import Dict, List, Optional, Tuple

from repro.p4.constraints.refs import KeySet, Reference, ReferenceGraph
from repro.p4rt import codec
from repro.p4rt.messages import ActionInvocation, ActionProfileActionSet, TableEntry


def _first(items, ident):
    """The first declared item with this id (the catalogue's rule)."""
    return next((item for item in items if item.id == ident), None)


class PlainReferenceGraph(ReferenceGraph):
    def is_referenced_table(self, table_name: str) -> bool:
        if any(t == table_name for (t, _k) in self._key_edges.values()):
            return True
        return any(table_name in groups for groups in self._action_edges.values())

    def references_of(self, entry: TableEntry) -> List[Reference]:
        table = self._p4info.tables.get(entry.table_id)
        if table is None:
            return []
        out: List[Reference] = []
        for match in entry.matches:
            mf = _first(table.match_fields, match.field_id)
            if mf is None:
                continue
            target = self._key_edges.get((table.name, mf.name))
            if target is None:
                continue
            try:
                value = codec.decode(match.value, mf.bitwidth, strict=False)
            except codec.CodecError:
                continue
            out.append(
                Reference(
                    source=f"{table.name}.{mf.name}",
                    target_table=target[0],
                    pairs=((target[1], value),),
                )
            )
        out.extend(self._action_references(entry))
        return out

    def _action_references(self, entry: TableEntry) -> List[Reference]:
        invocations: List[ActionInvocation] = []
        if isinstance(entry.action, ActionInvocation):
            invocations = [entry.action]
        elif isinstance(entry.action, ActionProfileActionSet):
            invocations = [m.action for m in entry.action.actions]
        out: List[Reference] = []
        for inv in invocations:
            action = self._p4info.actions.get(inv.action_id)
            if action is None:
                continue
            values: Dict[str, int] = {}
            for pid, data in inv.params:
                pinfo = _first(action.params, pid)
                if pinfo is None:
                    continue
                try:
                    values[pinfo.name] = codec.decode(data, pinfo.bitwidth, strict=False)
                except codec.CodecError:
                    continue
            for target_table, pairs in self._action_edges.get(action.name, {}).items():
                demanded = tuple(
                    (key, values[param_name])
                    for param_name, key in pairs
                    if param_name in values
                )
                if demanded:
                    out.append(
                        Reference(
                            source=action.name,
                            target_table=target_table,
                            pairs=demanded,
                        )
                    )
        return out

    def exported_keyset(self, entry: TableEntry) -> Optional[Tuple[str, KeySet]]:
        table = self._p4info.tables.get(entry.table_id)
        if table is None:
            return None
        pairs = []
        for match in entry.matches:
            mf = _first(table.match_fields, match.field_id)
            if mf is None:
                continue
            try:
                value = codec.decode(match.value, mf.bitwidth, strict=False)
            except codec.CodecError:
                continue
            pairs.append((mf.name, value))
        if not pairs:
            return None
        return (table.name, frozenset(pairs))
