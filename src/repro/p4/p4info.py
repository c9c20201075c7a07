"""P4Info: the control-plane catalogue derived from a P4 program.

In the real system the P4 compiler emits a ``P4Info`` protobuf enumerating
every table, match field, action and action parameter with a numeric ID; the
P4Runtime protocol addresses objects exclusively by these IDs.  p4-fuzzer's
request generator and the switch's P4Runtime server both operate on P4Info,
so faithful ID plumbing matters: one of the paper's Appendix-A bugs
("Incorrect handling of zero bytes in IDs") lives exactly here.

IDs are deterministic: stable across runs for the same program, derived from
object names.  The P4Runtime convention reserves the high byte of an ID for
the object type prefix; we follow that.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.p4.ast import Action, ActionProfile, MatchKind, P4Program

# P4Runtime object-type ID prefixes (from the P4Runtime specification).
TABLE_PREFIX = 0x02
ACTION_PREFIX = 0x01
ACTION_PROFILE_PREFIX = 0x11


def _stable_id(prefix: int, name: str) -> int:
    """A deterministic 32-bit ID with the given type prefix.

    The low 24 bits are a truncated digest of the name, forced non-zero
    (ID 0 is reserved/invalid in P4Runtime).
    """
    digest = hashlib.sha256(name.encode()).digest()
    low = int.from_bytes(digest[:3], "big")
    if low == 0:
        low = 1
    return (prefix << 24) | low


@dataclass(frozen=True)
class MatchFieldInfo:
    id: int  # 1-based position within the table
    name: str
    bitwidth: int
    match_type: MatchKind


@dataclass(frozen=True)
class ActionParamInfo:
    id: int  # 1-based position within the action
    name: str
    bitwidth: int
    # Normalised reference edges: zero or more (table, key) pairs.
    refers_to: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ActionInfo:
    id: int
    name: str
    params: Tuple[ActionParamInfo, ...]

    @cached_property
    def params_by_id(self) -> Dict[int, ActionParamInfo]:
        """Param id -> param; the first declared wins a duplicated id."""
        return {p.id: p for p in reversed(self.params)}

    def param_by_id(self, param_id: int) -> Optional[ActionParamInfo]:
        return self.params_by_id.get(param_id)


@dataclass(frozen=True)
class TableInfo:
    id: int
    name: str
    match_fields: Tuple[MatchFieldInfo, ...]
    action_ids: Tuple[int, ...]  # actions usable in entries
    default_only_action_ids: Tuple[int, ...]
    size: int
    requires_priority: bool
    implementation_id: int = 0  # action-profile id, 0 if direct-action table
    entry_restriction: Optional[str] = None

    @cached_property
    def match_fields_by_id(self) -> Dict[int, MatchFieldInfo]:
        """Field id -> field; the first declared wins a duplicated id."""
        return {mf.id: mf for mf in reversed(self.match_fields)}

    @cached_property
    def _match_fields_by_name(self) -> Dict[str, MatchFieldInfo]:
        return {mf.name: mf for mf in reversed(self.match_fields)}

    @cached_property
    def decode_plan(self):
        """The wire decoder's :class:`~repro.bmv2.entries.TableDecodePlan`
        for this table, compiled on first use."""
        from repro.bmv2.entries import TableDecodePlan  # the decoder's own layer

        return TableDecodePlan(self)

    def match_field_by_id(self, field_id: int) -> Optional[MatchFieldInfo]:
        return self.match_fields_by_id.get(field_id)

    def match_field_by_name(self, name: str) -> Optional[MatchFieldInfo]:
        return self._match_fields_by_name.get(name)


@dataclass(frozen=True)
class ActionProfileInfo:
    id: int
    name: str
    max_group_size: int
    table_ids: Tuple[int, ...]


@dataclass
class P4Info:
    """The complete catalogue for one P4 program."""

    program_name: str
    tables: Dict[int, TableInfo] = field(default_factory=dict)
    actions: Dict[int, ActionInfo] = field(default_factory=dict)
    action_profiles: Dict[int, ActionProfileInfo] = field(default_factory=dict)
    # refers_to edges: (table_name, key_or_param_name) -> (ref table, ref key)
    references: Dict[Tuple[str, str], Tuple[str, str]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Lookups (by id and by name)
    # ------------------------------------------------------------------
    def table_by_name(self, name: str) -> Optional[TableInfo]:
        for t in self.tables.values():
            if t.name == name:
                return t
        return None

    def action_by_name(self, name: str) -> Optional[ActionInfo]:
        for a in self.actions.values():
            if a.name == name:
                return a
        return None

    def table_ids(self) -> List[int]:
        return sorted(self.tables)

    def action_ids(self) -> List[int]:
        return sorted(self.actions)

    def valid_action_ids_for(self, table_id: int) -> Tuple[int, ...]:
        info = self.tables.get(table_id)
        return info.action_ids if info else ()

    def fingerprint(self) -> str:
        """A digest of the catalogue; changes iff the API contract changes."""
        h = hashlib.sha256()
        h.update(self.program_name.encode())
        for tid in sorted(self.tables):
            t = self.tables[tid]
            h.update(
                repr(
                    (
                        tid,
                        t.name,
                        [(m.id, m.name, m.bitwidth, m.match_type.value) for m in t.match_fields],
                        t.action_ids,
                        t.size,
                        t.entry_restriction,
                    )
                ).encode()
            )
        for aid in sorted(self.actions):
            a = self.actions[aid]
            h.update(repr((aid, a.name, [(p.id, p.name, p.bitwidth) for p in a.params])).encode())
        return h.hexdigest()


def build_p4info(program: P4Program) -> P4Info:
    """Derive the P4Info catalogue from a program (compiler front-end role).

    Only programmable tables appear: logical tables (modeling artifacts,
    §3 "Mirror Sessions") are not part of the controller contract.
    """
    # Imported here: the constraints package depends on this module for the
    # reference-graph types, so a top-level import would be circular.
    from repro.p4.constraints.lang import normalize_constraint_text

    info = P4Info(program_name=program.name)

    def ensure_action(action: Action) -> int:
        aid = _stable_id(ACTION_PREFIX, action.name)
        if aid not in info.actions:
            params = tuple(
                ActionParamInfo(
                    id=i + 1, name=p.name, bitwidth=p.width, refers_to=p.references()
                )
                for i, p in enumerate(action.params)
            )
            info.actions[aid] = ActionInfo(id=aid, name=action.name, params=params)
            for p in action.params:
                for target in p.references():
                    info.references[(action.name, p.name)] = target
        return aid

    profile_tables: Dict[str, List[int]] = {}
    profile_specs: Dict[str, ActionProfile] = {}

    for table in program.programmable_tables():
        tid = _stable_id(TABLE_PREFIX, table.name)
        match_fields = tuple(
            MatchFieldInfo(
                id=i + 1,
                name=k.key_name,
                bitwidth=program.field_width(k.field.path),
                match_type=k.kind,
            )
            for i, k in enumerate(table.keys)
        )
        entry_action_ids = []
        default_only_ids = []
        for ref in table.actions:
            aid = ensure_action(ref.action)
            if ref.default_only:
                default_only_ids.append(aid)
            else:
                entry_action_ids.append(aid)
        ensure_action(table.default_action)
        impl_id = 0
        if table.implementation is not None:
            impl_id = _stable_id(ACTION_PROFILE_PREFIX, table.implementation.name)
            profile_tables.setdefault(table.implementation.name, []).append(tid)
            profile_specs[table.implementation.name] = table.implementation
        info.tables[tid] = TableInfo(
            id=tid,
            name=table.name,
            match_fields=match_fields,
            action_ids=tuple(entry_action_ids),
            default_only_action_ids=tuple(default_only_ids),
            size=table.size,
            requires_priority=table.requires_priority,
            implementation_id=impl_id,
            entry_restriction=(
                normalize_constraint_text(table.entry_restriction)
                if table.entry_restriction
                else None
            ),
        )
        for k in table.keys:
            if k.refers_to is not None:
                info.references[(table.name, k.key_name)] = k.refers_to

    for name, tids in profile_tables.items():
        pid = _stable_id(ACTION_PROFILE_PREFIX, name)
        info.action_profiles[pid] = ActionProfileInfo(
            id=pid,
            name=name,
            max_group_size=profile_specs[name].max_group_size,
            table_ids=tuple(tids),
        )
    return info
