"""Decoded (model-level) table entries and wire → model conversion.

Wire-level :class:`~repro.p4rt.messages.TableEntry` objects carry raw bytes
and numeric IDs.  The interpreter and the symbolic executor want decoded
entries: names, integers, and per-key match semantics.  The decoder here is
the *reference* implementation of the P4Runtime syntactic-validity rules
(§4 "Valid and Invalid Requests") used by the fuzzer's oracle and the
simulator; the switch under test has its own independent validation path in
:mod:`repro.switch.p4rt_server`, so a disagreement between the two is a
detectable bug — in either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from repro.p4.ast import MatchKind
from repro.p4.p4info import P4Info, TableInfo
from repro.p4.constraints.evaluator import KeyValue
from repro.p4rt import codec
from repro.p4rt.messages import (
    ActionInvocation,
    ActionProfileActionSet,
    FieldMatch,
    TableEntry,
)


class EntryDecodeError(ValueError):
    """A wire entry failed P4Runtime syntactic validation.

    ``reason`` is a stable machine-readable tag; the fuzzer's oracle keys
    its expectations on these tags.
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class DecodedMatch:
    """One decoded match clause."""

    key_name: str
    kind: MatchKind
    value: int = 0
    mask: int = 0
    prefix_len: int = 0
    present: bool = True

    def to_key_value(self) -> KeyValue:
        return KeyValue(
            value=self.value, mask=self.mask, prefix_len=self.prefix_len, present=self.present
        )


@dataclass(frozen=True)
class DecodedAction:
    """A single decoded action invocation: name + named integer params."""

    name: str
    params: Tuple[Tuple[str, int], ...] = ()

    def param_map(self) -> Dict[str, int]:
        return dict(self.params)


@dataclass(frozen=True)
class DecodedActionSet:
    """A decoded one-shot action set: weighted members."""

    members: Tuple[Tuple[DecodedAction, int], ...] = ()  # (action, weight)


@dataclass(frozen=True)
class InstalledEntry:
    """A fully decoded entry as installed in a table."""

    table_name: str
    matches: Tuple[DecodedMatch, ...]
    action: Union[DecodedAction, DecodedActionSet]
    priority: int = 0

    @cached_property
    def matches_by_key(self) -> Dict[str, DecodedMatch]:
        """``match`` as a mapping, for the per-packet loops; built on first use,
        so only entries a packet actually probes pay for it."""
        return {m.key_name: m for m in reversed(self.matches)}

    def match(self, key_name: str) -> Optional[DecodedMatch]:
        return next((m for m in self.matches if m.key_name == key_name), None)

    def key_values(self) -> Dict[str, KeyValue]:
        return {m.key_name: m.to_key_value() for m in self.matches}

    def identity(self) -> Tuple:
        """Identity per the P4Runtime spec: matches + priority, not action."""
        canon = tuple(
            sorted(
                (m.key_name, m.kind.value, m.value, m.mask, m.prefix_len, m.present)
                for m in self.matches
            )
        )
        return (self.table_name, canon, self.priority)


def decode_table_entry(p4info: P4Info, entry: TableEntry) -> InstalledEntry:
    """Decode and validate a wire entry against the catalogue.

    Raises :class:`EntryDecodeError` with a stable ``reason`` tag on any
    violation of the P4Runtime format rules:

    * ``unknown_table`` / ``unknown_match_field`` / ``unknown_action``
    * ``action_not_in_table`` — action exists but is not permitted here
    * ``default_only_action`` — @defaultonly action used in an entry
    * ``duplicate_match_field`` — two clauses for the same field id
    * ``missing_mandatory_match`` — an exact key was omitted
    * ``match_type_mismatch`` — clause kind differs from the declared kind
    * ``value_out_of_range`` / ``non_canonical_value``
    * ``invalid_prefix_length`` / ``invalid_mask``
    * ``missing_action`` / ``missing_action_param`` / ``unknown_action_param``
    * ``expects_action_set`` / ``expects_single_action`` — one-shot selector
      tables require action sets and vice versa (§4.2 Invalid Table
      Implementation)
    * ``invalid_weight`` — non-positive action-set weight
    * ``missing_priority`` / ``unexpected_priority``
    """
    table = p4info.tables.get(entry.table_id)
    if table is None:
        raise EntryDecodeError("unknown_table", f"table id 0x{entry.table_id:08x}")

    matches = _decode_matches(table, entry)
    _check_priority(table, entry)
    action = _decode_action(p4info, table, entry)
    return InstalledEntry(
        table_name=table.name,
        matches=tuple(matches),
        action=action,
        priority=entry.priority,
    )


def _decode_matches(table: TableInfo, entry: TableEntry) -> List[DecodedMatch]:
    seen_ids = set()
    matches: List[DecodedMatch] = []
    for fm in entry.matches:
        if fm.field_id in seen_ids:
            raise EntryDecodeError("duplicate_match_field", f"field id {fm.field_id}")
        seen_ids.add(fm.field_id)
        mf = table.match_field_by_id(fm.field_id)
        if mf is None:
            raise EntryDecodeError(
                "unknown_match_field", f"field id {fm.field_id} in table {table.name}"
            )
        if fm.kind != mf.match_type.value:
            raise EntryDecodeError(
                "match_type_mismatch",
                f"{table.name}.{mf.name} is {mf.match_type.value}, clause says {fm.kind}",
            )
        matches.append(_decode_one_match(table, mf, fm))
    # Mandatory (exact) fields must all be present; omitted lpm/ternary/
    # optional fields are wildcards — but a wildcard ("don't care") clause
    # must be *omitted*, not sent explicitly.
    for mf in table.match_fields:
        if mf.match_type is MatchKind.EXACT and mf.id not in seen_ids:
            raise EntryDecodeError(
                "missing_mandatory_match", f"{table.name}.{mf.name} (exact) omitted"
            )
        if mf.id not in seen_ids:
            matches.append(
                DecodedMatch(
                    key_name=mf.name,
                    kind=mf.match_type,
                    value=0,
                    mask=0,
                    prefix_len=0,
                    present=False,
                )
            )
    matches.sort(key=lambda m: m.key_name)
    return matches


def _decode_value(data: bytes, bitwidth: int, what: str) -> int:
    if not codec.is_canonical(data):
        raise EntryDecodeError("non_canonical_value", f"{what}: {data.hex()!r}")
    try:
        return codec.decode(data, bitwidth)
    except codec.CodecError as exc:
        raise EntryDecodeError("value_out_of_range", f"{what}: {exc}") from exc


def _decode_one_match(table: TableInfo, mf, fm: FieldMatch) -> DecodedMatch:
    what = f"{table.name}.{mf.name}"
    value = _decode_value(fm.value, mf.bitwidth, what)
    if mf.match_type is MatchKind.EXACT:
        return DecodedMatch(
            key_name=mf.name,
            kind=mf.match_type,
            value=value,
            mask=(1 << mf.bitwidth) - 1,
            prefix_len=mf.bitwidth,
        )
    if mf.match_type is MatchKind.LPM:
        if not 0 < fm.prefix_len <= mf.bitwidth:
            # prefix 0 means wildcard, which must be expressed by omission.
            raise EntryDecodeError(
                "invalid_prefix_length", f"{what}: /{fm.prefix_len} for {mf.bitwidth}-bit field"
            )
        mask = codec.mask_for_prefix(fm.prefix_len, mf.bitwidth)
        if value & ~mask:
            raise EntryDecodeError(
                "invalid_mask", f"{what}: value has bits outside /{fm.prefix_len}"
            )
        return DecodedMatch(
            key_name=mf.name,
            kind=mf.match_type,
            value=value,
            mask=mask,
            prefix_len=fm.prefix_len,
        )
    if mf.match_type is MatchKind.TERNARY:
        mask = _decode_value(fm.mask, mf.bitwidth, f"{what} mask")
        if mask == 0:
            raise EntryDecodeError("invalid_mask", f"{what}: zero mask must be omitted")
        if value & ~mask:
            raise EntryDecodeError("invalid_mask", f"{what}: value has bits outside mask")
        return DecodedMatch(key_name=mf.name, kind=mf.match_type, value=value, mask=mask)
    # OPTIONAL: behaves like exact-when-present.
    return DecodedMatch(
        key_name=mf.name,
        kind=mf.match_type,
        value=value,
        mask=(1 << mf.bitwidth) - 1,
    )


def _check_priority(table: TableInfo, entry: TableEntry) -> None:
    if table.requires_priority:
        if entry.priority <= 0:
            raise EntryDecodeError(
                "missing_priority", f"table {table.name} requires a positive priority"
            )
    else:
        if entry.priority != 0:
            raise EntryDecodeError(
                "unexpected_priority", f"table {table.name} does not use priorities"
            )


def _decode_invocation(p4info: P4Info, table: TableInfo, inv: ActionInvocation) -> DecodedAction:
    action = p4info.actions.get(inv.action_id)
    if action is None:
        raise EntryDecodeError("unknown_action", f"action id 0x{inv.action_id:08x}")
    if action.id not in table.action_ids:
        if action.id in table.default_only_action_ids:
            raise EntryDecodeError(
                "default_only_action", f"{action.name} is @defaultonly in {table.name}"
            )
        raise EntryDecodeError(
            "action_not_in_table", f"action {action.name} not allowed in {table.name}"
        )
    seen = set()
    params: List[Tuple[str, int]] = []
    for pid, data in inv.params:
        pinfo = action.param_by_id(pid)
        if pinfo is None:
            raise EntryDecodeError(
                "unknown_action_param", f"{action.name} has no param id {pid}"
            )
        if pid in seen:
            raise EntryDecodeError("duplicate_action_param", f"{action.name} param {pid}")
        seen.add(pid)
        value = _decode_value(data, pinfo.bitwidth, f"{action.name}.{pinfo.name}")
        params.append((pinfo.name, value))
    for pinfo in action.params:
        if pinfo.id not in seen:
            raise EntryDecodeError(
                "missing_action_param", f"{action.name}.{pinfo.name} omitted"
            )
    return DecodedAction(name=action.name, params=tuple(sorted(params)))


def _decode_action(
    p4info: P4Info, table: TableInfo, entry: TableEntry
) -> Union[DecodedAction, DecodedActionSet]:
    if entry.action is None:
        raise EntryDecodeError("missing_action", f"entry for {table.name} has no action")
    if table.implementation_id != 0:
        # One-shot action-selector table: requires an action set.
        if not isinstance(entry.action, ActionProfileActionSet):
            raise EntryDecodeError(
                "expects_action_set",
                f"{table.name} uses a selector; single actions not allowed",
            )
        if not entry.action.actions:
            raise EntryDecodeError("missing_action", f"empty action set for {table.name}")
        profile = p4info.action_profiles.get(table.implementation_id)
        members: List[Tuple[DecodedAction, int]] = []
        total_weight = 0
        for member in entry.action.actions:
            if member.weight <= 0:
                raise EntryDecodeError(
                    "invalid_weight", f"non-positive weight {member.weight} in action set"
                )
            total_weight += member.weight
            members.append((_decode_invocation(p4info, table, member.action), member.weight))
        if profile is not None and total_weight > profile.max_group_size:
            raise EntryDecodeError(
                "invalid_weight",
                f"total weight {total_weight} exceeds max group size {profile.max_group_size}",
            )
        return DecodedActionSet(members=tuple(members))
    if isinstance(entry.action, ActionProfileActionSet):
        raise EntryDecodeError(
            "expects_single_action", f"{table.name} is a direct table; action sets not allowed"
        )
    return _decode_invocation(p4info, table, entry.action)
