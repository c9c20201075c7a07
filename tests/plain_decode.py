"""Plain wire-entry decoding: the executable spec of ``decode_table_entry``.

:func:`repro.bmv2.entries.decode_table_entry` decodes through a plan
compiled once per table (:class:`~repro.bmv2.entries.TableDecodePlan`):
field kinds read as strings, one wildcard clause shared by every entry
omitting a field, and one :class:`DecodedAction` shared by every entry of
the table with an equal invocation.  :func:`plain_decode_table_entry` is
the decoder as it was before: every lookup through the catalogue, every
clause and action built afresh.  Slow on purpose; the tests require the
production decoder to return an equal entry or raise the same ``reason``.
"""

from typing import List, Tuple, Union

from repro.bmv2.entries import (
    DecodedAction,
    DecodedActionSet,
    DecodedMatch,
    EntryDecodeError,
    InstalledEntry,
)
from repro.p4.ast import MatchKind
from repro.p4.p4info import P4Info, TableInfo
from repro.p4rt import codec
from repro.p4rt.messages import (
    ActionInvocation,
    ActionProfileActionSet,
    FieldMatch,
    TableEntry,
)


def plain_decode_table_entry(p4info: P4Info, entry: TableEntry) -> InstalledEntry:
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
