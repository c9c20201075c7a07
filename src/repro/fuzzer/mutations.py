"""The mutation catalogue (§4.2).

Naïve random requests are syntactically invalid with high probability and
only exercise the switch's first few checks.  Instead, each mutation takes
a *valid* update and breaks exactly one property, producing an
"interestingly invalid" request that reaches deep into the control stack.
The catalogue follows the paper's list: Invalid ID, Invalid Table Action,
Invalid Match Type, Duplicate Match Field, Missing Mandatory Match Field,
Invalid Action Selector Weight, Invalid Table Implementation, Invalid
Reference, invalid resources (ports), duplicates and non-existent deletes —
plus encoding mutations (non-canonical / overflowing values) that probe the
byte-handling layer.

Each mutation returns a new :class:`MutatedUpdate` carrying the expectation
the oracle should enforce, or ``None`` when inapplicable to the given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.p4.ast import MatchKind
from repro.p4.p4info import P4Info
from repro.p4rt import codec
from repro.p4rt.messages import (
    ActionInvocation,
    ActionProfileAction,
    ActionProfileActionSet,
    TableEntry,
    Update,
    UpdateType,
)

# Expectations the oracle enforces for a mutated update.
MUST_REJECT = "must_reject"  # invalid: switch must reject
VALID = "valid"  # still valid: normal oracle rules apply


@dataclass(frozen=True)
class MutatedUpdate:
    update: Update
    mutation: str
    expectation: str


Mutator = Callable[[random.Random, P4Info, Update], Optional[MutatedUpdate]]
# Stateful mutators additionally see the generator's installed-state view
# (``entries``, a dict keyed by match_key, and ``victims``, its values as an
# indexable sequence: a campaign's Oracle, or a standalone GeneratorState),
# or None when the caller has no state to offer.
StatefulMutator = Callable[
    [random.Random, P4Info, Update, Optional[object]], Optional[MutatedUpdate]
]

_MUTATORS: Dict[str, Mutator] = {}
_STATEFUL_MUTATORS: Dict[str, StatefulMutator] = {}


def _mutation(name: str):
    def register(fn: Mutator) -> Mutator:
        _MUTATORS[name] = fn
        return fn

    return register


def _stateful_mutation(name: str):
    def register(fn: StatefulMutator) -> StatefulMutator:
        _STATEFUL_MUTATORS[name] = fn
        return fn

    return register


def _fresh_id(rng: random.Random, taken) -> int:
    while True:
        candidate = rng.randint(1, 0x00FFFFFF) | (rng.randint(1, 0x7F) << 24)
        if candidate not in taken:
            return candidate


def _single_invocation(entry: TableEntry) -> Optional[ActionInvocation]:
    if isinstance(entry.action, ActionInvocation):
        return entry.action
    return None


# ----------------------------------------------------------------------
# ID and structure mutations
# ----------------------------------------------------------------------


@_mutation("invalid_table_id")
def invalid_table_id(rng, p4info, update):
    entry = replace(update.entry, table_id=_fresh_id(rng, set(p4info.tables)))
    return MutatedUpdate(Update(update.type, entry), "invalid_table_id", MUST_REJECT)


@_mutation("invalid_match_field_id")
def invalid_match_field_id(rng, p4info, update):
    if not update.entry.matches:
        return None
    table = p4info.tables.get(update.entry.table_id)
    if table is None:
        return None
    taken = {mf.id for mf in table.match_fields}
    index = rng.randrange(len(update.entry.matches))
    matches = list(update.entry.matches)
    matches[index] = replace(matches[index], field_id=max(taken) + rng.randint(1, 5))
    entry = replace(update.entry, matches=tuple(matches))
    return MutatedUpdate(Update(update.type, entry), "invalid_match_field_id", MUST_REJECT)


@_mutation("invalid_action_id")
def invalid_action_id(rng, p4info, update):
    inv = _single_invocation(update.entry)
    if inv is None:
        return None
    entry = replace(
        update.entry, action=replace(inv, action_id=_fresh_id(rng, set(p4info.actions)))
    )
    return MutatedUpdate(Update(update.type, entry), "invalid_action_id", MUST_REJECT)


@_mutation("invalid_table_action")
def invalid_table_action(rng, p4info, update):
    """Replace the action with one that exists but is out of scope here."""
    table = p4info.tables.get(update.entry.table_id)
    inv = _single_invocation(update.entry)
    if table is None or inv is None:
        return None
    foreign = [a for a in p4info.actions.values() if a.id not in table.action_ids]
    if not foreign:
        return None
    action = rng.choice(foreign)
    params = tuple(
        (p.id, codec.encode(rng.getrandbits(p.bitwidth), p.bitwidth)) for p in action.params
    )
    entry = replace(update.entry, action=ActionInvocation(action.id, params))
    return MutatedUpdate(Update(update.type, entry), "invalid_table_action", MUST_REJECT)


@_mutation("invalid_match_type")
def invalid_match_type(rng, p4info, update):
    """Mislabel a match clause's kind (e.g. claim ternary for an exact key)."""
    table = p4info.tables.get(update.entry.table_id)
    if table is None or not update.entry.matches:
        return None
    index = rng.randrange(len(update.entry.matches))
    clause = update.entry.matches[index]
    mf = table.match_field_by_id(clause.field_id)
    if mf is None:
        return None
    other_kinds = [k.value for k in MatchKind if k.value != clause.kind]
    mutated = replace(clause, kind=rng.choice(other_kinds))
    matches = list(update.entry.matches)
    matches[index] = mutated
    entry = replace(update.entry, matches=tuple(matches))
    return MutatedUpdate(Update(update.type, entry), "invalid_match_type", MUST_REJECT)


@_mutation("duplicate_match_field")
def duplicate_match_field(rng, p4info, update):
    if not update.entry.matches:
        return None
    clause = rng.choice(update.entry.matches)
    entry = replace(update.entry, matches=update.entry.matches + (clause,))
    return MutatedUpdate(Update(update.type, entry), "duplicate_match_field", MUST_REJECT)


@_mutation("missing_mandatory_match_field")
def missing_mandatory_match_field(rng, p4info, update):
    table = p4info.tables.get(update.entry.table_id)
    if table is None:
        return None
    exact_ids = {
        mf.id for mf in table.match_fields if mf.match_type is MatchKind.EXACT
    }
    present = [m for m in update.entry.matches if m.field_id in exact_ids]
    if not present:
        return None
    victim = rng.choice(present)
    matches = tuple(m for m in update.entry.matches if m is not victim)
    entry = replace(update.entry, matches=matches)
    return MutatedUpdate(
        Update(update.type, entry), "missing_mandatory_match_field", MUST_REJECT
    )


# ----------------------------------------------------------------------
# One-shot action selector mutations (§4.2)
# ----------------------------------------------------------------------


@_mutation("invalid_action_selector_weight")
def invalid_action_selector_weight(rng, p4info, update):
    action = update.entry.action
    if not isinstance(action, ActionProfileActionSet) or not action.actions:
        return None
    index = rng.randrange(len(action.actions))
    members = list(action.actions)
    members[index] = replace(members[index], weight=rng.choice([0, -1, -5]))
    entry = replace(update.entry, action=ActionProfileActionSet(tuple(members)))
    return MutatedUpdate(
        Update(update.type, entry), "invalid_action_selector_weight", MUST_REJECT
    )


@_mutation("invalid_table_implementation")
def invalid_table_implementation(rng, p4info, update):
    """Send an action set to a single-action table, or vice versa."""
    entry = update.entry
    table = p4info.tables.get(entry.table_id)
    if table is None or entry.action is None:
        return None
    if isinstance(entry.action, ActionInvocation):
        mutated = ActionProfileActionSet(
            (ActionProfileAction(action=entry.action, weight=1),)
        )
    else:
        if not entry.action.actions:
            return None
        mutated = entry.action.actions[0].action
    new_entry = replace(entry, action=mutated)
    return MutatedUpdate(
        Update(update.type, new_entry), "invalid_table_implementation", MUST_REJECT
    )


# ----------------------------------------------------------------------
# Reference and resource mutations
# ----------------------------------------------------------------------


@_mutation("invalid_reference")
def invalid_reference(rng, p4info, update):
    """Point a @refers_to field/param at a non-existent value (§4.4)."""
    entry = update.entry
    table = p4info.tables.get(entry.table_id)
    if table is None:
        return None
    # Try match-key references first.
    for index, clause in enumerate(entry.matches):
        mf = table.match_field_by_id(clause.field_id)
        if mf is None:
            continue
        if (table.name, mf.name) in p4info.references:
            bogus = (1 << mf.bitwidth) - 1 - rng.randint(0, 7)
            matches = list(entry.matches)
            matches[index] = replace(clause, value=codec.encode(bogus, mf.bitwidth))
            mutated = replace(entry, matches=tuple(matches))
            return MutatedUpdate(
                Update(update.type, mutated), "invalid_reference", MUST_REJECT
            )
    # Then action-parameter references.
    inv = _single_invocation(entry)
    if inv is not None:
        action = p4info.actions.get(inv.action_id)
        if action is not None:
            for pindex, (pid, _data) in enumerate(inv.params):
                pinfo = action.param_by_id(pid)
                if pinfo is not None and pinfo.refers_to:
                    bogus = (1 << pinfo.bitwidth) - 1 - rng.randint(0, 7)
                    params = list(inv.params)
                    params[pindex] = (pid, codec.encode(bogus, pinfo.bitwidth))
                    mutated = replace(entry, action=replace(inv, params=tuple(params)))
                    return MutatedUpdate(
                        Update(update.type, mutated), "invalid_reference", MUST_REJECT
                    )
    return None


@_mutation("invalid_port_resource")
def invalid_port_resource(rng, p4info, update):
    """A port-typed action argument outside the switch's port inventory."""
    inv = _single_invocation(update.entry)
    if inv is None:
        return None
    action = p4info.actions.get(inv.action_id)
    if action is None:
        return None
    for pindex, (pid, _data) in enumerate(inv.params):
        pinfo = action.param_by_id(pid)
        if pinfo is not None and pinfo.name == "port":
            bogus = 0x3FFF  # far outside any inventory
            params = list(inv.params)
            params[pindex] = (pid, codec.encode(bogus, pinfo.bitwidth))
            entry = replace(update.entry, action=replace(inv, params=tuple(params)))
            return MutatedUpdate(
                Update(update.type, entry), "invalid_port_resource", MUST_REJECT
            )
    return None


# ----------------------------------------------------------------------
# Encoding mutations
# ----------------------------------------------------------------------


@_mutation("non_canonical_value")
def non_canonical_value(rng, p4info, update):
    """Pad a value with redundant leading zero bytes."""
    if not update.entry.matches:
        return None
    index = rng.randrange(len(update.entry.matches))
    clause = update.entry.matches[index]
    matches = list(update.entry.matches)
    matches[index] = replace(clause, value=b"\x00" + clause.value)
    entry = replace(update.entry, matches=tuple(matches))
    return MutatedUpdate(Update(update.type, entry), "non_canonical_value", MUST_REJECT)


@_mutation("value_out_of_range")
def value_out_of_range(rng, p4info, update):
    """A value wider than the declared field width."""
    table = p4info.tables.get(update.entry.table_id)
    if table is None or not update.entry.matches:
        return None
    index = rng.randrange(len(update.entry.matches))
    clause = update.entry.matches[index]
    mf = table.match_field_by_id(clause.field_id)
    if mf is None:
        return None
    too_big = 1 << mf.bitwidth
    length = (too_big.bit_length() + 7) // 8
    matches = list(update.entry.matches)
    matches[index] = replace(clause, value=too_big.to_bytes(length, "big"))
    entry = replace(update.entry, matches=tuple(matches))
    return MutatedUpdate(Update(update.type, entry), "value_out_of_range", MUST_REJECT)


@_mutation("wrong_priority")
def wrong_priority(rng, p4info, update):
    """Omit a required priority, or supply one where forbidden."""
    table = p4info.tables.get(update.entry.table_id)
    if table is None:
        return None
    entry = (
        replace(update.entry, priority=0)
        if table.requires_priority
        else replace(update.entry, priority=rng.randint(1, 10))
    )
    return MutatedUpdate(Update(update.type, entry), "wrong_priority", MUST_REJECT)


# ----------------------------------------------------------------------
# Stateful mutations: duplicates and ghosts (valid-formed, state-dependent)
# ----------------------------------------------------------------------


@_stateful_mutation("duplicate_insert")
def duplicate_insert(rng, p4info, update, state):
    """Re-insert an *installed* entry: must fail with ALREADY_EXISTS.

    The duplicate is drawn from the generator's installed-state view, so
    the switch's duplicate check is exercised deliberately — not left to
    accidental key collisions in the fresh-insert stream.  Inapplicable
    when nothing is installed yet (or no state view was supplied).  The
    re-insert is well-formed; the oracle's state tracking supplies the
    ALREADY_EXISTS expectation, so this is tagged VALID here.
    """
    if update.type is not UpdateType.INSERT:
        return None
    if state is None or not state.entries:
        return None
    victim = rng.choice(state.victims)
    return MutatedUpdate(
        Update(UpdateType.INSERT, victim), "duplicate_insert", VALID
    )


@_stateful_mutation("delete_nonexistent")
def delete_nonexistent(rng, p4info, update, state):
    """Delete an entry that was never installed: must fail NOT_FOUND.

    The fresh insert's key could collide with an installed entry (small
    exact key spaces make this common), in which case the delete would
    legitimately succeed; the installed-state view rules those out so the
    mutant really targets a never-installed key.
    """
    if update.type is not UpdateType.INSERT:
        return None
    if state is not None and update.entry.match_key() in state.entries:
        return None
    return MutatedUpdate(
        Update(UpdateType.DELETE, update.entry), "delete_nonexistent", VALID
    )


MUTATION_NAMES: List[str] = sorted({**_MUTATORS, **_STATEFUL_MUTATORS})


def _run_mutator(
    name: str, rng: random.Random, p4info: P4Info, update: Update, state
) -> Optional[MutatedUpdate]:
    stateful = _STATEFUL_MUTATORS.get(name)
    if stateful is not None:
        return stateful(rng, p4info, update, state)
    return _MUTATORS[name](rng, p4info, update)


def apply_random_mutation(
    rng: random.Random,
    p4info: P4Info,
    update: Update,
    allowed: Optional[List[str]] = None,
    state=None,
) -> Optional[MutatedUpdate]:
    """Apply one randomly chosen applicable mutation to a valid update.

    The try-order is a uniform shuffle; ``state`` is the generator's
    installed-state view for the stateful mutations.
    """
    names = list(allowed) if allowed is not None else list(MUTATION_NAMES)
    rng.shuffle(names)
    for name in names:
        mutated = _run_mutator(name, rng, p4info, update, state)
        if mutated is not None:
            return mutated
    return None


def apply_mutation(
    name: str, rng: random.Random, p4info: P4Info, update: Update, state=None
) -> Optional[MutatedUpdate]:
    return _run_mutator(name, rng, p4info, update, state)
