"""``decode_table_entry``'s per-table plans against the plain decoding spec.

The production decoder reads each table's fields, kinds and wildcard
clauses from a plan compiled once per table, and shares one
``DecodedAction`` among the table's entries with an equal invocation.
``tests/plain_decode.py`` keeps the decoder that looked everything up in
the catalogue and built every clause and action afresh.  For every wire
entry below, production decoding must return an entry ``==`` the spec's,
or raise an ``EntryDecodeError`` with the same ``reason``:

* production-like and generated entries of all four shipped models, every
  registered fuzzer mutation of them and the byte- and id-level
  corruptions of ``tests/test_reference_plans.py``;
* hand-made corruptions that, together, raise every reason the spec can
  raise — a mislabelled, dropped or out-of-range clause, a dropped
  parameter, a wrong priority, bad action-set weights, an action moved to
  an entry of another table, and a catalogue declaring an action
  ``@defaultonly``;
* hypothesis-drawn wire entries over each model's catalogue.

Entries are decoded in one long sequence per model, so memoised actions
and shared wildcards from earlier entries (of this table and of others)
are in place when later ones decode.
"""

import copy
import inspect
import random
import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bmv2.entries import (
    DecodedActionSet,
    EntryDecodeError,
    TableDecodePlan,
    decode_table_entry,
)
from repro.p4.p4info import build_p4info
from repro.p4rt import codec
from repro.p4rt.messages import (
    ActionInvocation,
    ActionProfileAction,
    ActionProfileActionSet,
    FieldMatch,
    TableEntry,
)
from tests import plain_decode
from tests.plain_decode import plain_decode_table_entry
from tests.test_reference_plans import MODELS, _pool, _variants

# Every reason the spec can raise, read from its source.
REASONS = frozenset(re.findall(r'EntryDecodeError\(\s*"(\w+)"', inspect.getsource(plain_decode)))
KINDS = ("exact", "lpm", "ternary", "optional")


def _actions(decoded):
    action = decoded.action
    if isinstance(action, DecodedActionSet):
        return [member for member, _weight in action.members]
    return [action]


def _outcome(decode, p4info, entry):
    try:
        return decode(p4info, entry)
    except EntryDecodeError as exc:
        return exc.reason


def _agree(p4info, entry):
    """The production outcome, asserted equal to the spec's."""
    expected = _outcome(plain_decode_table_entry, p4info, entry)
    assert _outcome(decode_table_entry, p4info, entry) == expected, entry
    return expected


def _corruptions(p4info, entry, foreign_actions):
    table = p4info.tables[entry.table_id]
    for index, clause in enumerate(entry.matches):
        rest = entry.matches[:index] + entry.matches[index + 1 :]
        yield replace(entry, matches=rest)  # wildcard, or a missing exact key
        for kind in KINDS:
            if kind != clause.kind:
                yield replace(entry, matches=rest + (replace(clause, kind=kind),))
        mf = table.match_field_by_id(clause.field_id)
        if mf is None:
            continue
        for prefix_len in (0, 1, mf.bitwidth + 1):
            yield replace(entry, matches=rest + (replace(clause, prefix_len=prefix_len),))
        for mask in (b"\x00", b"\x01", clause.value):
            yield replace(entry, matches=rest + (replace(clause, mask=mask),))
    invocations = []
    if isinstance(entry.action, ActionInvocation):
        invocations = [entry.action]
        inv = entry.action
        for index in range(len(inv.params)):
            params = inv.params[:index] + inv.params[index + 1 :]
            yield replace(entry, action=replace(inv, params=params))
    elif isinstance(entry.action, ActionProfileActionSet):
        invocations = [member.action for member in entry.action.actions]
        yield replace(entry, action=invocations[0])
        yield replace(entry, action=ActionProfileActionSet(()))
        for weight in (0, -1, 10_000):
            member = replace(entry.action.actions[0], weight=weight)
            yield replace(entry, action=replace(entry.action, actions=(member,)))
    for foreign in foreign_actions:
        if isinstance(foreign, ActionInvocation) and table.implementation_id:
            foreign = ActionProfileActionSet((ActionProfileAction(foreign, 1),))
        yield replace(entry, action=foreign)
    for inv in invocations:
        yield replace(entry, action=replace(inv, params=inv.params + ((1, b"\x01"),)))
    yield replace(entry, priority=0 if entry.priority else 7)
    yield replace(entry, priority=-1)


def _default_only_entries(model, pool):
    """A catalogue in which each table declares one action of another table
    ``@defaultonly``, and the pool entries invoking it there."""
    p4info = build_p4info(MODELS[model]())
    entries = []
    for tid, table in list(p4info.tables.items()):
        foreign = next(
            (
                e.action
                for e in pool
                if isinstance(e.action, ActionInvocation)
                and e.action.action_id not in table.action_ids
            ),
            None,
        )
        if foreign is None:
            continue
        p4info.tables[tid] = replace(table, default_only_action_ids=(foreign.action_id,))
        own = next((e for e in pool if e.table_id == tid), None)
        if own is not None and not table.implementation_id:
            entries.append(replace(own, action=foreign))
    return p4info, entries


@pytest.mark.parametrize("model", sorted(MODELS))
def test_decoding_equals_plain_spec(model):
    p4info = build_p4info(MODELS[model]())
    pool, state = _pool(p4info, 300, seed=5)
    rng = random.Random(11)
    actions_by_table = {}
    for entry in pool:
        actions_by_table.setdefault(entry.table_id, []).append(entry.action)
    outcomes = []
    shared = 0
    for entry in pool:
        foreign = [
            actions[0] for tid, actions in actions_by_table.items() if tid != entry.table_id
        ]
        for variant in _variants(rng, p4info, entry, state):
            outcomes.append(_agree(p4info, variant))
        for variant in _corruptions(p4info, entry, foreign):
            outcomes.append(_agree(p4info, variant))
        first = decode_table_entry(p4info, entry)
        again = decode_table_entry(p4info, replace(entry, action=copy.deepcopy(entry.action)))
        shared += all(a is b for a, b in zip(_actions(first), _actions(again), strict=True))
    catalogue, moved = _default_only_entries(model, pool)
    outcomes += [_agree(catalogue, entry) for entry in moved]
    reasons = {outcome for outcome in outcomes if isinstance(outcome, str)}
    valid = len(outcomes) - sum(isinstance(outcome, str) for outcome in outcomes)
    # The toy model's pool has no selector-table or priority-table entry.
    lacking = {"expects_action_set", "invalid_weight", "missing_priority"}
    assert REASONS - reasons == (lacking if model == "toy" else set())
    assert len(REASONS) >= 20 and valid > len(pool)
    # Equal invocations of one table decode to one shared action.
    assert shared == len(pool)


def _values(bitwidth):
    """Wire bytes for a field: canonical in-range, over-wide, or arbitrary."""
    return st.one_of(
        st.integers(0, (1 << bitwidth) - 1).map(lambda v: codec.encode(v, bitwidth)),
        st.integers(0, 1 << (bitwidth + 1)).map(lambda v: v.to_bytes(bitwidth // 8 + 2, "big")),
        st.binary(max_size=3),
    )


@st.composite
def _wire_entries(draw, p4info):
    table = draw(st.sampled_from(sorted(p4info.tables.values(), key=lambda t: t.id)))
    matches = []
    fields = draw(st.lists(st.sampled_from(table.match_fields), max_size=4))
    for mf in fields:
        kind = draw(st.sampled_from((mf.match_type.value,) * 4 + KINDS))
        matches.append(
            FieldMatch(
                draw(st.sampled_from((mf.id,) * 8 + (mf.id + 100,))),
                kind,
                draw(_values(mf.bitwidth)),
                mask=draw(st.one_of(st.just(b""), _values(mf.bitwidth))),
                prefix_len=draw(st.integers(0, mf.bitwidth + 1)),
            )
        )
    own = [p4info.actions[aid] for aid in table.action_ids]
    catalogue = sorted(p4info.actions.values(), key=lambda a: a.id)
    invocations = []
    for _ in range(draw(st.integers(0, 2))):
        action = draw(st.sampled_from(own * 4 + catalogue))
        params = [
            (p.id, draw(_values(p.bitwidth)))
            for p in action.params
            if draw(st.integers(0, 9))
        ]
        invocations.append(ActionInvocation(action.id, tuple(params)))
    if not invocations:
        action = None
    elif len(invocations) == 1 and draw(st.booleans()):
        action = invocations[0]
    else:
        action = ActionProfileActionSet(
            tuple(ActionProfileAction(inv, draw(st.integers(-1, 3))) for inv in invocations)
        )
    return TableEntry(table.id, tuple(matches), action, priority=draw(st.integers(-1, 3)))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_drawn_wire_entries_decode_as_the_spec(model):
    p4info = build_p4info(MODELS[model]())

    @settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
    @given(st.lists(_wire_entries(p4info), min_size=1, max_size=4))
    def check(entries):
        for entry in entries:
            _agree(p4info, entry)

    check()


def test_action_memo_is_bounded_and_per_table(monkeypatch):
    """The memo starts over at its limit and never answers for another
    table: a full sweep of distinct invocations still decodes as the spec."""
    monkeypatch.setattr(TableDecodePlan, "ACTION_MEMO_LIMIT", 4)
    p4info = build_p4info(MODELS["tor"]())
    pool, _state = _pool(p4info, 120, seed=3)
    invocations = [e.action for e in pool if isinstance(e.action, ActionInvocation)]
    for entry in pool:
        for action in invocations:
            _agree(p4info, replace(entry, action=action))
    plans = [table.decode_plan for table in p4info.tables.values()]
    assert all(len(plan.actions) <= 4 for plan in plans)
    assert sum(len(plan.actions) for plan in plans) > 4
