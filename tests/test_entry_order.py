"""The generator's victim views against the plain lists they stand for.

``EntryOrder`` keeps an insertion-ordered entry dict's values indexable in
O(log n), so ``rng.choice`` over it draws exactly what it would draw from
``list(entries.values())``.  Random sequences of inserts, in-place
modifies, deletes, re-inserts after delete, adoptions in a new order and
the compactions they trigger must leave every position equal to the list's,
with unknown-table entries in ``all`` and filtered out of ``known`` — for
the class itself and for both owners that maintain one (the oracle and the
standalone ``GeneratorState``).
"""

import random
from dataclasses import replace

import pytest

from repro.fuzzer.oracle import EntryOrder, GeneratorState, Oracle
from repro.p4rt.messages import Update, UpdateType
from repro.workloads import EntryBuilder

UNKNOWN_TABLE = 0x7FFF_FFF0


def _entries(p4info, count):
    b = EntryBuilder(p4info)
    known = [b.exact("vrf_tbl", {"vrf_id": vrf}, "NoAction") for vrf in range(1, count + 1)]
    # Every fourth identity belongs to a table the P4Info does not know.
    return [
        replace(e, table_id=UNKNOWN_TABLE) if index % 4 == 3 else e
        for index, e in enumerate(known)
    ]


def _modified(entry, rng):
    return replace(entry, action=replace(entry.action, action_id=rng.randrange(1, 1 << 30)))


def _assert_views(victims, known_victims, entries, tables):
    values = list(entries.values())
    assert len(victims) == len(values)
    assert [victims[k] for k in range(len(values))] == values
    assert list(known_victims) == [e for e in values if e.table_id in tables]
    with pytest.raises(IndexError):
        victims[len(values)]


def _steps(rng, pool, count):
    """(op, entry) steps over a small identity pool, in delete-heavy and
    insert-heavy phases so tombstones pile up and compaction fires."""
    for step in range(count):
        deletes = 0.7 if (step // 60) % 2 else 0.2
        roll = rng.random()
        entry = rng.choice(pool)
        if roll < 0.01:
            yield "adopt", None
        elif roll < 0.01 + deletes:
            yield "delete", entry
        elif roll < 0.9:
            yield "insert", entry
        else:
            yield "modify", entry


@pytest.mark.parametrize("seed", range(6))
def test_entry_order_equals_the_list(seed, tor_p4info):
    rng = random.Random(seed)
    pool = _entries(tor_p4info, 48)
    tables = tor_p4info.tables
    order = EntryOrder(tables)
    entries = {}
    compactions = 0
    for op, entry in _steps(rng, pool, 600):
        if op == "adopt":
            items = list(entries.items())
            rng.shuffle(items)
            entries = dict(items)
            order.reset(entries)
        elif op == "delete":
            slots = len(order._slots)
            entries.pop(entry.match_key(), None)
            order.discard(entry.match_key())
            compactions += len(order._slots) < slots
        else:
            key = entry.match_key()
            if op == "modify" and key in entries:
                entry = _modified(entries[key], rng)
            entries[key] = entry
            order.put(key, entry)
        _assert_views(order.all, order.known, entries, tables)
    assert compactions > 0


@pytest.mark.parametrize("seed", range(4))
def test_owners_keep_their_views_equal_to_the_list(seed, tor_p4info):
    """Oracle (through ``_apply`` / ``resync``) and GeneratorState (through
    ``install`` / ``remove`` / ``replace_all``) under the same steps."""
    rng = random.Random(100 + seed)
    pool = _entries(tor_p4info, 48)
    tables = tor_p4info.tables
    oracle = Oracle(tor_p4info)
    state = GeneratorState(tor_p4info)
    for op, entry in _steps(rng, pool, 600):
        if op == "adopt":
            entries = list(oracle.entries.values())
            rng.shuffle(entries)
            oracle.resync(entries)
            state.replace_all(entries)
        elif op == "delete":
            oracle._apply(Update(UpdateType.DELETE, entry))
            state.remove(entry)
        else:
            installed = oracle.entries.get(entry.match_key())
            if op == "modify" and installed is not None:
                entry = _modified(installed, rng)
            oracle._apply(Update(UpdateType.INSERT, entry))
            state.install(entry)
        assert list(state.entries.values()) == list(oracle.entries.values())
        for owner in (oracle, state):
            _assert_views(owner.victims, owner.known_victims, owner.entries, tables)
