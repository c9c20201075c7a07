"""``ReferenceGraph``'s compiled plans against the plain extraction spec.

The production graph decodes only the match fields and action parameters
a ``@refers_to`` names, and only tables some reference targets export
keysets.  ``tests/plain_refs.py`` keeps the extraction that scanned and
decoded everything and let every table export.  Two differentials tie
them together:

* per entry — production-like entries of all four shipped models, every
  registered fuzzer mutation of them, and hand-made corruptions (unknown
  field / action / param ids, empty, non-canonical and over-wide bytes,
  duplicated clauses and params, action sets, no action): equal
  ``references_of`` lists, equal ``ReferenceIndex`` demands, and equal
  exported keysets for referenced tables (none for the others);
* per state — random insert / modify / delete sequences over ToR and WAN
  entries of referenced and unreferenced tables, applied to the oracle
  and to ``tests/linear_state.py``'s ``LinearOracle`` running on the plain
  graph: equal dangling references for every probe, equal delete
  orphaning for every installed entry, and equal available keysets for
  every referenced table.
"""

import random
from dataclasses import replace

import pytest

from repro.fuzzer import RequestGenerator
from repro.fuzzer.mutations import MUTATION_NAMES, apply_mutation
from repro.fuzzer.oracle import Oracle
from repro.p4.constraints.refs import ReferenceGraph, ReferenceIndex
from repro.p4.p4info import build_p4info
from repro.p4.programs import (
    build_cerberus_program,
    build_toy_program,
    build_tor_program,
    build_wan_program,
)
from repro.p4rt.messages import (
    ActionInvocation,
    ActionProfileAction,
    ActionProfileActionSet,
    Update,
    UpdateType,
)
from repro.workloads import production_like_entries
from tests.linear_state import LinearOracle
from tests.plain_refs import PlainReferenceGraph

MODELS = {
    "toy": build_toy_program,
    "tor": build_tor_program,
    "wan": build_wan_program,
    "cerberus": build_cerberus_program,
}


def _pool(p4info, total, seed):
    """Production-like entries (where the model has the SAI scaffolding they
    build on) plus generated entries of every table, installed in order."""
    entries = []
    if p4info.table_by_name("router_interface_tbl") is not None:
        entries = production_like_entries(p4info, total, seed=seed)
    generator = RequestGenerator(p4info, random.Random(seed))
    for entry in entries:
        generator.state.install(entry)
    for table in p4info.tables.values():
        for _ in range(3):
            update = generator.generate_insert(table.id)
            if update is not None:
                entries.append(update.entry)
                generator.state.install(update.entry)
    return entries, generator.state


def _invocations(entry):
    """(invocation, rebuild the entry around a replacement invocation)."""
    action = entry.action
    if isinstance(action, ActionInvocation):
        yield action, lambda new: replace(entry, action=new)
    elif isinstance(action, ActionProfileActionSet):
        for index, member in enumerate(action.actions):
            def rebuild(new, index=index):
                members = list(action.actions)
                members[index] = replace(members[index], action=new)
                return replace(entry, action=replace(action, actions=tuple(members)))

            yield member.action, rebuild


def _corrupt(value):
    return (b"", b"\x00" + value, b"\xff" * (len(value) + 1))


def _variants(rng, p4info, entry, state):
    yield entry
    for name in MUTATION_NAMES:
        mutated = apply_mutation(name, rng, p4info, Update(UpdateType.INSERT, entry), state)
        if mutated is not None:
            yield mutated.update.entry
    for index, clause in enumerate(entry.matches):
        for value in _corrupt(clause.value):
            matches = list(entry.matches)
            matches[index] = replace(clause, value=value)
            yield replace(entry, matches=tuple(matches))
        matches = list(entry.matches)
        matches[index] = replace(clause, field_id=clause.field_id + 1000)
        yield replace(entry, matches=tuple(matches))
        yield replace(entry, matches=entry.matches + (clause,))
    for inv, rebuild in _invocations(entry):
        for index, (pid, data) in enumerate(inv.params):
            for param in [(pid, bad) for bad in _corrupt(data)] + [(pid + 1000, data)]:
                params = list(inv.params)
                params[index] = param
                yield rebuild(replace(inv, params=tuple(params)))
            # A repeated id: the later value wins where it decodes.
            yield rebuild(replace(inv, params=inv.params + ((pid, b"\x01"),)))
            yield rebuild(replace(inv, params=inv.params + ((pid, b""),)))
        yield rebuild(replace(inv, action_id=inv.action_id ^ 1))
    if isinstance(entry.action, ActionInvocation):
        yield replace(
            entry,
            action=ActionProfileActionSet(
                (ActionProfileAction(entry.action, 1), ActionProfileAction(entry.action, 2))
            ),
        )
    yield replace(entry, action=None)
    yield replace(entry, table_id=entry.table_id ^ 1)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_extraction_equals_plain_spec(model):
    p4info = build_p4info(MODELS[model]())
    refs, plain = ReferenceGraph(p4info), PlainReferenceGraph(p4info)
    names = [table.name for table in p4info.tables.values()]
    assert refs.targets == {name for name in names if plain.is_referenced_table(name)}
    for name in names + ["no_such_table"]:
        assert refs.is_referenced_table(name) == plain.is_referenced_table(name)
    index = ReferenceIndex(refs)
    pool, state = _pool(p4info, 300, seed=5)
    rng = random.Random(11)
    checked = referring = 0
    for entry in pool:
        for variant in _variants(rng, p4info, entry, state):
            expected = plain.references_of(variant)
            assert refs.references_of(variant) == expected
            index.insert("probe", variant)
            assert index._demands.get("probe", ()) == tuple(
                (ref.target_table, frozenset(ref.pairs)) for ref in expected
            )
            index.delete("probe")
            exported = plain.exported_keyset(variant)
            if exported is not None and exported[0] not in refs.targets:
                exported = None
            assert refs.exported_keyset(variant) == exported
            checked += 1
            referring += bool(expected)
    assert not index._holders and not index._exports
    assert checked > 20 * len(pool) and referring > len(pool)


def _random_update(rng, pool, oracle):
    roll = rng.random()
    installed = oracle.victims
    if roll < 0.5 or not installed:
        return Update(UpdateType.INSERT, rng.choice(pool))
    victim = rng.choice(installed)
    if roll < 0.75:
        # The action of some other pool entry, of this table or another.
        return Update(UpdateType.MODIFY, replace(victim, action=rng.choice(pool).action))
    return Update(UpdateType.DELETE, victim)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("model", ["tor", "wan"])
def test_state_equals_linear_spec_with_unreferenced_tables(model, seed):
    p4info = build_p4info(MODELS[model]())
    pool = production_like_entries(p4info, 90, seed=seed)
    oracle = Oracle(p4info)
    linear = LinearOracle(p4info)
    linear.refs = PlainReferenceGraph(p4info)
    referenced = sorted(oracle.refs.targets)
    tables = {p4info.tables[e.table_id].name for e in pool}
    assert tables & set(referenced) and tables - set(referenced)
    rng = random.Random(seed)
    orphaning = dangling = 0
    for step in range(150):
        update = _random_update(rng, pool, oracle)
        oracle._apply(update)
        linear._apply(update)
        assert list(oracle.expected) == list(linear.expected)
        for table in referenced:
            assert oracle.available.keysets(table) == linear.available.keysets(table), table
        for probe in rng.sample(pool, 10) + [update.entry]:
            found = oracle.refs.dangling_references(probe, oracle.available)
            assert found == linear.refs.dangling_references(probe, linear.available)
            dangling += bool(found)
        keys = list(oracle.expected)
        for key in keys if step % 25 == 24 else rng.sample(keys, min(4, len(keys))):
            orphans = oracle._delete_would_orphan(key)
            assert orphans == linear._delete_would_orphan(key)
            orphaning += orphans
    assert dangling and orphaning
