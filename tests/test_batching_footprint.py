"""Footprint batching against its pairwise spec, and the gates that keep it linear.

``tests/pairwise_batching.py`` holds the quadratic definition; everything
here requires ``repro.fuzzer.batching`` / ``WriteScheduler`` /
``AvailableState.provides_keys`` / ``keysets`` to agree with a slower,
obviously-right answer, or counts decodes (never wall time) to pin the
complexity.
"""

import collections
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzer import FuzzerConfig, P4Fuzzer
from repro.fuzzer.batching import make_batches
from repro.fuzzer.generator import RequestGenerator
from repro.fuzzer.mutations import apply_random_mutation
from repro.fuzzer.pipeline import WriteScheduler
from repro.p4.constraints.refs import AvailableState, ReferenceGraph
from repro.p4rt.messages import UpdateType
from repro.switch import PinsSwitchStack
from repro.workloads import production_like_entries
from tests import pairwise_batching

MODELS = ("toy", "tor", "wan", "cerberus")


def _wave(p4info, seed, size):
    """A generated wave whose updates really depend on each other: inserts
    are fed back into the generator's state so later updates refer to,
    modify and delete earlier ones, and ~1/3 are mutated (undecodable
    values, unknown table ids, dangling references, ...)."""
    rng = random.Random(seed)
    generator = RequestGenerator(p4info, rng)
    updates = []
    while len(updates) < size:
        update = generator.generate_update()
        if update is None:
            continue
        if update.type is UpdateType.INSERT:
            generator.state.install(update.entry)
        elif update.type is UpdateType.DELETE and rng.random() < 0.5:
            generator.state.remove(update.entry)
        if rng.random() < 0.35:
            mutated = apply_random_mutation(rng, p4info, update, state=generator.state)
            if mutated is not None:
                update = mutated.update
        updates.append(update)
    return updates


@pytest.mark.parametrize("model", MODELS)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(60, 200))
def test_batches_and_windows_equal_the_pairwise_spec(request, model, seed, size):
    p4info = request.getfixturevalue(f"{model}_p4info")
    updates = _wave(p4info, seed, size)
    for max_batch_size in (1, 7, 50):
        batches = make_batches(p4info, updates, max_batch_size)
        assert batches == pairwise_batching.make_batches(p4info, updates, max_batch_size)
        if max_batch_size != 7:
            continue
        for depth in (2, 4, 8):
            with WriteScheduler(switch=None, p4info=p4info, depth=depth) as scheduler:
                windows = scheduler.plan_windows(batches)
            assert windows == pairwise_batching.plan_windows(p4info, batches, depth)


def test_waves_exercise_every_conflict_kind(tor_p4info):
    """The differential test above is only as good as its inputs: the waves
    must contain shared identities, reference edges and undecodable updates."""
    refs = ReferenceGraph(tor_p4info)
    updates = _wave(tor_p4info, 1, 200)
    pairs = [(a, b) for i, a in enumerate(updates) for b in updates[i + 1 :]]
    assert any(a.entry.match_key() == b.entry.match_key() for a, b in pairs)
    assert any(refs.depends_on(b.entry, a.entry) for a, b in pairs)
    assert any(u.entry.table_id not in tor_p4info.tables for u in updates)
    assert len(make_batches(tor_p4info, updates)) > 4


@pytest.mark.parametrize("count", [50, 400])
def test_make_batches_decodes_each_update_once(tor_p4info, monkeypatch, count):
    updates = _wave(tor_p4info, 3, count)
    calls = {"references_of": 0, "exported_keyset": 0}
    for name in calls:
        original = getattr(ReferenceGraph, name)

        def counted(self, entry, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, entry)

        monkeypatch.setattr(ReferenceGraph, name, counted)
    assert len(make_batches(tor_p4info, updates)) > 1
    assert calls == {"references_of": count, "exported_keyset": count}


def _satisfiable_spec(generator, table):
    """The generator's former existence test: materialise every installed
    keyset of every referenced table and look for one with the keys."""
    available = generator.state.available
    for mf in table.match_fields:
        target = generator.refs.edges.get((table.name, mf.name))
        if target and not generator._referenced_values(*target):
            return False
    for aid in table.action_ids:
        groups = generator.refs.action_reference_groups(generator.p4info.actions[aid].name)
        for target_table, pairs in groups.items():
            demanded = {key for _param, key in pairs}
            if not any(
                demanded <= {k for k, _v in keyset} for keyset in available.keysets(target_table)
            ):
                return False
    return True


def test_references_satisfiable_never_materialises_keysets(tor_p4info, monkeypatch):
    entries = production_like_entries(tor_p4info, total=900, seed=5)
    tables = list(tor_p4info.tables.values())
    seen = set()
    for installed in (0, 3, 12, len(entries)):
        generator = RequestGenerator(tor_p4info, random.Random(0))
        generator.state.replace_all(entries[:installed])
        with monkeypatch.context() as patch:
            expected = [_satisfiable_spec(generator, table) for table in tables]

            def refuse(self, table):
                raise AssertionError(f"keysets({table!r}) materialised for an existence test")

            patch.setattr(AvailableState, "keysets", refuse)
            assert [generator._references_satisfiable(table) for table in tables] == expected
        seen.update(expected)
    assert len(entries) >= 900 and all(expected) and seen == {True, False}


_TABLES = ("t", "u")
_KEYSETS = [
    frozenset(pairs)
    for pairs in (
        [("a", 1)],
        [("a", 2)],
        [("a", 1), ("b", 1)],
        [("a", 1), ("b", 2)],
        [("b", 1), ("c", 1)],
        [("a", 3), ("b", 3), ("c", 3)],
    )
]
_QUERIES = [frozenset(q) for q in ("", "a", "b", "c", "ab", "bc", "ac", "abc", "d")]
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "remove", "copy"]),
        st.sampled_from(_TABLES),
        st.sampled_from(_KEYSETS),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_provides_keys_equals_brute_force_over_keysets(ops):
    """`provides_keys` and the cached, sorted `keysets` against a plain
    refcount model.  Duplicate keysets push refcounts past 1; removes of
    absent keysets are no-ops; a copy must carry the index and then diverge
    from its original without disturbing it (nor its cached answers)."""
    state = AvailableState()
    model = collections.Counter()  # (table, keyset) -> installed copies
    frozen = []  # (a state left behind by copy(), what it answered then)
    for op, table, keyset in ops:
        if op == "add":
            state.add(table, keyset)
            model[table, keyset] += 1
        elif op == "remove":
            state.remove(table, keyset)
            if model[table, keyset]:
                model[table, keyset] -= 1
        else:
            frozen.append((state, _brute_force(model)))
            state, model = state.copy(), model.copy()
        assert _answers(state) == _brute_force(model)
    for original, expected in frozen:
        assert _answers(original) == expected


def _answers(state):
    answers = {(t, q): state.provides_keys(t, q) for t in _TABLES for q in _QUERIES}
    answers.update({t: state.keysets(t) for t in _TABLES})
    return answers


def _brute_force(model):
    answers = {}
    for t in _TABLES:
        keysets = tuple(
            sorted((ks for (table, ks), copies in model.items() if table == t and copies), key=sorted)
        )
        answers[t] = keysets
        for q in _QUERIES:
            answers[t, q] = any(q <= {key for key, _value in ks} for ks in keysets)
    return answers


class _RecordingStack(PinsSwitchStack):
    def __init__(self, model):
        super().__init__(model)
        self.stream = hashlib.sha256()

    def write(self, request):
        self.stream.update(repr(request.updates).encode())
        return super().write(request)


def test_tor_campaign_request_stream_is_pinned(tor_program, tor_p4info):
    """The benchmark's `fuzz_control` campaign at its seed 1 (70 writes x 50
    updates, fuzz seed = Random("1:fuzz").getrandbits(31)), digested the way
    the benchmark digests it.  Batching decides what goes on the wire and in
    which order: a packer that reorders, merges or splits batches differently
    changes this digest even when every batch is still independent."""
    stack = _RecordingStack(tor_program)
    seed = random.Random("1:fuzz").getrandbits(31)
    result = P4Fuzzer(
        tor_p4info, stack, FuzzerConfig(num_writes=70, updates_per_write=50, seed=seed)
    ).run()
    assert result.updates_sent == 3500 and result.incidents.count == 0
    assert stack.stream.hexdigest() == (
        "0b97c65d6db576accd62b2cfb547524e3fd2931d3d8dc657abb39a8186e818d8"
    )
