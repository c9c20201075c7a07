"""The windowed fuzzing loop's soundness bar.

`pipeline_depth=1` must reproduce the one-batch-at-a-time loop of
``tests/sequential_fuzz.py`` byte for byte — same incident stream (dedup
keys, in order), same counters, same final state, same modeled transport
waits — across every fault profile.  At
depth > 1 pipelining may change *when* the oracle judges, never *what*
it concludes: on a clean transport the model-incident dedup-key set is
unchanged, and under faults there are still zero phantoms.
"""

import dataclasses

import pytest

from repro.fuzzer import FuzzerConfig, P4Fuzzer, WriteScheduler
from repro.fuzzer.batching import make_batches
from repro.p4rt.channel import FaultInjectingChannel, resolve_profile
from repro.p4rt.messages import Update, UpdateType
from repro.p4rt.retry import build_resilient_client
from repro.switch import PinsSwitchStack
from tests.sequential_fuzz import SequentialFuzzer

CONFIG = FuzzerConfig(num_writes=15, updates_per_write=20, seed=21)

PROFILES = [None, "drop_request", "drop_response", "duplicate", "delay", "reset", "crash", "chaos"]


def _run(tor_program, tor_p4info, profile_name, fuzzer_class=P4Fuzzer, **overrides):
    stack = PinsSwitchStack(tor_program)
    switch = stack
    channel = None
    if profile_name is not None:
        channel = FaultInjectingChannel(stack, resolve_profile(profile_name, seed=13))
        switch = channel
    client = build_resilient_client(switch)
    config = dataclasses.replace(CONFIG, **overrides)
    fuzzer = fuzzer_class(tor_p4info, client, config)
    return fuzzer.run(), channel


def _fingerprint(result):
    """Everything the sequential spec and the depth-1 windowed loop must agree on."""
    return {
        "incident_keys": [i.dedup_key() for i in result.incidents],
        "final_state": sorted(e.match_key() for e in result.final_entries),
        "modified": sorted(e.match_key() for e in result.modified_entries),
        "updates_sent": result.updates_sent,
        "writes_sent": result.writes_sent,
        "valid": result.valid_updates,
        "invalid": result.invalid_updates,
        "mutations": result.mutation_counts,
        "transport": dataclasses.asdict(result.transport),
    }


# ----------------------------------------------------------------------
# Depth 1: byte-identical to the sequential spec
# ----------------------------------------------------------------------
@pytest.mark.parametrize("profile", PROFILES)
def test_depth1_pipeline_is_byte_identical_to_sequential(tor_program, tor_p4info, profile):
    sequential, _ = _run(tor_program, tor_p4info, profile, SequentialFuzzer)
    pipelined, channel = _run(tor_program, tor_p4info, profile)

    assert _fingerprint(pipelined) == _fingerprint(sequential)
    assert pipelined.transport_wait_seconds == pytest.approx(
        sequential.transport_wait_seconds
    )
    # The windowed scheduler really ran (and degenerated to depth 1).
    assert pipelined.pipeline.windows > 0
    assert pipelined.pipeline.depth == 1
    assert pipelined.pipeline.max_in_flight == 1
    # Same RPC stream — the fault channel rolled identically.
    if channel is not None:
        assert channel.stats.faults_injected > 0


def test_depth1_pipeline_identical_with_sparse_read_backs(tor_program, tor_p4info):
    sequential, _ = _run(
        tor_program, tor_p4info, "chaos", SequentialFuzzer, read_back_every=3
    )
    pipelined, _ = _run(tor_program, tor_p4info, "chaos", read_back_every=3)
    assert _fingerprint(pipelined) == _fingerprint(sequential)


# ----------------------------------------------------------------------
# Depth > 1: pipelining may not change conclusions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("depth", [2, 4, 8])
def test_deep_pipeline_clean_transport_changes_no_conclusions(
    tor_program, tor_p4info, depth
):
    sequential, _ = _run(tor_program, tor_p4info, None)
    pipelined, _ = _run(tor_program, tor_p4info, None, pipeline_depth=depth)

    base_keys = {i.dedup_key() for i in sequential.incidents.model_only()}
    deep_keys = {i.dedup_key() for i in pipelined.incidents.model_only()}
    assert deep_keys == base_keys, pipelined.incidents.summary_lines()
    # A healthy stack: no transport ledger either.
    assert not pipelined.transport.any_activity
    assert pipelined.pipeline.max_in_flight > 1
    assert pipelined.pipeline.read_backs_coalesced > 0


@pytest.mark.parametrize("profile", ["drop_response", "delay", "chaos"])
def test_deep_pipeline_stays_phantom_free_under_faults(tor_program, tor_p4info, profile):
    clean, _ = _run(tor_program, tor_p4info, None)
    deep, channel = _run(tor_program, tor_p4info, profile, pipeline_depth=4)

    assert channel.stats.faults_injected > 0
    base_keys = {i.dedup_key() for i in clean.incidents.model_only()}
    assert {
        i.dedup_key() for i in deep.incidents.model_only()
    } == base_keys, deep.incidents.summary_lines()


@pytest.mark.parametrize(
    "fault", ["modify_keeps_old_params", "duplicate_entry_wrong_error"]
)
def test_deep_pipeline_detects_real_bugs(tor_program, tor_p4info, fault):
    """Pipelining must not mask genuine switch misbehaviour: an injected
    control-plane bug is still caught at depth 4."""
    from repro.switch import FaultRegistry

    stack = PinsSwitchStack(tor_program, faults=FaultRegistry([fault]))
    fuzzer = P4Fuzzer(
        tor_p4info,
        stack,
        FuzzerConfig(num_writes=40, updates_per_write=25, seed=7, pipeline_depth=4),
    )
    result = fuzzer.run()
    assert result.incidents.count > 0, fault


# ----------------------------------------------------------------------
# Determinism with batches concurrently in flight
# ----------------------------------------------------------------------
@pytest.mark.parametrize("depth", [2, 4])
def test_in_flight_rolls_stay_deterministic(tor_program, tor_p4info, depth):
    """Two identical runs with `depth` batches in flight consume the fault
    channel's seeded rolls identically: the turnstile fixes the transport
    interleaving to submission order."""
    first, chan_a = _run(tor_program, tor_p4info, "chaos", pipeline_depth=depth)
    second, chan_b = _run(tor_program, tor_p4info, "chaos", pipeline_depth=depth)

    assert dataclasses.asdict(chan_a.stats) == dataclasses.asdict(chan_b.stats)
    assert _fingerprint(first) == _fingerprint(second)
    assert first.transport_wait_seconds == pytest.approx(second.transport_wait_seconds)
    assert first.pipeline.max_in_flight == second.pipeline.max_in_flight


# ----------------------------------------------------------------------
# Window planning respects the reference graph
# ----------------------------------------------------------------------
def _first_table_updates(tor_p4info, n):
    """n inserts into the same table with distinct keys, plus one
    duplicate-key update that must conflict with the first."""
    from repro.fuzzer import RequestGenerator
    import random

    gen = RequestGenerator(tor_p4info, random.Random(7))
    updates = []
    while len(updates) < n:
        update = gen.generate_update()
        if update is not None and update.type is UpdateType.INSERT:
            updates.append(update)
    return updates


def test_conflicting_batches_never_share_a_window(tor_p4info):
    updates = _first_table_updates(tor_p4info, 4)
    scheduler = WriteScheduler(switch=None, p4info=tor_p4info, depth=8)
    try:
        independent = [[u] for u in updates]
        # A duplicate of the first entry conflicts with batch 0.
        dup = [Update(UpdateType.DELETE, updates[0].entry)]
        windows = scheduler.plan_windows(independent + [dup])
        assert [len(w) for w in windows] == [len(independent), 1]
        assert scheduler.stats.conflict_stalls == 1
        assert scheduler.conflicts(independent, dup)
        assert not scheduler.conflicts(independent[:1], [updates[1]])
    finally:
        scheduler.close()


def test_make_batches_feed_windows_soundly(tor_p4info, tor_program):
    """End to end: batches from make_batches either fit one window or are
    split exactly at conflict boundaries."""
    updates = _first_table_updates(tor_p4info, 6)
    batches = make_batches(tor_p4info, updates, 2)
    scheduler = WriteScheduler(switch=None, p4info=tor_p4info, depth=4)
    try:
        for window in scheduler.plan_windows(batches):
            for i, batch in enumerate(window):
                assert not scheduler.conflicts(window[:i], batch)
    finally:
        scheduler.close()


# ----------------------------------------------------------------------
# Reporting: the throughput metrics and their rendering
# ----------------------------------------------------------------------
def test_collect_pipeline_throughput_folds_the_result(tor_program, tor_p4info):
    from repro.switchv.metrics import collect_pipeline_throughput

    result, _ = _run(tor_program, tor_p4info, "delay", pipeline_depth=4)
    metrics = collect_pipeline_throughput(result)
    assert metrics.depth == 4
    assert metrics.updates_sent == result.updates_sent
    assert metrics.transport_wait_seconds == result.transport_wait_seconds
    assert metrics.windows == result.pipeline.windows
    assert metrics.modeled_seconds == pytest.approx(
        result.elapsed_seconds + result.transport_wait_seconds
    )
    assert metrics.modeled_updates_per_second > 0

    shallow, _ = _run(tor_program, tor_p4info, None)
    base = collect_pipeline_throughput(shallow)
    assert base.depth == 1
    assert base.max_in_flight == 1
    # One window, and one read-back, per batch.
    assert base.windows == base.read_backs == shallow.writes_sent
    assert base.read_backs_coalesced == 0


def test_render_pipeline_stats_both_schedules(tor_program, tor_p4info):
    from repro.switchv.report import render_pipeline_stats

    shallow, _ = _run(tor_program, tor_p4info, None)
    text = render_pipeline_stats(shallow)
    assert "depth 1, peak 1" in text
    assert "0 coalesced away" in text
    assert "updates/s modeled" in text

    deep, _ = _run(tor_program, tor_p4info, None, pipeline_depth=4)
    text = render_pipeline_stats(deep)
    assert "depth 4" in text
    assert "coalesced away" in text
    assert "transport wait saved" in text
