"""Coverage-goal identity stability + the greybox feedback loop.

The identity bar: entry-coverage goal names are pure functions of the
installed state — no process-randomized ``hash()`` — so names agree
across processes regardless of PYTHONHASHSEED and the per-goal packet
cache hits across restarts.  The feedback bar: state-aware mutations
exercise the spec paths they name (ALREADY_EXISTS), a guided campaign is
bit-for-bit deterministic per seed, and depth-1 pipelining stays
byte-identical with coverage accounting on.
"""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzzer import CoverageTracker, FuzzerConfig, P4Fuzzer
from repro.fuzzer.feedback import CoverageProgress
from repro.fuzzer.generator import GeneratorState
from repro.fuzzer.mutations import apply_mutation
from repro.p4rt.messages import Update, UpdateType
from repro.switch import FaultRegistry, PinsSwitchStack
from repro.switchv.metrics import merge_coverage_progress
from repro.switchv.report import render_coverage_progress
from repro.symbolic.coverage import entry_goal_name
from repro.workloads import EntryBuilder
from tests.sequential_fuzz import SequentialFuzzer

REPO = Path(__file__).resolve().parent.parent

# What a child process runs to name goals and exercise the per-goal disk
# cache.  Two invocations differ only in PYTHONHASHSEED; the bug this
# guards against made both the names and the cache keys process-local.
_CHILD_SCRIPT = """
import json, sys
from repro.bmv2.entries import decode_table_entry
from repro.p4.p4info import build_p4info
from repro.p4.programs import build_toy_program
from repro.symbolic import PacketGenerator
from repro.symbolic.cache import PacketCache
from repro.symbolic.coverage import CoverageMode, goals_for_mode
from repro.workloads import EntryBuilder

program = build_toy_program()
p4info = build_p4info(program)
b = EntryBuilder(p4info)
entries = [
    b.ternary("pre_ingress_tbl", {}, "set_vrf", {"vrf_id": 1}, priority=1),
    b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction"),
    b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 8,
          "set_nexthop_id", {"nexthop_id": 3}),
]
state = {}
for entry in entries:
    decoded = decode_table_entry(p4info, entry)
    state.setdefault(decoded.table_name, []).append(decoded)
generator = PacketGenerator(program, state)
goals = [g.name for g in goals_for_mode(generator.executions(), CoverageMode.ENTRY, ())]
result = generator.generate(CoverageMode.ENTRY, goal_cache=PacketCache(sys.argv[1]))
print(json.dumps({
    "goals": goals,
    "from_cache": result.stats.goals_from_cache,
    "total": result.stats.goals_total,
}))
"""


def _run_child(hash_seed: str, cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(cache_dir)],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestGoalIdentity:
    def test_entry_goal_name_is_structural(self):
        identity = ("ipv4_tbl", (("ipv4_dst", "lpm", 0x0A000000, 0, 8, True),), 0)
        name = entry_goal_name("ipv4_tbl", identity)
        digest = hashlib.sha256(repr(identity).encode()).hexdigest()[:8]
        assert name == f"entry:ipv4_tbl:{digest}"
        # Stable within the process too, trivially.
        assert name == entry_goal_name("ipv4_tbl", identity)

    def test_goal_names_and_disk_cache_survive_hash_randomization(self, tmp_path):
        first = _run_child("1", tmp_path)
        second = _run_child("2", tmp_path)
        # Same installed state -> same goal names, whatever hash() does.
        assert first["goals"] == second["goals"]
        assert first["total"] > 0
        # The first process populated the per-goal disk cache cold...
        assert first["from_cache"] == 0
        # ...and a *different* process, under a different hash seed,
        # answers every goal from it.
        assert second["from_cache"] == second["total"]


class TestStatefulMutations:
    def _insert(self, tor_p4info):
        b = EntryBuilder(tor_p4info)
        return Update(UpdateType.INSERT, b.exact("vrf_tbl", {"vrf_id": 9}, "NoAction"))

    def test_duplicate_insert_needs_installed_state(self, tor_p4info):
        rng = random.Random(3)
        update = self._insert(tor_p4info)
        assert apply_mutation("duplicate_insert", rng, tor_p4info, update) is None
        assert (
            apply_mutation("duplicate_insert", rng, tor_p4info, update, state=GeneratorState())
            is None
        )

    def test_duplicate_insert_reinserts_installed_entry(self, tor_p4info):
        rng = random.Random(3)
        b = EntryBuilder(tor_p4info)
        installed = b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction")
        state = GeneratorState()
        state.install(installed)
        mutated = apply_mutation(
            "duplicate_insert", rng, tor_p4info, self._insert(tor_p4info), state=state
        )
        assert mutated is not None
        assert mutated.update.type is UpdateType.INSERT
        # The duplicate targets what is actually installed, not the fresh
        # update's (never-installed) key.
        assert mutated.update.entry.match_key() == installed.match_key()

    def test_delete_nonexistent_avoids_installed_keys(self, tor_p4info):
        rng = random.Random(3)
        update = self._insert(tor_p4info)
        # The key is genuinely uninstalled: deleting it must fail upstream.
        mutated = apply_mutation("delete_nonexistent", rng, tor_p4info, update)
        assert mutated is not None
        assert mutated.update.type is UpdateType.DELETE
        assert mutated.update.entry.match_key() == update.entry.match_key()
        # Once that key is installed, the mutation no longer applies.
        state = GeneratorState()
        state.install(update.entry)
        assert (
            apply_mutation("delete_nonexistent", rng, tor_p4info, update, state=state)
            is None
        )


class TestMutationEffectiveness:
    CONFIG = FuzzerConfig(
        num_writes=8,
        updates_per_write=12,
        seed=5,
        mutations=["duplicate_insert"],
        mutation_probability=1.0,
    )

    def test_duplicate_insert_exercises_already_exists(self, tor_program, tor_p4info):
        """A healthy switch returns ALREADY_EXISTS for every duplicate and
        the oracle, expecting exactly that, files zero model incidents."""
        result = P4Fuzzer(tor_p4info, PinsSwitchStack(tor_program), self.CONFIG).run()
        assert result.mutation_counts.get("duplicate_insert", 0) > 0
        assert result.incidents.model_count == 0

    def test_duplicate_insert_detects_wrong_error_fault(self, tor_program, tor_p4info):
        """The same campaign against the duplicate_entry_wrong_error
        catalogue fault observes the wrong status and files incidents —
        the mutation provably drives the spec path it names."""
        stack = PinsSwitchStack(
            tor_program, faults=FaultRegistry(["duplicate_entry_wrong_error"])
        )
        result = P4Fuzzer(tor_p4info, stack, self.CONFIG).run()
        assert result.mutation_counts.get("duplicate_insert", 0) > 0
        assert result.incidents.model_count > 0


GUIDED = FuzzerConfig(
    num_writes=8, updates_per_write=12, seed=17, coverage_guided=True
)


def _fingerprint(result):
    return {
        "incident_keys": [i.dedup_key() for i in result.incidents],
        "final_state": sorted(e.match_key() for e in result.final_entries),
        "updates_sent": result.updates_sent,
        "mutations": result.mutation_counts,
        "covered": result.coverage.covered_keys,
        "samples": result.coverage.samples,
    }


def _run_guided(tor_program, tor_p4info, fuzzer_class=P4Fuzzer, **overrides):
    config = dataclasses.replace(GUIDED, **overrides)
    fuzzer = fuzzer_class(
        tor_p4info, PinsSwitchStack(tor_program), config, model=tor_program
    )
    return fuzzer.run()


class TestGuidedCampaign:
    def test_guided_run_is_deterministic_per_seed(self, tor_program, tor_p4info):
        first = _run_guided(tor_program, tor_p4info)
        second = _run_guided(tor_program, tor_p4info)
        assert _fingerprint(first) == _fingerprint(second)

    def test_depth1_pipeline_byte_identical_with_coverage(self, tor_program, tor_p4info):
        sequential = _run_guided(tor_program, tor_p4info, SequentialFuzzer)
        pipelined = _run_guided(tor_program, tor_p4info)
        assert _fingerprint(pipelined) == _fingerprint(sequential)

    def test_tracking_alone_leaves_the_campaign_unchanged(self, tor_program, tor_p4info):
        """track_coverage observes; only coverage_guided steers.  The
        metered-but-blind arm must reproduce the plain blind campaign."""
        plain = _run_guided(
            tor_program, tor_p4info, coverage_guided=False, track_coverage=False
        )
        metered = _run_guided(
            tor_program, tor_p4info, coverage_guided=False, track_coverage=True
        )
        assert plain.coverage is None
        assert metered.coverage is not None
        base = {
            k: v
            for k, v in _fingerprint(metered).items()
            if k not in ("covered", "samples")
        }
        assert base == {
            "incident_keys": [i.dedup_key() for i in plain.incidents],
            "final_state": sorted(e.match_key() for e in plain.final_entries),
            "updates_sent": plain.updates_sent,
            "mutations": plain.mutation_counts,
        }

    def test_model_required_for_guidance(self, tor_program, tor_p4info):
        with pytest.raises(ValueError):
            P4Fuzzer(tor_p4info, PinsSwitchStack(tor_program), GUIDED)


class TestCoverageTracker:
    def _tracker(self, toy_program, toy_p4info):
        return CoverageTracker(toy_program, toy_p4info, valid_ports=(1, 2))

    def _entries(self, toy_p4info):
        b = EntryBuilder(toy_p4info)
        return [
            b.ternary("pre_ingress_tbl", {}, "set_vrf", {"vrf_id": 1}, priority=1),
            b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction"),
        ]

    def test_observe_dedupes_keys_and_attributes_gains(self, toy_program, toy_p4info):
        tracker = self._tracker(toy_program, toy_p4info)
        entries = self._entries(toy_p4info)
        batch = [Update(UpdateType.INSERT, e) for e in entries]
        new = tracker.observe_batch(batch, entries, write_index=0)
        assert new == sorted(set(new), key=new.index)  # no duplicates
        progress = tracker.progress()
        assert progress.covered == len(new) > 0
        # Per-profile executions repeat trace keys; attribution must not
        # double-count them.
        assert sum(progress.table_gains.values()) <= progress.covered
        assert "table:vrf_tbl" in progress.covered_keys

    def test_unchanged_state_skips_scoring(self, toy_program, toy_p4info):
        tracker = self._tracker(toy_program, toy_p4info)
        entries = self._entries(toy_p4info)
        batch = [Update(UpdateType.INSERT, e) for e in entries]
        tracker.observe_batch(batch, entries, write_index=0)
        # Same oracle state again (e.g. a fully rejected batch).
        assert tracker.observe_batch(batch, entries, write_index=1) == []
        progress = tracker.progress()
        assert progress.batches_scored == 1
        assert progress.batches_skipped == 1

    def test_corpus_seed_emits_one_bit_neighbours(self, toy_program, toy_p4info):
        tracker = self._tracker(toy_program, toy_p4info)
        entries = self._entries(toy_p4info)
        batch = [Update(UpdateType.INSERT, e) for e in entries]
        tracker.observe_batch(batch, entries, write_index=0)
        assert tracker.corpus, "a coverage-increasing batch joins the corpus"
        rng = random.Random(2)
        seeds = [tracker.corpus_seed(rng) for _ in range(200)]
        emitted = [s for s in seeds if s is not None]
        assert emitted, "replay fires at CORPUS_SEED_PROBABILITY"
        originals = {e.match_key() for e in entries}
        neighbours = [u for u in emitted if u.entry.match_key() not in originals]
        assert neighbours, "inserts replay as bit-flipped neighbours"
        for update in neighbours:
            flipped = [
                (m, o)
                for m, o in zip(
                    update.entry.matches,
                    next(
                        e for e in entries if e.table_id == update.entry.table_id
                    ).matches,
                )
                if m.value != o.value
            ]
            assert len(flipped) == 1
            delta = int.from_bytes(flipped[0][0].value, "big") ^ int.from_bytes(
                flipped[0][1].value, "big"
            )
            assert delta.bit_count() == 1

    def test_table_weights_favor_uncovered_tables(self, toy_program, toy_p4info):
        tracker = self._tracker(toy_program, toy_p4info)
        entries = self._entries(toy_p4info)
        tracker.observe_batch(
            [Update(UpdateType.INSERT, e) for e in entries], entries, write_index=0
        )
        tables = list(toy_p4info.tables.values())
        weights = dict(zip([t.name for t in tables], tracker.table_weights(tables)))
        # ipv4_tbl has no coverage yet: the exploration bonus puts it above
        # the already-covered tables.
        assert weights["ipv4_tbl"] > weights["vrf_tbl"]


class TestProgressSurfaces:
    def _progress(self):
        return CoverageProgress(
            samples=[(10, 3), (20, 5)],
            covered_keys=["branch:g:t", "entry:vrf_tbl:deadbeef", "table:vrf_tbl"],
            corpus_size=2,
            batches_scored=2,
            batches_skipped=1,
            score_seconds=0.5,
            table_gains={"vrf_tbl": 2},
        )

    def test_render_coverage_progress(self):
        text = render_coverage_progress(self._progress())
        assert "coverage feedback:" in text
        assert "3 covered" in text
        assert "1 branch, 1 entry, 1 table" in text
        assert "hot tables:   vrf_tbl (+2)" in text

    def test_merge_coverage_progress(self):
        other = CoverageProgress(
            samples=[(15, 4)],
            covered_keys=["table:vrf_tbl", "miss:ipv4_tbl"],
            corpus_size=1,
            batches_scored=1,
            table_gains={"vrf_tbl": 1, "ipv4_tbl": 1},
        )
        merged = merge_coverage_progress([self._progress(), None, other])
        assert merged.covered == 4  # union, shared key counted once
        assert merged.samples == [(10, 3), (20, 5), (35, 4)]  # offset by shard
        assert merged.batches_scored == 3
        assert merged.table_gains == {"vrf_tbl": 3, "ipv4_tbl": 1}
        assert merge_coverage_progress([None, None]) is None
