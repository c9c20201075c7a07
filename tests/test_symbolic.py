"""Tests for p4-symbolic: executor, coverage, packet soundness, cache."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bmv2.entries import decode_table_entry
from repro.bmv2.interpreter import Interpreter
from repro.bmv2.simulator import Bmv2Simulator
from repro.p4rt import codec
from repro.smt import Result, Solver
from repro.smt import terms as T
from repro.symbolic import PacketGenerator, SymbolicExecutor
from repro.symbolic.cache import PacketCache, cache_key
from repro.switchv.harness import DataPlaneStats
from repro.switchv.report import render_generation_stats
from repro.symbolic.coverage import CoverageMode, entry_goal, entry_goal_name, trace_goal
from repro.symbolic.profiles import profiles_for_pattern
from repro.workloads import EntryBuilder, baseline_entries

E = codec.encode


def decode_state(p4info, entries):
    state = {}
    for entry in entries:
        decoded = decode_table_entry(p4info, entry)
        state.setdefault(decoded.table_name, []).append(decoded)
    return state


@pytest.fixture
def toy_state(toy_p4info):
    b = EntryBuilder(toy_p4info)
    entries = [
        b.ternary("pre_ingress_tbl", {}, "set_vrf", {"vrf_id": 1}, priority=1),
        b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction"),
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 8, "set_nexthop_id", {"nexthop_id": 3}),
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 16, "set_nexthop_id", {"nexthop_id": 7}),
    ]
    return decode_state(toy_p4info, entries)


class TestProfiles:
    def test_profile_enumeration_matches_parser(self):
        profiles = profiles_for_pattern("ethernet_ipv4_ipv6")
        names = {p.name for p in profiles}
        assert names == {
            "eth",
            "eth_ipv4", "eth_ipv4_icmp", "eth_ipv4_tcp", "eth_ipv4_udp",
            "eth_ipv6", "eth_ipv6_icmp", "eth_ipv6_tcp", "eth_ipv6_udp",
        }

    def test_pins_and_exclusions(self):
        profiles = {p.name: p for p in profiles_for_pattern("ethernet_ipv4_ipv6")}
        assert profiles["eth_ipv4"].pin_map() == {"ethernet.ether_type": 0x0800}
        assert profiles["eth_ipv4_udp"].pin_map()["ipv4.protocol"] == 17
        eth = profiles["eth"]
        assert eth.exclusions[0][1] == (0x0800, 0x86DD)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            profiles_for_pattern("nope")


class TestExecutor:
    def test_trace_has_entry_keys_per_profile(self, toy_program, toy_state):
        executions = SymbolicExecutor(toy_program, toy_state).execute()
        ipv4_profiles = [e for e in executions if "ipv4" in e.profile.valid_headers]
        for execution in ipv4_profiles:
            entry_keys = [k for k in execution.trace if k[0] == "entry" and k[1] == "ipv4_tbl"]
            assert len(entry_keys) == 2

    def test_lpm_priority_negation(self, toy_program, toy_state, toy_p4info):
        """A packet witnessing the /8 entry must not match the /16 one."""
        executions = SymbolicExecutor(toy_program, toy_state).execute()
        execution = next(e for e in executions if e.profile.name == "eth_ipv4_udp")
        shorter = next(
            term
            for key, term in execution.trace.items()
            if key[0] == "entry" and key[1] == "ipv4_tbl"
            and any("/8" not in "" and m[4] == 8 for m in key[2][1])  # prefix_len 8
        )
        solver = Solver()
        for c in execution.constraints:
            solver.add(c)
        assert solver.check(shorter) is Result.SAT
        model = solver.model()
        dst = model.get("eth_ipv4_udp::ipv4.dst_addr", 0)
        assert (dst >> 24) == 0x0A
        assert (dst >> 16) & 0xFF != 0  # excluded from 10.0/16

    def test_branch_trace_records_both_directions(self, toy_program, toy_state):
        executions = SymbolicExecutor(toy_program, toy_state).execute()
        execution = next(e for e in executions if e.profile.name == "eth_ipv4_udp")
        assert ("branch", "ipv4_gate", True) in execution.trace
        assert ("branch", "ipv4_gate", False) in execution.trace

    def test_isvalid_is_concrete_per_profile(self, toy_program, toy_state):
        executions = SymbolicExecutor(toy_program, toy_state).execute()
        eth_only = next(e for e in executions if e.profile.name == "eth")
        # In the eth-only profile the ipv4 gate can never be taken.
        taken = eth_only.trace[("branch", "ipv4_gate", True)]
        assert taken is T.FALSE

    def test_outputs_map_every_field(self, toy_program, toy_state):
        executions = SymbolicExecutor(toy_program, toy_state).execute()
        for execution in executions:
            for path in toy_program.all_field_paths():
                assert path in execution.outputs

    def test_ingress_port_constrained_to_valid_ports(self, toy_program, toy_state):
        executor = SymbolicExecutor(toy_program, toy_state, valid_ports=(3, 4))
        execution = executor.execute()[0]
        solver = Solver()
        for c in execution.constraints:
            solver.add(c)
        port = execution.inputs["standard.ingress_port"]
        assert solver.check(port.eq(3)) is Result.SAT
        assert solver.check(port.eq(5)) is Result.UNSAT


class TestPacketGeneration:
    def test_entry_coverage_for_toy_state(self, toy_program, toy_state):
        result = PacketGenerator(toy_program, toy_state).generate(CoverageMode.ENTRY)
        covered_goals = {p.goal for p in result.packets}
        # All four installed entries are reachable.
        entry_goals = [g for g in covered_goals if g.startswith("entry:")]
        assert len(entry_goals) == 4

    def test_branch_coverage_includes_gates(self, toy_program, toy_state):
        result = PacketGenerator(toy_program, toy_state).generate(CoverageMode.BRANCH)
        assert any(p.goal.startswith("branch:ipv4_gate") for p in result.packets)

    def test_unreachable_goals_reported(self, toy_program, toy_state):
        result = PacketGenerator(toy_program, toy_state).generate(CoverageMode.ENTRY)
        # The wildcard pre-ingress entry always matches: its miss is UNSAT.
        assert "miss:pre_ingress_tbl" in result.uncovered

    def test_generated_packets_hit_their_goal_entries(self, toy_program, toy_state):
        """Soundness (§5): interpreting the generated packet concretely
        executes the targeted construct."""
        result = PacketGenerator(toy_program, toy_state).generate(CoverageMode.ENTRY)
        interp = Interpreter(toy_program, toy_state)
        for generated in result.packets:
            if not generated.goal.startswith("entry:"):
                continue
            table = generated.goal.split(":")[1]
            run = interp.run(generated.packet, generated.ingress_port)
            hit_tables = [t for t, e, _a in run.trace.table_hits if e is not None]
            assert table in hit_tables, generated

    def test_custom_trace_goal(self, toy_program, toy_state, toy_p4info):
        state = toy_state
        entries = state["ipv4_tbl"]
        goal = trace_goal(
            "both-route-and-vrf",
            [
                ("entry", "ipv4_tbl", entries[0].identity()),
                ("entry", "vrf_tbl", state["vrf_tbl"][0].identity()),
            ],
        )
        result = PacketGenerator(toy_program, state).generate(
            CoverageMode.CUSTOM, custom_goals=[goal]
        )
        assert len(result.packets) == 1

    def test_port_diversity(self, tor_program, tor_p4info):
        from repro.workloads import production_like_entries

        entries = production_like_entries(tor_p4info, total=60, seed=2)
        state = decode_state(tor_p4info, entries)
        result = PacketGenerator(tor_program, state).generate(CoverageMode.ENTRY)
        ports = {p.ingress_port for p in result.packets}
        # The canonical forwarding context concentrates on the first port;
        # port-qualified guards (the per-port VRF assignments) force others.
        assert len(ports) >= 2

    def test_background_fill_is_realistic(self, toy_program, toy_state):
        result = PacketGenerator(toy_program, toy_state).generate(CoverageMode.ENTRY)
        ipv4_packets = [p for p in result.packets if "ipv4" in p.packet.valid_headers]
        assert ipv4_packets
        for generated in ipv4_packets:
            # TTL was left unconstrained for vrf/pre-ingress goals; the
            # background value keeps packets realistic (no zero-TTL noise).
            assert generated.packet.get("ipv4.ttl") >= 1

    def test_soundness_on_baseline_pipeline(self, tor_program, tor_p4info, tor_baseline):
        state = decode_state(tor_p4info, tor_baseline)
        result = PacketGenerator(tor_program, state).generate(CoverageMode.ENTRY)
        assert result.stats.goals_covered >= 10
        interp = Interpreter(tor_program, state)
        sound = 0
        for generated in result.packets:
            if not generated.goal.startswith("entry:"):
                continue
            table = generated.goal.split(":")[1]
            run = interp.run(generated.packet, generated.ingress_port)
            hit = [t for t, e, _a in run.trace.table_hits if e is not None]
            assert table in hit, generated.goal
            sound += 1
        assert sound >= 10

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 1_000))
    def test_soundness_on_random_states(self, seed):
        """Property: for random workloads, every generated packet's goal
        entry is concretely hit."""
        from repro.p4.p4info import build_p4info
        from repro.p4.programs import build_tor_program
        from repro.workloads import production_like_entries

        program = build_tor_program()
        p4info = build_p4info(program)
        entries = production_like_entries(p4info, total=40, seed=seed)
        state = decode_state(p4info, entries)
        result = PacketGenerator(program, state).generate(CoverageMode.ENTRY)
        interp = Interpreter(program, state)
        for generated in result.packets[:20]:
            if not generated.goal.startswith("entry:"):
                continue
            table = generated.goal.split(":")[1]
            run = interp.run(generated.packet, generated.ingress_port)
            hit = [t for t, e, _a in run.trace.table_hits if e is not None]
            assert table in hit


class TestCache:
    def test_cache_roundtrip(self, toy_program, toy_state):
        cache = PacketCache()
        key = cache_key(toy_program, toy_state, CoverageMode.ENTRY, (1, 2))
        assert cache.lookup(key) is None
        result = PacketGenerator(toy_program, toy_state).generate(CoverageMode.ENTRY)
        cache.store(key, result)
        hit = cache.lookup(key)
        assert hit is not None
        assert hit.stats.cache_hit
        assert len(hit.packets) == len(result.packets)

    def test_key_sensitive_to_entries(self, toy_program, toy_state):
        smaller = {k: v[:-1] if k == "ipv4_tbl" else v for k, v in toy_state.items()}
        a = cache_key(toy_program, toy_state, CoverageMode.ENTRY, (1,))
        b = cache_key(toy_program, smaller, CoverageMode.ENTRY, (1,))
        assert a != b

    def test_key_sensitive_to_program_and_mode(self, toy_program, tor_program, toy_state):
        a = cache_key(toy_program, toy_state, CoverageMode.ENTRY, (1,))
        b = cache_key(toy_program, toy_state, CoverageMode.BRANCH, (1,))
        c = cache_key(tor_program, {}, CoverageMode.ENTRY, (1,))
        assert len({a, b, c}) == 3

    def test_key_insensitive_to_entry_order(self, toy_program, toy_state):
        reordered = {k: list(reversed(v)) for k, v in toy_state.items()}
        a = cache_key(toy_program, toy_state, CoverageMode.ENTRY, (1,))
        b = cache_key(toy_program, reordered, CoverageMode.ENTRY, (1,))
        assert a == b

    def test_disk_persistence(self, toy_program, toy_state, tmp_path):
        key = cache_key(toy_program, toy_state, CoverageMode.ENTRY, (1,))
        result = PacketGenerator(toy_program, toy_state).generate(CoverageMode.ENTRY)
        first = PacketCache(directory=tmp_path)
        first.store(key, result)
        second = PacketCache(directory=tmp_path)  # fresh process, warm disk
        hit = second.lookup(key)
        assert hit is not None and hit.stats.cache_hit

    def test_clear(self, toy_program, toy_state, tmp_path):
        cache = PacketCache(directory=tmp_path)
        key = cache_key(toy_program, toy_state, CoverageMode.ENTRY, (1,))
        cache.store(key, PacketGenerator(toy_program, toy_state).generate(CoverageMode.ENTRY))
        cache.clear()
        assert cache.lookup(key) is None

    # ------------------------------------------------------------------
    # §6.3 cache-validity contract: the key is a pure function of the
    # things that affect the SMT constraints, and nothing else.
    # ------------------------------------------------------------------
    def test_key_sensitive_to_entry_content(self, toy_program, toy_state, toy_p4info):
        b = EntryBuilder(toy_p4info)
        changed = dict(toy_state)
        changed["ipv4_tbl"] = toy_state["ipv4_tbl"][:-1] + [
            decode_table_entry(
                toy_p4info,
                b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 16,
                      "set_nexthop_id", {"nexthop_id": 9}),  # was 7
            )
        ]
        a = cache_key(toy_program, toy_state, CoverageMode.ENTRY, (1,))
        b_key = cache_key(toy_program, changed, CoverageMode.ENTRY, (1,))
        assert a != b_key

    def test_key_sensitive_to_valid_ports(self, toy_program, toy_state):
        a = cache_key(toy_program, toy_state, CoverageMode.ENTRY, (1, 2))
        b = cache_key(toy_program, toy_state, CoverageMode.ENTRY, (1, 2, 3))
        assert a != b

    def test_corrupt_disk_pickle_is_a_miss_and_removed(self, toy_program, toy_state, tmp_path):
        """A truncated/garbage on-disk pickle must not crash the run: it is
        deleted and treated as a cache miss."""
        key = cache_key(toy_program, toy_state, CoverageMode.ENTRY, (1,))
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(b"\x80\x04 this is not a pickle")
        cache = PacketCache(directory=tmp_path)
        assert cache.lookup(key) is None
        assert not path.exists()
        # The slot is usable again after the bad file is purged.
        result = PacketGenerator(toy_program, toy_state).generate(CoverageMode.ENTRY)
        cache.store(key, result)
        assert cache.lookup(key) is not None

    def test_corrupt_goal_pickle_is_a_miss(self, tmp_path):
        cache = PacketCache(directory=tmp_path)
        (tmp_path / "goals" / "deadbeef.pkl").write_bytes(b"garbage")
        assert cache.lookup_goal("deadbeef") is None


class TestPerGoalCache:
    """§6.3 refined: goal-level keys survive edits to unrelated entries."""

    def test_warm_run_answers_without_solving(self, toy_program, toy_state):
        cache = PacketCache()
        cold = PacketGenerator(toy_program, toy_state).generate(
            CoverageMode.ENTRY, goal_cache=cache
        )
        warm = PacketGenerator(toy_program, toy_state).generate(
            CoverageMode.ENTRY, goal_cache=cache
        )
        assert cold.stats.solver_queries > 0
        assert warm.stats.solver_queries == 0
        assert warm.stats.goals_from_cache == warm.stats.goals_total
        assert {p.goal for p in warm.packets} == {p.goal for p in cold.packets}
        assert warm.uncovered == cold.uncovered

    def test_edited_entry_resolves_only_affected_goals(self, toy_program, toy_state):
        """Removing one route re-solves the goals whose formulas mention it
        (same-table priority negations, the table miss) and reuses the rest
        — observable as a solver_queries drop."""
        cache = PacketCache()
        cold = PacketGenerator(toy_program, toy_state).generate(
            CoverageMode.ENTRY, goal_cache=cache
        )
        edited = {
            k: (v[:-1] if k == "ipv4_tbl" else v) for k, v in toy_state.items()
        }
        warm = PacketGenerator(toy_program, edited).generate(
            CoverageMode.ENTRY, goal_cache=cache
        )
        assert 0 < warm.stats.solver_queries < cold.stats.solver_queries
        assert warm.stats.goals_from_cache > 0
        # The untouched pre-ingress/vrf goals came from the cache.
        reused = {p.goal for p in warm.packets} & {p.goal for p in cold.packets}
        assert any(g.startswith("entry:pre_ingress_tbl") for g in reused)

    def test_goal_cache_persists_on_disk(self, toy_program, toy_state, tmp_path):
        cold_cache = PacketCache(directory=tmp_path)
        PacketGenerator(toy_program, toy_state).generate(
            CoverageMode.ENTRY, goal_cache=cold_cache
        )
        fresh = PacketCache(directory=tmp_path)  # warm disk, cold memory
        warm = PacketGenerator(toy_program, toy_state).generate(
            CoverageMode.ENTRY, goal_cache=fresh
        )
        assert warm.stats.solver_queries == 0
        assert warm.stats.goals_from_cache == warm.stats.goals_total


class TestSubsumptionAndMemoization:
    """Coverage subsumption (a goal an earlier packet already witnesses is
    covered by evaluation, not solving) and per-(profile, constrained-set)
    refinement memoization."""

    def test_subsumption_covers_goals_without_solving(self, tor_program, tor_p4info):
        from repro.workloads import production_like_entries

        entries = production_like_entries(tor_p4info, total=60, seed=2)
        state = decode_state(tor_p4info, entries)
        result = PacketGenerator(tor_program, state).generate(CoverageMode.ENTRY)
        assert result.stats.goals_subsumed > 0
        # Subsumed goals count as covered and emit a witness packet.
        assert result.stats.goals_covered == len(result.packets)

    def test_subsumed_witnesses_are_sound(self, tor_program, tor_p4info):
        """A re-used witness must drive the concrete interpreter through
        its goal, exactly like a freshly solved one."""
        from repro.workloads import production_like_entries

        entries = production_like_entries(tor_p4info, total=60, seed=2)
        state = decode_state(tor_p4info, entries)
        result = PacketGenerator(tor_program, state).generate(CoverageMode.ENTRY)
        assert result.stats.goals_subsumed > 0
        interp = Interpreter(tor_program, state)
        for generated in result.packets:
            if not generated.goal.startswith("entry:"):
                continue
            table = generated.goal.split(":")[1]
            run = interp.run(generated.packet, generated.ingress_port)
            hit = [t for t, e, _a in run.trace.table_hits if e is not None]
            assert table in hit, generated.goal

    def test_subsumed_witness_is_an_independent_copy(self, tor_program, tor_p4info):
        """Re-labelled clones must not alias the prior packet: mutating
        one generated packet can't corrupt another's witness."""
        from repro.workloads import production_like_entries

        entries = production_like_entries(tor_p4info, total=60, seed=2)
        state = decode_state(tor_p4info, entries)
        result = PacketGenerator(tor_program, state).generate(CoverageMode.ENTRY)
        seen = set()
        for generated in result.packets:
            assert id(generated.packet) not in seen
            seen.add(id(generated.packet))

    def test_subsumption_skips_partial_assignments(self, toy_program, toy_state):
        """A condition over variables the prior packet never bound must
        not be 'evaluated' with default zeros."""
        generator = PacketGenerator(toy_program, toy_state)
        executions = generator.executions()
        result = generator.generate(CoverageMode.ENTRY)
        # Whatever subsumption concluded, every witness evaluates its
        # goal's condition to true under the packet's own field values —
        # the invariant the partial-assignment guard protects.
        from repro.symbolic.coverage import goals_for_mode

        goals = {g.name: g for g in goals_for_mode(executions, CoverageMode.ENTRY, ())}
        for generated in result.packets:
            goal = goals[generated.goal]
            hit = generator.subsume_goal(goal, executions, [generated])
            assert hit is not None, generated.goal

    def test_refinements_memoized_per_profile_and_constrained_set(
        self, tor_program, tor_p4info
    ):
        from repro.workloads import production_like_entries

        entries = production_like_entries(tor_p4info, total=60, seed=2)
        state = decode_state(tor_p4info, entries)
        generator = PacketGenerator(tor_program, state)
        result = generator.generate(CoverageMode.ENTRY)
        assert result.packets
        # Many goals share a (profile, constrained-variable-set) signature,
        # so the memo stays far smaller than the goal list.
        assert generator._refinement_cache
        assert len(generator._refinement_cache) < result.stats.goals_total

    def test_memoized_refinements_are_stable(self, toy_program, toy_state):
        """Two generators over the same state produce identical packets —
        memoization changes cost, never witnesses."""
        first = PacketGenerator(toy_program, toy_state).generate(CoverageMode.ENTRY)
        second = PacketGenerator(toy_program, toy_state).generate(CoverageMode.ENTRY)
        assert [p.packet.fields for p in first.packets] == [
            p.packet.fields for p in second.packets
        ]


class TestEffortStats:
    def test_solver_effort_is_surfaced(self, tor_program, tor_p4info):
        from repro.workloads import production_like_entries

        state = decode_state(tor_p4info, production_like_entries(tor_p4info, total=30, seed=2))
        stats = PacketGenerator(tor_program, state).generate(CoverageMode.ENTRY).stats
        assert stats.solver_queries > 0
        assert stats.sat_decisions > 0
        assert stats.sat_propagations > 0
        # Conflicts are workload-dependent but this cascade always has some.
        assert stats.sat_conflicts > 0

    def test_render_generation_stats(self):
        stats = DataPlaneStats(
            goals_total=10,
            goals_covered=8,
            goals_from_cache=3,
            generation_seconds=1.5,
            solver_queries=42,
            sat_conflicts=7,
            sat_decisions=100,
            sat_propagations=5000,
        )
        text = render_generation_stats(stats)
        assert "8/10 covered" in text
        assert "3 from cache" in text
        assert "42 queries" in text


class TestSubsumptionReporting:
    def test_render_counts_subsumed_goals(self):
        stats = DataPlaneStats(
            goals_total=10,
            goals_covered=9,
            goals_from_cache=3,
            goals_subsumed=2,
            generation_seconds=0.5,
        )
        text = render_generation_stats(stats)
        assert "2 subsumed" in text


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
