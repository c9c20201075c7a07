"""The benchmark's catalogue: workloads, sizes, and every metric by name.

``BENCHMARK.json`` at the repo root is the driver-facing subset of this
file (its schema admits only name/unit/better/bound); the owning layer of
each metric, the end-to-end metric it should move, the workloads it is
defined on, and the workload sizes live here.  ``tests/bench`` asserts the
two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SCHEMA = "switchv-bench/1"
DEFAULT_SEED = 1
RUN_SECONDS = 10
# A repetition is one fresh child interpreter.  A run keeps spawning them
# until it has measured RUN_SECONDS of window time, and never fewer than
# this, so every reported value is a median that can shed one disturbed
# repetition.
MIN_REPETITIONS = 3
# Where set-up takes under SHORT_SETUP_S, setup_s is sampled this many
# times per run: once per repetition, the rest by children that exit when
# set-up is done.
SETUP_SAMPLES = 5
SHORT_SETUP_S = 1.0
LOOP = "Closed loop, 1 client."

# One catalogue fault per Table 1 component: the first whose detection does
# not hinge on the fuzzer drawing one particular mutation in a campaign
# this short.  No Orchestration Agent fault qualifies (all four are missed
# on some seeds below ~15 writes x 25), so that component has no row; see
# README "What is deliberately unmeasured".
BUG_HUNT_FAULTS: Tuple[Tuple[str, str], ...] = (
    ("pins", "p4info_push_failure_swallowed"),  # P4Runtime Server
    ("pins", "zero_byte_id_mangled"),  # P4 Toolchain
    ("pins", "acl_invalid_cleanup_leak"),  # SyncD Binary
    ("pins", "port_sync_daemon_restart"),  # Switch Linux
    ("pins", "gnmi_port_disabled"),  # gNMI
    ("pins", "ttl1_hw_trap_disagrees"),  # Hardware
    ("pins", "model_missing_broadcast_drop"),  # Input P4 Program
    ("cerberus", "bmv2_optional_zero_match"),  # BMv2 P4 Simulator
    ("cerberus", "port_speed_drop"),  # Hardware
    ("cerberus", "cerberus_model_missing_broadcast_drop"),  # Input P4 Program
    ("cerberus", "encap_dst_reversed"),  # Switch software
)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    sizes: Dict[str, int]
    tiny: Dict[str, int]


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "symbolic_cold",
        "Table 3 top half: one cold ToR-150 data-plane validation + 3 "
        "whole-run-cache cycles; symbolic walk + smt do >=90% of the work, "
        "fuzzer none. " + LOOP,
        sizes={"entries": 150, "cached_cycles": 3},
        tiny={"entries": 40, "cached_cycles": 1},
    ),
    WorkloadSpec(
        "symbolic_churn",
        "Same symbolic+smt layers used incrementally: ToR-80 base validated "
        "in setup, then 5 single-entry edits re-validated on the warm "
        "SolverPool + per-goal cache. " + LOOP,
        sizes={"entries": 80, "edits": 5},
        tiny={"entries": 40, "edits": 3},
    ),
    WorkloadSpec(
        "fuzz_control",
        "Table 3 bottom half: P4Fuzzer 70 writes x 50 updates, read-back after "
        "every write; fuzzer + switch do all the work, so smt changes predict "
        "no movement. " + LOOP,
        sizes={"writes": 70, "updates_per_write": 50},
        tiny={"writes": 4, "updates_per_write": 10},
    ),
    WorkloadSpec(
        "state_25k",
        "Production-scale state: 25k preloaded entries, then 6k CRM churn "
        "updates, 6k packets, 5 full read-back judgings; bmv2 index + "
        "incremental switch/oracle state. " + LOOP,
        sizes={
            "entries": 25_000,
            "churn_updates": 6_000,
            "packets": 6_000,
            "readback_cycles": 5,
            "sim_sample": 200,
        },
        tiny={
            "entries": 600,
            "churn_updates": 100,
            "packets": 100,
            "readback_cycles": 3,
            "sim_sample": 20,
        },
    ),
    WorkloadSpec(
        "bug_hunt",
        "The verdict itself: 11 seeded-fault campaigns (one per Table 1 "
        "component) + 2 fault-free controls, all layers in nightly "
        "proportions; catches a weakened oracle. " + LOOP,
        sizes={
            "campaigns": len(BUG_HUNT_FAULTS),
            "fuzz_writes": 6,
            "fuzz_updates_per_write": 20,
            "workload_entries": 40,
        },
        tiny={
            "campaigns": 2,
            "fuzz_writes": 3,
            "fuzz_updates_per_write": 10,
            "workload_entries": 40,
        },
    ),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}

SYMBOLIC = ("symbolic_cold", "symbolic_churn")
ALL = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    layer: str
    moves: str  # the end-to-end metric this one should move ("" = none)
    workloads: Tuple[str, ...]  # where it is defined (0 elsewhere)
    bound: float = 0.0  # tolerated worsening, share of the parent's median (0: none)


# ----------------------------------------------------------------------
# End-to-end: what the person waiting for the verdict sees.  The driver's
# contract wants every end-to-end metric reported (non-zero) on every
# workload, so only the three universal ones are bounded here; the
# workload-specific phase metrics follow in PHASE with the same
# definitions the issue gave them.
# ----------------------------------------------------------------------
END_TO_END: Tuple[Metric, ...] = (
    Metric("verdict_s", "s", "lower", "switchv", "", ALL, bound=0.25),
    Metric("setup_s", "s", "lower", "workloads", "", ALL, bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", "proc", "", ALL, bound=0.20),
)

PHASE_BOUND = 0.15  # for compare / aa; the driver does not bound these

PHASE: Tuple[Metric, ...] = tuple(
    Metric(name, unit, better, layer, "verdict_s", workloads, bound=PHASE_BOUND)
    for name, unit, better, layer, workloads in (
        ("generation_s", "s", "lower", "symbolic", SYMBOLIC),
        ("testing_s", "s", "lower", "bmv2", SYMBOLIC),
        ("cached_cycle_s", "s", "lower", "symbolic", ("symbolic_cold",)),
        ("updates_per_s", "1/s", "higher", "fuzzer", ("fuzz_control", "state_25k")),
        ("packets_per_s", "1/s", "higher", "switch", ("state_25k",)),
        ("readback_cycle_s", "s", "lower", "fuzzer", ("state_25k",)),
    )
)


def _layer(names: str, unit: str, better: str, moves: str, workloads) -> Tuple[Metric, ...]:
    return tuple(
        Metric(name, unit, better, name.split(".", 1)[0], moves, tuple(workloads))
        for name in names.split()
    )


STATE = ("state_25k",)
FUZZ = ("fuzz_control",)

LAYER: Tuple[Metric, ...] = (
    *_layer("p4.build_s workloads.entries_s", "s", "lower", "setup_s", ALL),
    *_layer("bmv2.decode_s", "s", "lower", "setup_s", SYMBOLIC + STATE),
    *_layer("switch.preload_s fuzzer.oracle_resync_s bmv2.index_build_s",
            "s", "lower", "setup_s", STATE),
    *_layer("switch.install_s fuzzer.batching_s", "s", "lower", "verdict_s", SYMBOLIC),
    *_layer("switch.install_writes", "count", "lower", "verdict_s", SYMBOLIC),
    *_layer("symbolic.cache_key_s symbolic.walk_s symbolic.solve_s",
            "s", "lower", "generation_s", SYMBOLIC),
    *_layer("symbolic.goals symbolic.solver_queries symbolic.canonical_checks "
            "symbolic.goals_uncovered", "count", "lower", "generation_s", SYMBOLIC),
    *_layer("symbolic.goals_subsumed symbolic.goals_from_cache symbolic.pool_hits",
            "count", "higher", "generation_s", SYMBOLIC),
    *_layer("symbolic.cache_hit_ratio", "ratio", "higher", "generation_s", SYMBOLIC),
    *_layer("smt.simplify_s smt.check_s", "s", "lower", "generation_s", ("symbolic_cold",)),
    *_layer("smt.cnf_vars smt.cnf_clauses smt.sat_propagations smt.sat_conflicts "
            "smt.sat_decisions", "count", "lower", "generation_s", SYMBOLIC),
    *_layer("smt.gates_shared", "count", "higher", "generation_s", SYMBOLIC),
    *_layer("bmv2.deparse_s bmv2.simulate_s", "s", "lower", "testing_s", SYMBOLIC),
    *_layer("bmv2.behaviors_per_packet", "ratio", "lower", "testing_s", SYMBOLIC),
    *_layer("switch.send_packet_s", "s", "lower", "testing_s", SYMBOLIC + STATE),
    *_layer("switch.send_packet_calls", "count", "lower", "testing_s", SYMBOLIC + STATE),
    *_layer("switch.write_s", "s", "lower", "updates_per_s", FUZZ + STATE),
    *_layer("switch.write_calls switch.rejected_updates", "count", "lower",
            "updates_per_s", FUZZ + STATE),
    *_layer("switch.write_p50_ms switch.write_p95_ms", "ms", "lower",
            "updates_per_s", FUZZ + STATE),
    *_layer("switch.read_s", "s", "lower", "readback_cycle_s", FUZZ + STATE),
    *_layer("switch.read_calls switch.read_entries", "count", "lower",
            "readback_cycle_s", FUZZ + STATE),
    *_layer("fuzzer.self_s", "s", "lower", "updates_per_s", FUZZ),
    *_layer("fuzzer.generate_us_per_update", "us", "lower", "updates_per_s", FUZZ),
    *_layer("fuzzer.valid_updates fuzzer.invalid_updates fuzzer.writes_sent "
            "fuzzer.final_entries", "count", "higher", "updates_per_s", FUZZ),
    *_layer("fuzzer.oracle_judge_s", "s", "lower", "updates_per_s", FUZZ + STATE),
    *_layer("fuzzer.oracle_updates_per_s", "1/s", "higher", "updates_per_s", FUZZ + STATE),
    *_layer("fuzzer.oracle_first_readback_s", "s", "lower", "readback_cycle_s", STATE),
    *_layer("bmv2.sim_packets_per_s", "1/s", "higher", "packets_per_s", STATE),
    *_layer("switchv.fault_p50_s", "s", "lower", "verdict_s", ("bug_hunt",)),
    *_layer("switchv.detected_by_fuzzer switchv.detected_by_symbolic switchv.incidents",
            "count", "higher", "verdict_s", ("bug_hunt",)),
    # Noise and overhead diagnostics: they move nothing.
    *_layer("proc.cpu_s", "s", "lower", "", ALL),
    *_layer("proc.cpu_share", "ratio", "higher", "", ALL),
    *_layer("trace.overhead_share", "ratio", "lower", "", ALL),
    *_layer("trace.spans", "count", "lower", "", ALL),
)

PER_LAYER: Tuple[Metric, ...] = PHASE + LAYER
METRIC_BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}

# Counters that must read exactly the same on every repetition of one
# (workload, seed): the runner fails the run otherwise.
EXACT_REPEAT_PREFIXES = ("smt.", "symbolic.", "fuzzer.valid", "fuzzer.invalid",
                         "fuzzer.writes_sent", "fuzzer.final_entries",
                         "switch.write_calls", "switch.read_calls",
                         "switch.read_entries", "switch.send_packet_calls",
                         "switch.rejected_updates", "switch.install_writes",
                         "switchv.detected", "switchv.incidents")


def sizes_for(workload: str, tiny: bool) -> Dict[str, int]:
    spec = WORKLOAD_BY_NAME[workload]
    return dict(spec.tiny if tiny else spec.sizes)


def benchmark_json() -> dict:
    """The driver-facing BENCHMARK.json, derived from this catalogue."""
    return {
        "command": ["python3", "-m", "bench", "run"],
        "paths": ["bench", "tests/bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
