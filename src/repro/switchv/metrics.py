"""Feature-progress metrics (§7 "Development Processes Using SwitchV").

The paper: "SwitchV ... provides a natural set of metrics to measure the
progress towards completing an OKR for some feature F.  For example, the
percentage of fuzzed table entries related to F that are correctly handled
by the switch, or the percentage of table entries related to F that produce
correct output packets when hit by test packets."

A *feature* here is a set of tables.  :func:`collect_feature_metrics` runs
a scaled SwitchV cycle and attributes control-plane handling and data-plane
correctness per feature, producing the tracking numbers a team would put on
a dashboard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bmv2.entries import EntryDecodeError, decode_table_entry
from repro.fuzzer import FuzzerConfig, P4Fuzzer
from repro.fuzzer.feedback import CoverageProgress
from repro.p4.ast import P4Program
from repro.p4.p4info import build_p4info
from repro.p4rt.messages import TableEntry
from repro.switchv.harness import SwitchVHarness
from repro.switchv.report import Incident

# Default feature decomposition of the SAI-shaped models.
DEFAULT_FEATURES: Dict[str, Tuple[str, ...]] = {
    "routing": ("vrf_tbl", "ipv4_tbl", "ipv6_tbl"),
    "nexthop-resolution": ("nexthop_tbl", "neighbor_tbl", "router_interface_tbl"),
    "wcmp": ("wcmp_group_tbl",),
    "acl": ("acl_pre_ingress_tbl", "acl_ingress_tbl", "acl_egress_tbl", "l3_admit_tbl"),
    "mirroring": ("mirror_session_tbl",),
    "tunneling": ("tunnel_tbl", "decap_tbl"),
}


@dataclass
class FeatureMetrics:
    """The two §7 example metrics for one feature."""

    feature: str
    # Control plane: of the fuzzed updates touching this feature's tables,
    # how many were handled admissibly?
    control_updates: int = 0
    control_incidents: int = 0
    # Data plane: of the coverage goals over this feature's entries, how
    # many produced model-admissible behaviour?
    data_goals: int = 0
    data_incidents: int = 0

    @property
    def control_ok_ratio(self) -> Optional[float]:
        if self.control_updates == 0:
            return None
        return max(0.0, 1.0 - self.control_incidents / self.control_updates)

    @property
    def data_ok_ratio(self) -> Optional[float]:
        if self.data_goals == 0:
            return None
        # Deduplicated incidents can outnumber a small feature's entries
        # (several goal kinds reference the same table); clamp at zero.
        return max(0.0, 1.0 - self.data_incidents / self.data_goals)

    def row(self) -> Tuple[str, str, str]:
        def pct(ratio: Optional[float]) -> str:
            return "-" if ratio is None else f"{ratio:.0%}"

        return (self.feature, pct(self.control_ok_ratio), pct(self.data_ok_ratio))


def _feature_of(table_name: str, features: Mapping[str, Tuple[str, ...]]) -> Optional[str]:
    for feature, tables in features.items():
        if table_name in tables:
            return feature
    return None


def attribute_incident(
    incident: Incident, features: Mapping[str, Tuple[str, ...]]
) -> List[str]:
    """Every feature an incident belongs to, from its structured tables.

    Attribution reads :meth:`Incident.tables` (the table the oracle or
    harness recorded, plus any referenced tables), never summary
    substrings: ``"route"`` must not absorb an incident on
    ``"route_ext_tbl"``.  An incident touching tables of several features
    counts against each of them — no first-match ``break``.  Transport
    flakes attribute to nothing: availability is not a feature regression.
    """
    if incident.is_flake:
        return []
    implicated = incident.tables()
    return [
        feature
        for feature, tables in features.items()
        if any(t in tables for t in implicated)
    ]


def collect_feature_metrics(
    model: P4Program,
    switch,
    entries: Sequence[TableEntry],
    fuzzer_config: Optional[FuzzerConfig] = None,
    features: Optional[Mapping[str, Tuple[str, ...]]] = None,
) -> List[FeatureMetrics]:
    """Run a SwitchV cycle and attribute outcomes per feature."""
    features = dict(features or DEFAULT_FEATURES)
    p4info = build_p4info(model)
    table_names = {tid: t.name for tid, t in p4info.tables.items()}
    metrics = {name: FeatureMetrics(feature=name) for name in features}

    def feature_for_id(table_id: int) -> Optional[str]:
        name = table_names.get(table_id)
        return _feature_of(name, features) if name else None

    # Control plane: per-feature update counts from the fuzzer, incident
    # attribution by the table named in the incident input.
    harness = SwitchVHarness(model, switch)
    fuzzer = P4Fuzzer(p4info, switch, fuzzer_config or FuzzerConfig(num_writes=30))
    result = fuzzer.run()
    # Count updates by sampling the oracle's view: use mutation counters and
    # installed entries as the per-table denominator proxy is weak, so we
    # re-attribute from the campaign's own record instead.
    for entry in result.final_entries:
        feature = feature_for_id(entry.table_id)
        if feature:
            metrics[feature].control_updates += 1
    for incident in result.incidents:
        for feature in attribute_incident(incident, features):
            metrics[feature].control_incidents += 1

    # Data plane: entry-coverage goals grouped by the goal's table.
    harness.clear_switch()
    report = harness.validate_data_plane(entries)
    state = {}
    for entry in entries:
        try:
            decoded = decode_table_entry(p4info, entry)
        except EntryDecodeError:
            continue
        feature = _feature_of(decoded.table_name, features)
        if feature:
            metrics[feature].data_goals += 1
    for incident in report.incidents:
        for feature in attribute_incident(incident, features):
            metrics[feature].data_incidents += 1

    return [metrics[name] for name in features]


def render_metrics(metrics: Sequence[FeatureMetrics]) -> str:
    """A dashboard-style text table."""
    lines = [f"{'feature':22s} {'control-plane OK':>18s} {'data-plane OK':>15s}"]
    lines.append("-" * len(lines[0]))
    for metric in metrics:
        feature, control, data = metric.row()
        lines.append(f"{feature:22s} {control:>18s} {data:>15s}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Pipelined-campaign throughput metrics
# ----------------------------------------------------------------------
@dataclass
class PipelineThroughput:
    """One fuzz campaign's throughput under its write schedule.

    Modeled updates/second charges both the CPU the campaign spent and the
    transport wait its schedule would pay against a real switch at the
    injected latencies: per-window makespans, which equal per-RPC sums at
    depth 1.  That makes depth comparisons
    deterministic — no sleeping needed to show the overlap win.
    """

    depth: int = 1
    updates_sent: int = 0
    wall_seconds: float = 0.0
    transport_wait_seconds: float = 0.0
    max_in_flight: int = 1
    windows: int = 0
    conflict_stalls: int = 0
    read_backs: int = 0
    read_backs_coalesced: int = 0
    overlap_saved_s: float = 0.0

    @property
    def modeled_seconds(self) -> float:
        return self.wall_seconds + self.transport_wait_seconds

    @property
    def modeled_updates_per_second(self) -> float:
        if self.modeled_seconds == 0:
            return 0.0
        return self.updates_sent / self.modeled_seconds


def collect_pipeline_throughput(result) -> PipelineThroughput:
    """Fold a FuzzResult into throughput metrics."""
    stats = result.pipeline
    return PipelineThroughput(
        depth=stats.depth,
        updates_sent=result.updates_sent,
        wall_seconds=result.elapsed_seconds,
        transport_wait_seconds=result.transport_wait_seconds,
        max_in_flight=stats.max_in_flight,
        windows=stats.windows,
        conflict_stalls=stats.conflict_stalls,
        read_backs=stats.read_backs,
        read_backs_coalesced=stats.read_backs_coalesced,
        overlap_saved_s=stats.overlap_saved_s,
    )


# ----------------------------------------------------------------------
# Generation-effort (clause economy) metrics
# ----------------------------------------------------------------------
def collect_generation_effort(report) -> Dict[str, float]:
    """Flat solver/CNF effort counters from one validation run.

    Takes a :class:`repro.switchv.harness.ValidationReport` (duck-typed
    like the other collectors) and reads its ``data_plane`` stats.  These
    are the clause-economy numbers the benchmark's ``smt.*`` rows report:
    emitted SAT variables and clauses, structurally shared gates,
    and the propagation/conflict effort behind the queries — what makes a
    speedup attributable to the encoding rather than wall-clock noise.
    Returns zeros when the run had no data-plane phase.
    """
    stats = getattr(report, "data_plane", None) or report
    return {
        "goals_total": getattr(stats, "goals_total", 0),
        "goals_covered": getattr(stats, "goals_covered", 0),
        "solver_queries": getattr(stats, "solver_queries", 0),
        "sat_conflicts": getattr(stats, "sat_conflicts", 0),
        "sat_decisions": getattr(stats, "sat_decisions", 0),
        "sat_propagations": getattr(stats, "sat_propagations", 0),
        "cnf_vars": getattr(stats, "cnf_vars", 0),
        "cnf_clauses": getattr(stats, "cnf_clauses", 0),
        "gates_shared": getattr(stats, "gates_shared", 0),
        "generation_seconds": getattr(stats, "generation_seconds", 0.0),
    }


# ----------------------------------------------------------------------
# Coverage-feedback progress metrics
# ----------------------------------------------------------------------
def collect_coverage_progress(result) -> Optional[CoverageProgress]:
    """The coverage series a fuzz run recorded, or None when coverage
    tracking was off.  Takes a :class:`repro.fuzzer.fuzzer.FuzzResult`
    (duck-typed for symmetry with the other collectors); the samples are
    (cumulative updates, distinct trace keys covered) pairs — the curve a
    dashboard plots to show a campaign is still unlocking behaviour."""
    return getattr(result, "coverage", None)


def merge_coverage_progress(
    progresses: Sequence[Optional[CoverageProgress]],
) -> Optional[CoverageProgress]:
    """Fold per-shard coverage series into one fleet-level summary.

    Covered keys union (they are stable across processes — that is the
    point of the structural goal digest), counters and timings sum, and
    the sample curve concatenates in the given order with each shard's
    update axis offset by the totals before it, so the merged curve stays
    monotone in updates.  Returns None when no shard tracked coverage."""
    merged: Optional[CoverageProgress] = None
    offset = 0
    for progress in progresses:
        if progress is None:
            continue
        if merged is None:
            merged = CoverageProgress()
        covered = set(merged.covered_keys)
        covered.update(progress.covered_keys)
        merged.covered_keys = sorted(covered)
        merged.samples.extend(
            (offset + updates, keys) for updates, keys in progress.samples
        )
        offset += progress.samples[-1][0] if progress.samples else 0
        merged.corpus_size += progress.corpus_size
        merged.batches_scored += progress.batches_scored
        merged.batches_skipped += progress.batches_skipped
        merged.score_seconds += progress.score_seconds
        for table, gain in progress.table_gains.items():
            merged.table_gains[table] = merged.table_gains.get(table, 0) + gain
    return merged
