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
