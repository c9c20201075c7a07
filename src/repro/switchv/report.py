"""Incident reporting.

When SwitchV deems a switch behaviour invalid it "produces a log of the
incident" for a human to root-cause (§2).  An :class:`Incident` captures
what was being tested, what was expected (the admissible set), and what was
observed; an :class:`IncidentLog` collects and deduplicates them per run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Tuple


class IncidentKind(enum.Enum):
    """The category of disagreement, used for triage and dedup."""

    # Control plane
    INVALID_REQUEST_ACCEPTED = "invalid request accepted"
    VALID_REQUEST_REJECTED = "valid request rejected"
    WRONG_ERROR_CODE = "wrong error code"
    READBACK_MISMATCH = "read-back disagrees with expected state"
    PIPELINE_CONFIG = "pipeline config handling"
    SWITCH_UNRESPONSIVE = "switch crashed or became unresponsive"
    # Model artefacts (a bug in the model itself, e.g. a malformed
    # @entry_restriction that would silently disable constraint checking).
    MODEL_ERROR = "malformed model artifact"
    # Transport availability (not a model divergence): a dropped or
    # ambiguous RPC the retry layer could not fully absorb.
    TRANSPORT_FLAKE = "transport flake (dropped or ambiguous RPC)"
    # Data plane
    FORWARDING_MISMATCH = "forwarding behavior not admitted by model"
    UNEXPECTED_PACKET_IN = "unexpected packet punted to controller"
    UNEXPECTED_EGRESS = "unexpected packet emitted on data port"
    PACKET_IO = "packet-io misbehavior"


# Availability kinds: the switch (or its transport) was *unreachable or
# flaky*, which is a different triage queue from a model divergence.
# Reports and metrics count these separately from model incidents.
TRANSPORT_KINDS = frozenset(
    {IncidentKind.SWITCH_UNRESPONSIVE, IncidentKind.TRANSPORT_FLAKE}
)


@dataclass
class Incident:
    """One observed divergence between the switch and the P4 model."""

    kind: IncidentKind
    summary: str
    # Free-form context for the human root-causing the issue.
    expected: str = ""
    observed: str = ""
    test_input: str = ""
    source: str = ""  # "p4-fuzzer" | "p4-symbolic" | "trivial-suite"
    # Structured attribution: the table the incident is about (empty when
    # no single table applies, e.g. a pipeline-config failure), plus any
    # other tables implicated (e.g. the target of a dangling reference).
    # Feature metrics attribute from these, never from summary substrings.
    table_id: int = 0
    table_name: str = ""
    related_tables: Tuple[str, ...] = ()

    @property
    def is_flake(self) -> bool:
        return self.kind in TRANSPORT_KINDS

    def tables(self) -> Tuple[str, ...]:
        """Every table this incident implicates, primary first."""
        if self.table_name:
            return (self.table_name,) + tuple(
                t for t in self.related_tables if t != self.table_name
            )
        return tuple(self.related_tables)

    def dedup_key(self) -> Tuple:
        return (self.kind, self.summary)

    def __repr__(self) -> str:
        return f"Incident({self.source}, {self.kind.value}: {self.summary})"


def render_generation_stats(stats) -> str:
    """Human-facing packet-generation effort summary.

    Takes a :class:`repro.switchv.harness.DataPlaneStats` (duck-typed to
    avoid a circular import) and renders where the generation time went:
    goal outcomes, cache effectiveness, and the aggregate SAT-solver effort
    (conflicts/decisions/propagations) that makes a benchmark regression
    attributable to the solver rather than to orchestration.
    """
    lines = [
        "packet generation:",
        f"    goals:        {stats.goals_covered}/{stats.goals_total} covered"
        f" ({stats.goals_from_cache} from cache,"
        f" {getattr(stats, 'goals_subsumed', 0)} subsumed)",
        f"    wall clock:   {stats.generation_seconds:.2f}s"
        f" ({stats.workers} worker(s){', whole-run cache hit' if stats.cache_hit else ''})",
        f"    solver:       {stats.solver_queries} queries,"
        f" {stats.sat_conflicts} conflicts,"
        f" {stats.sat_decisions} decisions,"
        f" {stats.sat_propagations} propagations",
        f"    cnf:          {getattr(stats, 'cnf_clauses', 0)} clauses /"
        f" {getattr(stats, 'cnf_vars', 0)} vars emitted,"
        f" {getattr(stats, 'gates_shared', 0)} gates shared",
    ]
    return "\n".join(lines)


def render_diagnostics(report) -> str:
    """Human-facing rendering of one model-lint run.

    Takes a :class:`repro.analysis.AnalysisReport` (duck-typed to avoid a
    circular import) and renders it the way the incident log renders
    divergences: errors first, then warnings, one fix-hint per finding.
    This is what the ``python -m repro.analysis`` CLI prints and what the
    harness logs before refusing to start a campaign."""
    errors = report.errors
    warnings = report.warnings
    scope = "structural+semantic" if report.semantic_ran else "structural only"
    lines = [
        f"model lint: {report.program_name} ({scope}): "
        f"{len(errors)} error(s), {len(warnings)} warning(s)"
    ]
    for diag in list(errors) + list(warnings):
        lines.append(f"  {diag.severity.value}[{diag.code}] {diag.location}")
        lines.append(f"      {diag.message}")
        if diag.fix_hint:
            lines.append(f"      fix: {diag.fix_hint}")
        witness = getattr(diag, "witness", None)
        if witness is not None:
            lines.extend(witness.render())
    if not report.diagnostics:
        lines.append("  clean: the model is usable as a specification")
    summary = getattr(report, "summary", None)
    if summary:
        parts = ", ".join(
            f"{key.replace('_', ' ')} {value}"
            for key, value in sorted(summary.items())
        )
        lines.append(f"  summary: {parts}")
    return "\n".join(lines)


def diagnostics_to_json(report) -> Dict:
    """The machine-facing twin of :func:`render_diagnostics`.

    A plain-dict rendering of one :class:`repro.analysis.AnalysisReport`
    (duck-typed), stable under ``json.dumps(..., sort_keys=True)`` — the
    CI lint-model job uploads this as an artifact and diffs runs byte for
    byte, so everything here must be deterministically ordered (the report
    is sorted by the analyzer) and free of wall-clock noise (timings are
    deliberately excluded)."""
    return {
        "program": report.program_name,
        "semantic_ran": report.semantic_ran,
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "summary": dict(getattr(report, "summary", {}) or {}),
        "diagnostics": [
            {
                "code": diag.code,
                "severity": diag.severity.value,
                "location": diag.location,
                "message": diag.message,
                "fix_hint": diag.fix_hint,
                "table": diag.table_name,
                "witness": (
                    diag.witness.to_json()
                    if getattr(diag, "witness", None) is not None
                    else None
                ),
            }
            for diag in report
        ],
    }


def render_transport_stats(transport) -> str:
    """Human-facing retry/timeout/reconnect summary for one campaign.

    Takes a :class:`repro.fuzzer.fuzzer.TransportSummary` (duck-typed to
    avoid a circular import).  These counters are the flake ledger the
    acceptance criteria require to be reported *separately* from model
    incidents: a noisy transport with zero model incidents is a healthy
    switch behind a bad cable, not a bug."""
    lines = [
        "transport:",
        f"    retries:      {transport.retries}"
        f" ({transport.deadline_exceeded} deadline misses,"
        f" {transport.reconnects} reconnects)",
        f"    ambiguity:    {transport.ambiguous_batches} ambiguous batch(es),"
        f" {transport.resyncs} oracle resync(s),"
        f" {transport.idempotent_rescues} idempotent rescue(s)",
        f"    flakes:       {transport.flakes} abandoned RPC(s)",
    ]
    return "\n".join(lines)


def render_pipeline_stats(result) -> str:
    """Human-facing fuzz-campaign schedule summary.

    Takes a :class:`repro.fuzzer.fuzzer.FuzzResult` (duck-typed to avoid a
    circular import) and renders the windowed scheduler's work: in-flight
    depth, coalesced read-backs, and the modeled throughput that charges
    both CPU and the schedule's transport wait."""
    stats = result.pipeline
    return "\n".join(
        [
            "pipeline:",
            f"    throughput:   {result.modeled_updates_per_second:.0f} updates/s modeled"
            f" ({result.updates_sent} updates,"
            f" {result.elapsed_seconds:.2f}s cpu"
            f" + {result.transport_wait_seconds:.2f}s transport wait)",
            f"    in flight:    depth {stats.depth},"
            f" peak {stats.max_in_flight},"
            f" {stats.windows} window(s),"
            f" {stats.conflict_stalls} conflict stall(s)",
            f"    read-backs:   {stats.read_backs} taken,"
            f" {stats.read_backs_coalesced} coalesced away",
            f"    overlap:      {stats.overlap_saved_s:.2f}s transport wait saved"
            f" ({stats.overlapped_generation_s:.2f}s generation overlapped)",
        ]
    )


def render_coverage_progress(progress) -> str:
    """Human-facing coverage-feedback summary for one fuzz campaign.

    Takes a :class:`repro.fuzzer.feedback.CoverageProgress` (duck-typed to
    avoid a circular import) and renders the greybox loop's yield: the
    coverage curve endpoints, the key-kind breakdown, corpus/scoring
    effort, and the tables where feedback found the most new behaviour."""
    kinds = progress.by_kind()
    breakdown = ", ".join(f"{kinds[k]} {k}" for k in sorted(kinds)) or "none"
    lines = [
        "coverage feedback:",
        f"    trace keys:   {progress.covered} covered ({breakdown})",
    ]
    if progress.samples:
        first_updates, first_keys = progress.samples[0]
        last_updates, last_keys = progress.samples[-1]
        lines.append(
            f"    curve:        {first_keys} keys @ {first_updates} updates"
            f" -> {last_keys} keys @ {last_updates} updates"
        )
    lines.append(
        f"    scoring:      {progress.batches_scored} batch(es) scored,"
        f" {progress.batches_skipped} skipped (unchanged state),"
        f" {progress.score_seconds:.2f}s"
    )
    lines.append(f"    corpus:       {progress.corpus_size} coverage-increasing batch(es)")
    if progress.table_gains:
        top = sorted(progress.table_gains.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
        lines.append(
            "    hot tables:   "
            + ", ".join(f"{name} (+{gain})" for name, gain in top)
        )
    return "\n".join(lines)


@dataclass
class IncidentLog:
    """A run's incidents, deduplicated by (kind, summary)."""

    incidents: List[Incident] = field(default_factory=list)
    _seen: set = field(default_factory=set)

    def report(self, incident: Incident) -> None:
        key = incident.dedup_key()
        if key in self._seen:
            return
        self._seen.add(key)
        self.incidents.append(incident)

    def extend(self, other: "IncidentLog") -> None:
        for incident in other.incidents:
            self.report(incident)

    @property
    def count(self) -> int:
        return len(self.incidents)

    # ------------------------------------------------------------------
    # Model-incident / transport-flake separation
    # ------------------------------------------------------------------
    def model_only(self) -> "IncidentLog":
        """The incidents that indicate a model/switch divergence (flakes
        and unresponsiveness are an availability problem, not a verdict)."""
        out = IncidentLog()
        for incident in self.incidents:
            if not incident.is_flake:
                out.report(incident)
        return out

    def flakes_only(self) -> "IncidentLog":
        out = IncidentLog()
        for incident in self.incidents:
            if incident.is_flake:
                out.report(incident)
        return out

    @property
    def model_count(self) -> int:
        return sum(1 for i in self.incidents if not i.is_flake)

    @property
    def flake_count(self) -> int:
        return sum(1 for i in self.incidents if i.is_flake)

    def by_kind(self) -> Dict[IncidentKind, int]:
        out: Dict[IncidentKind, int] = {}
        for incident in self.incidents:
            out[incident.kind] = out.get(incident.kind, 0) + 1
        return out

    def by_source(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for incident in self.incidents:
            out[incident.source] = out.get(incident.source, 0) + 1
        return out

    def summary_lines(self) -> List[str]:
        return [repr(incident) for incident in self.incidents]

    def __bool__(self) -> bool:
        return bool(self.incidents)

    def __iter__(self):
        return iter(self.incidents)

    def merged(self, others: Iterable["IncidentLog"]) -> "IncidentLog":
        """A new log holding this log's incidents plus the others', in
        order, deduplicated by the usual (kind, summary) key."""
        out = IncidentLog()
        out.extend(self)
        for other in others:
            out.extend(other)
        return out

    def render(self) -> str:
        """The human-facing incident log (§2: testers inspect this to
        identify the root cause).  Transport/availability incidents are
        listed in their own section: they route to the infra on-call, not
        to the switch-vs-model triage queue."""
        if not self.incidents:
            return "no incidents: switch behaviour matched the model.\n"

        def blocks(incidents, start):
            out = []
            for index, incident in enumerate(incidents, start=start):
                out.append(f"[{index}] {incident.kind.value}  (found by {incident.source})")
                out.append(f"    summary:  {incident.summary}")
                if incident.expected:
                    out.append(f"    expected: {incident.expected}")
                if incident.observed:
                    out.append(f"    observed: {incident.observed}")
                if incident.test_input:
                    out.append(f"    input:    {incident.test_input}")
                out.append("")
            return out

        model = [i for i in self.incidents if not i.is_flake]
        flakes = [i for i in self.incidents if i.is_flake]
        lines = [f"{self.count} incident(s):", ""]
        lines.extend(blocks(model, start=1))
        if flakes:
            lines.append(
                f"{len(flakes)} transport/availability incident(s) "
                "(not model divergences):"
            )
            lines.append("")
            lines.extend(blocks(flakes, start=len(model) + 1))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Fleet ledger merging + rendering
# ----------------------------------------------------------------------
def merge_incident_logs(logs: Iterable[IncidentLog]) -> IncidentLog:
    """Fold per-worker incident logs into one, preserving the given order
    (callers pass logs in deterministic task order) and deduplicating by
    the usual (kind, summary) key."""
    out = IncidentLog()
    for log in logs:
        if log is not None:
            out.extend(log)
    return out


def merge_transport_summaries(summaries):
    """Sum per-worker transport ledgers into one summary of the same type.

    Duck-typed over :class:`repro.fuzzer.fuzzer.TransportSummary` (any
    dataclass of numeric counters works) to keep this module free of a
    fuzzer import.  Returns ``None`` when no ledger was recorded at all."""
    merged = None
    for summary in summaries:
        if summary is None:
            continue
        if merged is None:
            merged = type(summary)()
        for f in fields(summary):
            setattr(merged, f.name, getattr(merged, f.name) + getattr(summary, f.name))
    return merged


def render_fleet_report(report) -> str:
    """Human-facing summary of one fleet campaign.

    Takes a :class:`repro.switchv.fleet.FleetReport` (duck-typed to avoid
    a circular import): the sharding headline, the per-stack detection
    table, the soak ledger when soak tasks ran, and the merged transport
    ledger."""
    degraded = (
        f", {report.degraded_tasks} task(s) re-run in-process after worker loss"
        if report.degraded_tasks
        else ""
    )
    lines = [
        f"fleet campaign: {len(report.results)} task(s) across "
        f"{report.workers} worker process(es) in {report.elapsed_seconds:.1f}s"
        f"{degraded}",
    ]
    by_stack: Dict[str, List] = {}
    for result in report.fault_results():
        by_stack.setdefault(result.task.stack_kind, []).append(result)
    for stack_kind in sorted(by_stack):
        results = by_stack[stack_kind]
        detected = sum(1 for r in results if r.outcome.detected)
        lines.append(f"  {stack_kind}: detected {detected}/{len(results)}")
        for result in results:
            outcome = result.outcome
            tools = "+".join(outcome.detected_by) if outcome.detected else "NOT DETECTED"
            profile = f" [{result.task.profile}]" if result.task.profile else ""
            lines.append(f"    {outcome.fault.name:38s}{profile} {tools}")
    soaks = report.soak_results()
    if soaks:
        merged = None
        for result in soaks:
            if merged is None:
                merged = type(result.soak)()
            merged.absorb(result.soak)
        verdict = "ok" if merged.ok else (
            f"{merged.phantom_cycles} phantom cycle(s), "
            f"{merged.state_divergences} state divergence(s)"
        )
        lines.append(
            f"  soak: {merged.cycles} cycle(s), {merged.faults_injected} fault(s) "
            f"injected, {verdict}"
        )
    if report.transport is not None and report.transport.any_activity:
        lines.append(render_transport_stats(report.transport))
    return "\n".join(lines)
