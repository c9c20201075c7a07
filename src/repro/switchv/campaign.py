"""Fault-injection campaigns: the machinery behind Tables 1–2 and Figure 7.

A campaign takes one fault from the catalogue, builds the appropriate
switch stack with that fault enabled (including model transforms for
input-P4-program bugs and simulator flags for BMv2 bugs), runs SwitchV
(p4-fuzzer + p4-symbolic, §6's nightly configuration scaled down), and the
trivial test suite (§6.2), and records what detected it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional

from repro.fuzzer import FuzzerConfig, P4Fuzzer, TransportSummary
from repro.p4.ast import P4Program
from repro.p4.p4info import build_p4info
from repro.p4.programs import build_cerberus_program, build_tor_program
from repro.p4rt.retry import RetryPolicy, build_resilient_client
from repro.switch import FaultRegistry, PinsSwitchStack
from repro.switch.faults import FAULTS_BY_NAME, Fault, faults_for_stack
from repro.switch.model_faults import apply_model_faults
from repro.switchv.harness import SwitchVHarness
from repro.switchv.report import IncidentLog
from repro.switchv.trivial import run_trivial_suite
from repro.workloads import production_like_entries

# Which builder models which stack.
STACK_PROGRAMS: Dict[str, Callable[[], P4Program]] = {
    "pins": build_tor_program,
    "cerberus": build_cerberus_program,
}


@dataclass
class FaultOutcome:
    """What one fault's campaign produced."""

    fault: Fault
    detected: bool
    detected_by: List[str] = field(default_factory=list)  # tools that flagged it
    incident_count: int = 0
    trivial_first_failure: Optional[str] = None  # §6.2 attribution
    incidents: Optional[IncidentLog] = None
    # Retry/timeout/reconnect ledger when a transport fault profile was on.
    transport: Optional[TransportSummary] = None


@dataclass
class CampaignConfig:
    """Scaled-down nightly run parameters (fast enough for CI)."""

    fuzz_writes: int = 25
    fuzz_updates_per_write: int = 25
    workload_entries: int = 90
    seed: int = 11
    run_trivial: bool = True
    # Transport-availability testing: a FaultProfile (or catalogue name
    # from repro.p4rt.channel.PROFILES) injected between SwitchV and the
    # stack, plus the retry policy that absorbs it.  None = clean channel.
    fault_profile: Optional[object] = None
    retry_policy: Optional[RetryPolicy] = None
    # Soak mode: how many fuzz cycles run_soak_campaign executes.
    soak_cycles: int = 3
    # Fuzzing-loop pipelining: keep up to this many independent batches in
    # flight per window (repro.fuzzer.pipeline).  1 = sequential loop.
    pipeline_depth: int = 1
    # Fail-fast gate: lint the model before the campaign starts; a model
    # with error-severity diagnostics yields MODEL_ERROR incidents and no
    # fuzzing/replay happens (repro.analysis).
    lint_model: bool = False


@dataclass
class CampaignSetup:
    """One fault campaign's constructed components.

    Construction is factored out of :func:`run_fault_campaign` so fleet
    workers (:mod:`repro.switchv.fleet`) can ship only picklable inputs —
    ``(fault_name, stack_kind, config)`` — across the process boundary and
    build the stack/harness on their side of the fork."""

    fault: Fault
    stack_kind: str
    model: P4Program
    harness: SwitchVHarness
    config: CampaignConfig


def build_campaign(
    fault_name: str, stack_kind: str, config: Optional[CampaignConfig] = None
) -> CampaignSetup:
    """Build the faulted stack + harness for one catalogue fault."""
    config = config or CampaignConfig()
    fault = FAULTS_BY_NAME[fault_name]
    build = STACK_PROGRAMS[stack_kind]

    true_program = build()
    # Model-category faults hand SwitchV a wrong model of a correct switch;
    # everything else faults the switch itself.
    model = apply_model_faults(true_program, [fault_name])
    registry = FaultRegistry([fault_name])
    stack = PinsSwitchStack(true_program, faults=registry)
    harness = SwitchVHarness(
        model,
        stack,
        simulator_faults=registry,
        fault_profile=config.fault_profile,
        retry_policy=config.retry_policy,
        lint_model=config.lint_model,
        pipeline_depth=config.pipeline_depth,
    )
    return CampaignSetup(
        fault=fault, stack_kind=stack_kind, model=model, harness=harness, config=config
    )


def run_fault_campaign(
    fault_name: str, stack_kind: str, config: Optional[CampaignConfig] = None
) -> FaultOutcome:
    """Run SwitchV (and the trivial suite) against one seeded fault."""
    setup = build_campaign(fault_name, stack_kind, config)
    fault, model, harness, config = setup.fault, setup.model, setup.harness, setup.config

    if harness.p4info is None:
        # The lint gate refused the model: the "campaign" is just the
        # findings, reported through the same incident pipeline.
        report = harness.validate_control_plane()
        return FaultOutcome(
            fault=fault,
            detected=bool(report.incidents),
            detected_by=sorted(report.incidents.by_source()),
            incident_count=report.incidents.count,
            incidents=report.incidents,
        )

    entries = production_like_entries(
        build_p4info(model), total=config.workload_entries, seed=config.seed
    )
    report = harness.validate(
        entries,
        FuzzerConfig(
            num_writes=config.fuzz_writes,
            updates_per_write=config.fuzz_updates_per_write,
            seed=config.seed,
            pipeline_depth=config.pipeline_depth,
        ),
    )

    outcome = FaultOutcome(
        fault=fault,
        detected=bool(report.incidents),
        incident_count=report.incidents.count,
        incidents=report.incidents,
        transport=report.fuzz.transport if report.fuzz is not None else None,
    )
    outcome.detected_by = sorted(report.incidents.by_source())

    if config.run_trivial:
        trivial_stack = PinsSwitchStack(
            STACK_PROGRAMS[setup.stack_kind](), faults=FaultRegistry([fault_name])
        )
        trivial = run_trivial_suite(model, trivial_stack)
        outcome.trivial_first_failure = trivial.first_failure
    return outcome


def run_full_campaign(
    stack_kind: str, config: Optional[CampaignConfig] = None
) -> List[FaultOutcome]:
    """Run the whole catalogue for one stack ('pins' or 'cerberus')."""
    # faults_for_stack already partitions the catalogue by stack
    # (tests/test_fault_mechanics.py::test_stack_partition).
    return [
        run_fault_campaign(fault.name, stack_kind, config)
        for fault in faults_for_stack(stack_kind)
    ]


# ----------------------------------------------------------------------
# Soak mode: repeated fuzz cycles under transport faults
# ----------------------------------------------------------------------
@dataclass
class SoakOutcome:
    """N fuzz cycles against a healthy switch behind a faulty transport.

    The pass criterion is *zero phantoms*: every cycle's model-incident
    set and final switch state must match a fault-free run of the same
    seed.  The transport counters prove the faults actually fired."""

    cycles: int = 0
    # Cycles whose model incidents differed from the fault-free baseline
    # (phantoms or misses caused by the transport layer — must be 0).
    phantom_cycles: int = 0
    # Cycles whose final switch state diverged from the baseline's.
    state_divergences: int = 0
    model_incidents: int = 0
    flakes: int = 0
    retries: int = 0
    ambiguous_batches: int = 0
    resyncs: int = 0
    reconnects: int = 0
    faults_injected: int = 0

    @property
    def ok(self) -> bool:
        return self.phantom_cycles == 0 and self.state_divergences == 0

    def absorb(self, other: "SoakOutcome") -> None:
        """Fold another outcome's counters in (fleet/per-cycle merge)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _fuzz_cycle(stack_kind: str, config: CampaignConfig, seed: int, fault_profile):
    """One fuzz-only cycle against a healthy stack; returns (result, channel)."""
    program = STACK_PROGRAMS[stack_kind]()
    p4info = build_p4info(program)
    stack = PinsSwitchStack(program)
    channel = None
    switch = stack
    if fault_profile is not None:
        from repro.p4rt.channel import FaultInjectingChannel, resolve_profile

        channel = FaultInjectingChannel(stack, resolve_profile(fault_profile, seed))
        switch = channel
    client = build_resilient_client(switch, retry_policy=config.retry_policy)
    fuzzer = P4Fuzzer(
        p4info,
        client,
        FuzzerConfig(
            num_writes=config.fuzz_writes,
            updates_per_write=config.fuzz_updates_per_write,
            seed=seed,
            pipeline_depth=config.pipeline_depth,
        ),
    )
    return fuzzer.run(), channel


def run_soak_cycle(
    stack_kind: str,
    config: Optional[CampaignConfig] = None,
    cycle: int = 0,
    fault_profile="chaos",
) -> SoakOutcome:
    """One soak cycle (seed = config.seed + cycle) as a one-cycle outcome.

    Each cycle is self-contained — its own baseline and faulty run — so
    cycles shard cleanly across fleet workers and merge with
    :meth:`SoakOutcome.absorb`."""
    config = config or CampaignConfig()
    seed = config.seed + cycle
    baseline, _ = _fuzz_cycle(stack_kind, config, seed, fault_profile=None)
    faulty, channel = _fuzz_cycle(stack_kind, config, seed, fault_profile)

    outcome = SoakOutcome(cycles=1)
    base_keys = {i.dedup_key() for i in baseline.incidents.model_only()}
    soak_keys = {i.dedup_key() for i in faulty.incidents.model_only()}
    if base_keys != soak_keys:
        outcome.phantom_cycles += 1
    base_state = {e.match_key() for e in baseline.final_entries}
    soak_state = {e.match_key() for e in faulty.final_entries}
    if base_state != soak_state:
        outcome.state_divergences += 1

    outcome.model_incidents += faulty.incidents.model_count
    outcome.flakes += faulty.transport.flakes
    outcome.retries += faulty.transport.retries
    outcome.ambiguous_batches += faulty.transport.ambiguous_batches
    outcome.resyncs += faulty.transport.resyncs
    outcome.reconnects += faulty.transport.reconnects
    if channel is not None:
        outcome.faults_injected += channel.stats.faults_injected
    return outcome


def run_soak_campaign(
    stack_kind: str,
    config: Optional[CampaignConfig] = None,
    fault_profile="chaos",
) -> SoakOutcome:
    """Soak the validation loop: N cycles under transport faults, each
    checked against a fault-free run of the same seed (no phantoms, same
    final state).  This is the acceptance gate for the transport layer."""
    config = config or CampaignConfig()
    outcome = SoakOutcome()
    for cycle in range(config.soak_cycles):
        outcome.absorb(run_soak_cycle(stack_kind, config, cycle, fault_profile))
    return outcome
