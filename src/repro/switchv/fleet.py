"""Fleet campaigns: the fault catalogue sharded across worker processes.

SwitchV's nightly value comes from running the *whole* catalogue —
behavioural faults × transport profiles × stack kinds — every night (§6,
Tables 1–2), but :func:`repro.switchv.campaign.run_full_campaign` executes
it strictly sequentially.  Each catalogue entry is an independent,
fully-seeded campaign against its own freshly-built stack, which makes the
catalogue embarrassingly parallel.  This module shards the task list
round-robin across ``workers`` forked processes and merges the per-worker
ledgers deterministically.

Robustness contract:

* ``workers=1`` (or a single task, or a platform without the ``fork``
  start method) never builds a pool — the tasks run in-process on the
  exact sequential path.
* A crashed worker (OOM-killed, segfaulted, fault-injected) loses only
  its shard's progress: the parent detects the broken future and re-runs
  every unfinished task in-process, so a nightly run is never lost to a
  worker death.
* **Determinism.**  Every task is a pure function of its picklable
  description (fault name, stack kind, transport profile, seed), and the
  merge folds results in task order — never completion order — so a
  fleet run produces the identical :class:`FaultOutcome` verdicts and
  incident dedup keys as the sequential run of the same seeds.

Worker entry points must be picklable, which is why campaign
*construction* lives in module-level functions
(:func:`repro.switchv.campaign.build_campaign`) rather than closures:
workers receive only ``(FleetTask, CampaignConfig)`` across the process
boundary and build stacks/harnesses on their own side of the fork.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.switch.faults import faults_for_stack
from repro.switchv.campaign import (
    STACK_PROGRAMS,
    CampaignConfig,
    FaultOutcome,
    SoakOutcome,
    run_fault_campaign,
    run_soak_cycle,
)
from repro.switchv.report import (
    Incident,
    IncidentKind,
    IncidentLog,
    merge_incident_logs,
    merge_transport_summaries,
)

# Test hook: when True, forked workers die immediately (inherited at fork
# time), exercising the broken-pool -> in-process degradation path.
_FAULT_INJECT = False


@dataclass(frozen=True)
class FleetTask:
    """One unit of fleet work.  Frozen and picklable by construction."""

    kind: str  # "fault" (one catalogue campaign) | "soak" (one soak cycle)
    stack_kind: str  # "pins" | "cerberus"
    fault_name: Optional[str] = None  # fault tasks only
    # Transport profile name from repro.p4rt.channel.PROFILES injected for
    # this task; None = whatever the CampaignConfig already says.
    profile: Optional[str] = None
    cycle: int = 0  # soak tasks: cycle index (seed = config.seed + cycle)

    def describe(self) -> str:
        if self.kind == "soak":
            return f"soak[{self.stack_kind}/{self.profile}] cycle {self.cycle}"
        suffix = f" @{self.profile}" if self.profile else ""
        return f"{self.stack_kind}/{self.fault_name}{suffix}"


@dataclass
class FleetResult:
    """One task's outcome (exactly one of the two fields is set)."""

    task: FleetTask
    outcome: Optional[FaultOutcome] = None  # fault tasks
    soak: Optional[SoakOutcome] = None  # soak tasks


@dataclass
class FleetReport:
    """The merged campaign report: per-task results in deterministic task
    order plus the folded incident and transport ledgers."""

    results: List[FleetResult]
    incidents: IncidentLog
    transport: Optional[object]  # merged TransportSummary, or None
    workers: int
    # Tasks re-run in-process after a worker death / broken pool.
    degraded_tasks: int = 0
    elapsed_seconds: float = 0.0
    # Cross-stack role-contract report (repro.analysis.AnalysisReport),
    # produced when lint_model is on and the tasks mixed stack kinds.
    contract: Optional[object] = None

    def fault_results(self) -> List[FleetResult]:
        return [r for r in self.results if r.task.kind == "fault"]

    def soak_results(self) -> List[FleetResult]:
        return [r for r in self.results if r.task.kind == "soak"]

    def fault_outcomes(
        self, stack_kind: Optional[str] = None, profile: object = "*"
    ) -> List[FaultOutcome]:
        """Fault-task outcomes, optionally filtered by stack and by the
        task-level transport profile (pass ``None`` for clean-channel
        tasks; the default ``"*"`` means any)."""
        return [
            r.outcome
            for r in self.fault_results()
            if (stack_kind is None or r.task.stack_kind == stack_kind)
            and (profile == "*" or r.task.profile == profile)
        ]

    def merged_soak(self) -> Optional[SoakOutcome]:
        merged = None
        for result in self.soak_results():
            if merged is None:
                merged = SoakOutcome()
            merged.absorb(result.soak)
        return merged

    @property
    def detected(self) -> int:
        return sum(1 for r in self.fault_results() if r.outcome.detected)


def build_fleet_tasks(
    stacks: Sequence[str] = ("pins", "cerberus"),
    profiles: Sequence[Optional[str]] = (None,),
    soak_profiles: Sequence[str] = (),
    config: Optional[CampaignConfig] = None,
) -> List[FleetTask]:
    """Expand behavioural faults × transport profiles × stack kinds (plus
    optional soak cycles) into the deterministic fleet task list."""
    config = config or CampaignConfig()
    tasks: List[FleetTask] = []
    for stack_kind in stacks:
        for profile in profiles:
            tasks.extend(
                FleetTask("fault", stack_kind, fault.name, profile=profile)
                for fault in faults_for_stack(stack_kind)
            )
        for profile in soak_profiles:
            tasks.extend(
                FleetTask("soak", stack_kind, profile=profile, cycle=cycle)
                for cycle in range(config.soak_cycles)
            )
    return tasks


# ----------------------------------------------------------------------
# Worker entry points (module-level: must be picklable)
# ----------------------------------------------------------------------
def _run_task(task: FleetTask, config: CampaignConfig) -> FleetResult:
    """Run one fleet task in the current process."""
    if task.kind == "soak":
        soak = run_soak_cycle(
            task.stack_kind, config, task.cycle, task.profile or "chaos"
        )
        return FleetResult(task=task, soak=soak)
    task_config = config
    if task.profile is not None:
        task_config = replace(config, fault_profile=task.profile)
    outcome = run_fault_campaign(task.fault_name, task.stack_kind, task_config)
    return FleetResult(task=task, outcome=outcome)


def _run_shard(
    shard: List[Tuple[int, FleetTask]], config: CampaignConfig
) -> List[Tuple[int, FleetResult]]:
    """Worker entry point: run one shard of (index, task) pairs."""
    if _FAULT_INJECT:
        os._exit(3)
    return [(index, _run_task(task, config)) for index, task in shard]


# ----------------------------------------------------------------------
# The fleet driver
# ----------------------------------------------------------------------
def run_fleet_campaign(
    stacks: Sequence[str] = ("pins", "cerberus"),
    config: Optional[CampaignConfig] = None,
    workers: int = 4,
    profiles: Sequence[Optional[str]] = (None,),
    soak_profiles: Sequence[str] = (),
    tasks: Optional[List[FleetTask]] = None,
) -> FleetReport:
    """Shard the fault catalogue across ``workers`` processes and merge.

    With ``workers=1`` this is behaviourally identical to calling
    :func:`repro.switchv.campaign.run_full_campaign` per stack (plus any
    soak cycles) — and with ``workers>1`` it still is, by the determinism
    contract in the module docstring; only the wall clock changes.
    """
    config = config or CampaignConfig()
    if tasks is None:
        tasks = build_fleet_tasks(stacks, profiles, soak_profiles, config)
    start = time.perf_counter()

    outcomes: Dict[int, FleetResult] = {}
    parallel = (
        workers > 1 and len(tasks) > 1 and "fork" in mp.get_all_start_methods()
    )
    if parallel:
        indexed = list(enumerate(tasks))
        shards = [indexed[k::workers] for k in range(workers)]
        shards = [shard for shard in shards if shard]
        try:
            with ProcessPoolExecutor(
                max_workers=len(shards), mp_context=mp.get_context("fork")
            ) as pool:
                futures = [pool.submit(_run_shard, shard, config) for shard in shards]
                for future in futures:
                    try:
                        solved = future.result()
                    except Exception:
                        continue  # shard lost; re-run in-process below
                    for index, result in solved:
                        outcomes[index] = result
        except Exception:
            pass  # pool never came up; everything re-run below

    unfinished = [index for index in range(len(tasks)) if index not in outcomes]
    degraded = len(unfinished) if parallel else 0
    for index in unfinished:
        outcomes[index] = _run_task(tasks[index], config)

    # Deterministic merge: fold ledgers in task order, never completion order.
    results = [outcomes[index] for index in range(len(tasks))]
    incidents = merge_incident_logs(
        r.outcome.incidents for r in results if r.outcome is not None
    )
    transport = merge_transport_summaries(
        r.outcome.transport for r in results if r.outcome is not None
    )
    contract = None
    if config.lint_model:
        contract = _contract_gate(tasks, incidents)
    return FleetReport(
        results=results,
        incidents=incidents,
        transport=transport,
        workers=max(1, workers),
        degraded_tasks=degraded,
        elapsed_seconds=time.perf_counter() - start,
        contract=contract,
    )


def _contract_gate(tasks: Sequence[FleetTask], incidents: IncidentLog):
    """Cross-stack contract pass for mixed-role fleets.

    A fleet mixing stack kinds is exactly the shared-controller scenario
    of §3: the same campaign code drives every role's model.  When the
    per-program lint gate is on, role-to-role API drift is gated the same
    way — every contract error becomes a MODEL_ERROR incident in the
    merged ledger.  Returns the contract AnalysisReport (None when the
    fleet ran a single stack kind: nothing to cross-check)."""
    kinds = sorted({t.stack_kind for t in tasks if t.stack_kind in STACK_PROGRAMS})
    if len(kinds) < 2:
        return None
    from repro.analysis import analyze_contract

    report = analyze_contract([STACK_PROGRAMS[kind]() for kind in kinds])
    for diag in report.errors:
        incidents.report(
            Incident(
                kind=IncidentKind.MODEL_ERROR,
                summary=f"contract[{diag.code}] {diag.location}: {diag.message}",
                expected="role instantiations agree on the shared API",
                observed=diag.message,
                source="repro-analysis",
                table_name=diag.table_name,
            )
        )
    return report
