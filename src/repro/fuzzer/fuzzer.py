"""The p4-fuzzer campaign driver (Figure 5).

Generates a stream of valid updates, mutates a fraction into interestingly
invalid ones, packs everything into independent batches, sends the batches
to the switch, and feeds responses plus state read-backs to the oracle.
Statistics (update counts, throughput) back the Table 3 benchmark.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.fuzzer.batching import Footprint, make_batches
from repro.fuzzer.generator import RequestGenerator
from repro.fuzzer.mutations import MUST_REJECT, apply_random_mutation
from repro.fuzzer.oracle import Oracle
from repro.fuzzer.pipeline import BatchOutcome, PipelineStats, WriteScheduler
from repro.p4.p4info import P4Info
from repro.p4rt.channel import ChannelError
from repro.p4rt.messages import ReadRequest, Update
from repro.p4rt.service import P4RuntimeService
from repro.switchv.report import Incident, IncidentKind, IncidentLog


@dataclass
class FuzzerConfig:
    """Knobs for one campaign; defaults follow §6.3 (1000 writes × ~50)."""

    num_writes: int = 1000
    updates_per_write: int = 50
    mutation_probability: float = 0.3
    seed: int = 0xF0222
    valid_ports: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8)
    # None = full catalogue; [] = no mutations (pure valid fuzzing);
    # a list = restrict to those mutations (ablation experiments).
    mutations: Optional[List[str]] = None
    constraint_aware: bool = False
    # Read the switch state back after every batch (the oracle's design);
    # lowering frequency trades confidence for speed.
    read_back_every: int = 1
    # §4.2-sound pipelining (repro.fuzzer.pipeline): keep up to this many
    # mutually independent batches in flight per window.  1 = one batch
    # at a time (write, read back, judge); >1 overlaps transport waits,
    # coalesces read-backs to one per window, and generates the next waves
    # while a window is in flight.
    pipeline_depth: int = 1


@dataclass
class TransportSummary:
    """Transport health counters for one campaign, reported separately
    from model incidents (a flaky cable is not a switch bug)."""

    retries: int = 0
    ambiguous_batches: int = 0
    resyncs: int = 0
    flakes: int = 0  # RPCs abandoned after exhausting retries
    reconnects: int = 0
    deadline_exceeded: int = 0
    idempotent_rescues: int = 0

    @property
    def any_activity(self) -> bool:
        return any(
            (
                self.retries,
                self.ambiguous_batches,
                self.resyncs,
                self.flakes,
                self.reconnects,
                self.deadline_exceeded,
                self.idempotent_rescues,
            )
        )


@dataclass
class FuzzResult:
    """Campaign outcome and statistics."""

    incidents: IncidentLog = field(default_factory=IncidentLog)
    updates_sent: int = 0
    valid_updates: int = 0
    invalid_updates: int = 0
    writes_sent: int = 0
    elapsed_seconds: float = 0.0
    mutation_counts: Dict[str, int] = field(default_factory=dict)
    # Transport-layer health (retries, resyncs, flakes) — kept apart from
    # the oracle's model incidents.
    transport: TransportSummary = field(default_factory=TransportSummary)
    # The entries the oracle believes installed when the campaign ended,
    # and the subset that was MODIFY-ed at least once.  Feeding these to
    # p4-symbolic (the §7 extension) exercises control paths only reachable
    # through update churn.
    final_entries: List = field(default_factory=list)
    modified_entries: List = field(default_factory=list)
    # Modeled transport wait the campaign experienced (injected delays,
    # retry backoff) under its actual schedule: per-window makespans, which
    # equal per-RPC sums at depth 1.
    transport_wait_seconds: float = 0.0
    # The windowed scheduler's counters.
    pipeline: PipelineStats = field(default_factory=PipelineStats)

    @property
    def updates_per_second(self) -> float:
        if self.elapsed_seconds == 0:
            return 0.0
        return self.updates_sent / self.elapsed_seconds

    @property
    def modeled_seconds(self) -> float:
        """Wall-clock CPU time plus the modeled transport wait — what the
        campaign would have taken against a real switch at these
        latencies."""
        return self.elapsed_seconds + self.transport_wait_seconds

    @property
    def modeled_updates_per_second(self) -> float:
        if self.modeled_seconds == 0:
            return 0.0
        return self.updates_sent / self.modeled_seconds


class P4Fuzzer:
    """Drives one control-plane validation campaign against a switch."""

    def __init__(
        self,
        p4info: P4Info,
        switch: P4RuntimeService,
        config: Optional[FuzzerConfig] = None,
        solver_pool=None,
    ) -> None:
        self.p4info = p4info
        self.switch = switch
        self.config = config or FuzzerConfig()
        self.rng = random.Random(self.config.seed)
        # The harness hands its SolverPool down so the generator's sampled
        # per-table constraint models carry over between campaigns; None
        # means every campaign solves its own.  Generated request streams
        # are identical either way (cached constraint models are canonical).
        self.solver_pool = solver_pool
        self.generator = RequestGenerator(
            p4info,
            self.rng,
            valid_ports=self.config.valid_ports,
            constraint_aware=self.config.constraint_aware,
            solver_pool=self.solver_pool,
        )
        self.oracle = Oracle(p4info)
        # The generator reads the oracle's projection in place.
        self.generator.state = self.oracle
        self._modified_keys = set()
        # True when the oracle's expected state is stale: an ambiguous
        # write was abandoned and the recovery read-back also failed, so
        # the projection may or may not include the abandoned batch.
        # Judging anything against a stale projection is unsound; the
        # next batch adopts a fresh read-back before judging resumes.
        self._needs_resync = False

    # ------------------------------------------------------------------
    # Campaign
    # ------------------------------------------------------------------
    def run(self) -> FuzzResult:
        result = FuzzResult()
        start = time.perf_counter()

        # A malformed @entry_restriction means the oracle cannot check
        # constraints on that table; surface it rather than silently
        # weakening the campaign (it is a model bug in its own right).
        result.incidents.extend(self.oracle.constraint_incidents())

        status = self.switch.set_forwarding_pipeline_config(self.p4info)
        if not status.ok:
            result.incidents.report(
                Incident(
                    kind=IncidentKind.PIPELINE_CONFIG,
                    summary=f"pipeline config push rejected: {status.code.name}",
                    expected="OK",
                    observed=status.message,
                    source="p4-fuzzer",
                )
            )
            result.elapsed_seconds = time.perf_counter() - start
            return result

        self._campaign(result)
        result.elapsed_seconds = time.perf_counter() - start
        result.final_entries = self.oracle.installed_entries()
        result.modified_entries = [
            entry
            for entry in result.final_entries
            if entry.match_key() in self._modified_keys
        ]
        self._harvest_transport_stats(result)
        return result

    def _harvest_transport_stats(self, result: FuzzResult) -> None:
        """Fold the retry client's counters (when the switch handle is a
        RetryingP4RuntimeClient) into the campaign's transport summary."""
        stats = getattr(self.switch, "retry_stats", None)
        if stats is None:
            return
        result.transport.retries = stats.retries
        result.transport.reconnects = stats.reconnects
        result.transport.deadline_exceeded = stats.deadline_exceeded
        result.transport.idempotent_rescues = stats.idempotent_rescues

    def _generate_wave(self, result: FuzzResult) -> List[Update]:
        updates: List[Update] = []
        for _ in range(self.config.updates_per_write):
            update = self.generator.generate_update()
            if update is None:
                continue
            mutate = (
                self.config.mutations != []
                and self.rng.random() < self.config.mutation_probability
            )
            if mutate:
                mutated = apply_random_mutation(
                    self.rng,
                    self.p4info,
                    update,
                    allowed=self.config.mutations,
                    state=self.generator.state,
                )
                if mutated is not None:
                    result.mutation_counts[mutated.mutation] = (
                        result.mutation_counts.get(mutated.mutation, 0) + 1
                    )
                    if mutated.expectation == MUST_REJECT:
                        result.invalid_updates += 1
                    else:
                        result.valid_updates += 1
                    updates.append(mutated.update)
                    continue
            result.valid_updates += 1
            updates.append(update)
        return updates

    # ------------------------------------------------------------------
    # Transport-wait transparency
    # ------------------------------------------------------------------
    def _last_read_wait(self) -> float:
        """Modeled wait of the calling thread's last read RPC."""
        wait = getattr(self.switch, "last_read_wait_s", None)
        if wait is not None:
            return wait
        return getattr(self.switch, "last_rpc_wait_s", 0.0)

    # ------------------------------------------------------------------
    # The campaign loop (§4.2-sound windowed scheduling)
    # ------------------------------------------------------------------
    def _campaign(self, result: FuzzResult) -> None:
        """The campaign loop: fill a window, send it, judge it, repeat.

        Judging-order invariant: outcomes are judged strictly in
        submission order, and a window of size one performs exactly the
        one-batch-at-a-time operations in exactly their order — write,
        conditional read, judge, adopt (``tests/sequential_fuzz.py`` is
        that loop, kept as the executable specification of depth 1).
        Conflicting batches are never in the same window, so at any window
        size the responses and read-backs a window can observe are
        independent of in-flight interleaving; pipelining changes *when*
        the oracle judges, never *what* it concludes.
        """
        depth = max(1, self.config.pipeline_depth)
        # Deterministic roll streams matter on simulated transports; only
        # a real-time stack (injected sleeper) trades them for wall-clock
        # overlap.
        strict = not getattr(self.switch, "real_time", False)
        scheduler = WriteScheduler(
            self.switch, self.p4info, depth, strict_order=strict
        )
        result.pipeline = scheduler.stats
        # The batch stream as [wave index (the read gate's clock), batch,
        # footprint or None until first needed].  Windows draw from the
        # front across wave boundaries — a wave is typically a single
        # batch (wave size == max batch size), so cross-wave windows are
        # where the depth comes from.
        queue: List[list] = []
        next_wave = 0

        def refill() -> None:
            # Generate waves until `depth` batches are queued.  Waves
            # generated in one burst all see the state as of the last
            # judged window — up to `depth` batches stale.  That changes
            # which updates get generated (e.g. a delete raced by a
            # queued delete), never how they are judged: the oracle
            # judges against its true expected state at application time,
            # so staleness cannot manufacture incidents.
            nonlocal next_wave
            while next_wave < self.config.num_writes and len(queue) < depth:
                next_wave += 1
                updates = self._generate_wave(result)
                if not updates:
                    continue
                batches = make_batches(
                    self.p4info, updates, self.config.updates_per_write
                )
                result.writes_sent += len(batches)
                queue.extend([next_wave - 1, batch, None] for batch in batches)

        def footprint(item: list) -> Footprint:
            if item[2] is None:
                item[2] = scheduler.footprint(item[1])
            return item[2]

        try:
            while True:
                refill()
                if not queue:
                    break
                # Fill the window from the queue with out-of-order pickup:
                # a batch joins the window when it is independent of
                # everything already in flight AND of every earlier queued
                # batch it would overtake (conflicting batches are never
                # reordered relative to each other, so dependent writes
                # still observe their predecessors' effects).  Skipped
                # batches keep their queue position for a later window;
                # `ahead` is the joint footprint of both groups.  A batch is
                # decoded into its footprint only when it is compared or
                # another candidate follows it — never at depth 1.
                window, ahead, index = [], None, 0
                while len(window) < depth and index < len(queue):
                    item = queue[index]
                    if ahead is not None and ahead.conflicts(footprint(item)):
                        scheduler.stats.conflict_stalls += 1
                        index += 1
                    else:
                        window.append(queue.pop(index))
                    if len(window) < depth and index < len(queue):
                        if ahead is None:
                            ahead = Footprint()
                        ahead.absorb(footprint(item))
                outcomes = scheduler.send_window(
                    [batch for _, batch, _ in window],
                    while_in_flight=refill if depth > 1 else None,
                )
                self._judge_window(
                    outcomes, max(wave for wave, _, _ in window), result, scheduler
                )
        finally:
            scheduler.close()
        result.transport_wait_seconds = scheduler.stats.pipelined_wait_s

    def _judge_window(
        self,
        outcomes: List[BatchOutcome],
        write_index: int,
        result: FuzzResult,
        scheduler: WriteScheduler,
    ) -> None:
        """Drain one window's outcomes in submission order.

        At window size one the incident stream, counters, and oracle
        operations are those of writing, reading back and judging one
        batch at a time (``tests/sequential_fuzz.py``).
        """
        pending: List[BatchOutcome] = []
        reached = 0  # batches whose write answered (each would get its own read)
        resync_flake = False  # a write flaked: adopt a read-back, uncounted
        resync_counted = False  # ambiguous/stale: adopt and count a resync
        mismatch = False  # response cardinality mismatch in the window
        for outcome in outcomes:
            error = outcome.error
            if error is not None:
                if isinstance(error, ChannelError):
                    result.transport.flakes += 1
                    result.incidents.report(
                        Incident(
                            kind=IncidentKind.TRANSPORT_FLAKE,
                            summary=f"write abandoned by the transport: {type(error).__name__}",
                            observed=str(error),
                            source="p4-fuzzer",
                        )
                    )
                    resync_flake = True
                else:
                    result.incidents.report(
                        Incident(
                            kind=IncidentKind.SWITCH_UNRESPONSIVE,
                            summary=f"switch raised {type(error).__name__} during write",
                            observed=str(error),
                            source="p4-fuzzer",
                        )
                    )
                continue
            batch, response = outcome.batch, outcome.response
            result.updates_sent += len(batch)
            reached += 1
            for update, status in zip(batch, response.statuses, strict=False):
                if status.ok and update.type.value == "MODIFY":
                    self._modified_keys.add(update.entry.match_key())
            info = outcome.info
            if self._needs_resync or (info is not None and info.ambiguous):
                result.transport.ambiguous_batches += 1
                resync_counted = True
                continue
            if len(response.statuses) != len(batch):
                mismatch = True
            pending.append(outcome)

        need_resync = resync_flake or resync_counted
        gate = (
            bool(self.config.read_back_every)
            and write_index % self.config.read_back_every == 0
        )
        read_back = None
        if need_resync or (gate and reached):
            read_back = self._window_read(
                result, scheduler, reached, resync=need_resync
            )

        # Judge in submission order.  The coalesced read-back stands in
        # for the per-batch read a one-batch window would have taken
        # after the *last* batch; earlier batches are judged status-only
        # (their entries are untouched by their independent siblings, so
        # the final read still checks them).  When the window needs an
        # adoption instead — a flaked or ambiguous sibling, or a
        # cardinality mismatch — every batch is judged status-only and
        # the read-back is adopted afterwards, exactly the one-batch
        # recovery.
        attach_rb = read_back is not None and not need_resync and not mismatch
        for position, outcome in enumerate(pending):
            rb = read_back if attach_rb and position == len(pending) - 1 else None
            log = self.oracle.judge_batch(outcome.batch, outcome.response, rb)
            result.incidents.extend(log)
        if read_back is not None and (need_resync or mismatch):
            self.oracle.resync(read_back)
            if resync_counted:
                result.transport.resyncs += 1
                self._needs_resync = False
        elif need_resync and read_back is None:
            self._needs_resync = True

    def _window_read(
        self,
        result: FuzzResult,
        scheduler: WriteScheduler,
        reached: int,
        resync: bool,
    ) -> Optional[List]:
        """One coalesced state read for the window; None when it failed."""
        try:
            entries = list(self.switch.read(ReadRequest(table_id=0)).entries)
        except ChannelError as exc:
            scheduler.note_read(self._last_read_wait(), reached)
            result.transport.flakes += 1
            context = "resync read" if resync else "read"
            result.incidents.report(
                Incident(
                    kind=IncidentKind.TRANSPORT_FLAKE,
                    summary=f"{context} abandoned by the transport: {type(exc).__name__}",
                    observed=str(exc),
                    source="p4-fuzzer",
                )
            )
            return None
        except Exception as exc:
            context = "resync read" if resync else "read"
            result.incidents.report(
                Incident(
                    kind=IncidentKind.SWITCH_UNRESPONSIVE,
                    summary=f"switch raised {type(exc).__name__} during {context}",
                    observed=str(exc),
                    source="p4-fuzzer",
                )
            )
            return None
        scheduler.note_read(self._last_read_wait(), reached)
        return entries
