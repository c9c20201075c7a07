"""Windowed write pipelining for the fuzzing loop (§4.2-sound).

Sending one batch, reading the state back, judging, and only then sending
the next batch pays the transport's full round-trip latency (injected
delays, retries, backoff) once per batch.  The batching discipline
already guarantees more than that exploits:
batches built by :func:`repro.fuzzer.batching.make_batches` are
order-independent *internally*, and any two batches with no ``@refers_to``
dependency edges (and no shared entry identity) between them commute, so
they may be in flight concurrently without changing what any response or
read-back can say.

:class:`WriteScheduler` turns that guarantee into throughput:

* **Windows.**  Consecutive batches are grouped into windows of up to
  ``depth`` batches.  A batch whose footprint conflicts with the window's
  (the same :class:`~repro.fuzzer.batching.Footprint` rule the batcher
  packs by) closes it early — dependent writes are never both in flight.
* **In-flight writes.**  Every batch of a window of two or more is
  submitted to a small thread pool; the caller can overlap next-wave
  generation with the drain.  A one-batch window (every window at depth
  1) is sent on the calling thread.  Under the default *strict order*
  mode a turnstile admits the writes into the transport one at a time in
  submission order, so the fault channel's seeded roll stream stays a
  pure function of the RPC order — deep campaigns are exactly as
  reproducible as depth-1 ones.  (Real overlap still happens in
  wall-clock mode: channels sleep their injected latency *outside* their
  roll lock.)
* **Coalesced read-backs.**  One state read serves the whole window where
  one-batch windows read after every batch; the saved reads are the
  dominant win on a slow transport *and* on CPU (read-back judging is
  O(state)).
* **Makespan accounting.**  Each batch reports its modeled transport wait
  (channel delays + retry backoff).  A window's pipelined cost is the
  *maximum* over its in-flight writes — what a truly concurrent transport
  would charge — while the serial cost is their sum; both are recorded in
  :class:`PipelineStats` so throughput tables can show the overlap win
  deterministically, without sleeping.

The judging-order invariant lives in the fuzzer's window-drain code
(:meth:`repro.fuzzer.fuzzer.P4Fuzzer._judge_window`): outcomes are judged
in submission order, read-backs are adopted exactly where one-batch
windows would adopt them, and at depth 1 the campaign is byte for byte
the write / read back / judge loop of ``tests/sequential_fuzz.py``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.fuzzer.batching import Footprint
from repro.p4.constraints.refs import ReferenceGraph
from repro.p4.p4info import P4Info
from repro.p4rt.messages import Update, WriteRequest, WriteResponse


@dataclass
class PipelineStats:
    """What the windowed scheduler did, and what the overlap was worth."""

    depth: int = 1
    windows: int = 0
    batches: int = 0
    # Largest number of batches concurrently in flight.
    max_in_flight: int = 0
    # Windows closed before reaching `depth` because the next batch
    # conflicted (shared entry identity or @refers_to edge) with one
    # already in flight.
    conflict_stalls: int = 0
    # State reads actually performed, and how many per-batch reads the
    # window coalescing saved relative to one read per batch.
    read_backs: int = 0
    read_backs_coalesced: int = 0
    # Transport waits: serial = sum of per-RPC waits (what one batch in
    # flight at a time would have paid), pipelined = per-window max over in-flight
    # writes plus the coalesced read (what the overlapped schedule pays).
    serial_wait_s: float = 0.0
    pipelined_wait_s: float = 0.0
    # Wall-clock generation time spent while a window was in flight.
    overlapped_generation_s: float = 0.0

    @property
    def overlap_saved_s(self) -> float:
        """Transport wait eliminated by keeping the window in flight."""
        return max(0.0, self.serial_wait_s - self.pipelined_wait_s)


@dataclass
class BatchOutcome:
    """One batch's transport outcome, captured on the sending thread."""

    batch: List[Update]
    response: Optional[WriteResponse] = None
    error: Optional[Exception] = None
    # The retry client's per-write transparency (None for bare services).
    info: Optional[object] = None
    # Modeled transport wait this write experienced (delays + backoff).
    wait_s: float = 0.0


class _Turnstile:
    """Admits ticketed callers strictly in ticket order."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._next = 0

    def wait_for(self, ticket: int) -> None:
        with self._cond:
            while self._next != ticket:
                self._cond.wait()

    def advance(self) -> None:
        with self._cond:
            self._next += 1
            self._cond.notify_all()


class WriteScheduler:
    """Keeps up to ``depth`` independent batches in flight over a switch.

    ``strict_order=True`` (the default for simulated transports) serializes
    the actual transport calls in submission order through a turnstile:
    the fault channel consumes its seeded rolls in exactly the order
    one-batch windows would, so verdicts are reproducible run to run and
    comparable across depths.  Pass ``strict_order=False`` only for
    real-time transports (injected sleepers), where wall-clock overlap
    matters more than roll-stream stability — wrap bare stacks in
    :class:`repro.p4rt.service.SerializedP4RuntimeService` first.
    """

    def __init__(
        self,
        switch,
        p4info: P4Info,
        depth: int = 1,
        strict_order: bool = True,
    ) -> None:
        self.switch = switch
        self.depth = max(1, depth)
        self.stats = PipelineStats(depth=self.depth)
        self._refs = ReferenceGraph(p4info)
        self._strict = strict_order
        self._turnstile = _Turnstile()
        self._next_ticket = 0
        self._pool = ThreadPoolExecutor(
            max_workers=self.depth, thread_name_prefix="p4rt-pipeline"
        )

    # ------------------------------------------------------------------
    # Window planning
    # ------------------------------------------------------------------
    def footprint(self, *batches: Sequence[Update]) -> Footprint:
        """The joint footprint of ``batches`` (each update decoded once)."""
        return Footprint(self._refs, (u for batch in batches for u in batch))

    def conflicts(self, window: Sequence[List[Update]], batch: List[Update]) -> bool:
        """May `batch` fly concurrently with the batches in `window`?

        True when any in-flight update shares entry identity or a
        ``@refers_to`` edge with any update of the candidate batch — the
        same rule make_batches applies within a batch.
        """
        return self.footprint(*window).conflicts(self.footprint(batch))

    def plan_windows(self, batches: Sequence[List[Update]]) -> List[List[List[Update]]]:
        """Split a wave's batches into in-flight windows.

        Batches keep their order; a window closes when it is full or when
        the next batch conflicts with one already in it (make_batches
        placed the dependent batch later precisely so it executes after —
        the window boundary preserves that ordering on the wire).
        """
        windows: List[List[List[Update]]] = []
        current: List[List[Update]] = []
        for batch in batches:
            if current:
                full = len(current) >= self.depth
                conflict = not full and self.conflicts(current, batch)
                if full or conflict:
                    if conflict:
                        self.stats.conflict_stalls += 1
                    windows.append(current)
                    current = []
            current.append(batch)
        if current:
            windows.append(current)
        return windows

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _send_one(self, batch: List[Update], ticket: int) -> BatchOutcome:
        if self._strict:
            self._turnstile.wait_for(ticket)
        try:
            outcome = BatchOutcome(batch=batch)
            try:
                outcome.response = self.switch.write(
                    WriteRequest(updates=tuple(batch))
                )
            except Exception as exc:  # judged by the fuzzer, never dropped
                outcome.error = exc
            # Capture this thread's per-write transparency immediately: the
            # retry client keeps it thread-local, so a sibling in-flight
            # write can never clobber it.
            info = getattr(self.switch, "last_write_info", None)
            outcome.info = info
            if info is not None and (
                outcome.error is None or _is_channel_error(outcome.error)
            ):
                outcome.wait_s = getattr(info, "wait_s", 0.0)
            elif outcome.error is None or _is_channel_error(outcome.error):
                outcome.wait_s = getattr(self.switch, "last_rpc_wait_s", 0.0)
            return outcome
        finally:
            if self._strict:
                self._turnstile.advance()

    def send_window(
        self,
        window: Sequence[List[Update]],
        while_in_flight: Optional[Callable[[], None]] = None,
    ) -> List[BatchOutcome]:
        """Dispatch a window and drain it in submission order.

        ``while_in_flight`` runs on the calling thread after dispatch and
        before the drain — the hook the fuzzer uses to overlap next-wave
        generation with the in-flight writes.  A one-batch window has
        nothing to overlap with: it is sent on the calling thread and the
        hook runs after it.
        """
        first = self._next_ticket
        self._next_ticket += len(window)
        if len(window) == 1:
            outcomes = [self._send_one(window[0], first)]
            if while_in_flight is not None:
                while_in_flight()
        else:
            futures = [
                self._pool.submit(self._send_one, batch, first + offset)
                for offset, batch in enumerate(window)
            ]
            if while_in_flight is not None:
                overlap_start = time.perf_counter()
                while_in_flight()
                self.stats.overlapped_generation_s += (
                    time.perf_counter() - overlap_start
                )
            outcomes = [future.result() for future in futures]
        self.stats.windows += 1
        self.stats.batches += len(outcomes)
        self.stats.max_in_flight = max(self.stats.max_in_flight, len(outcomes))
        waits = [outcome.wait_s for outcome in outcomes]
        self.stats.serial_wait_s += sum(waits)
        self.stats.pipelined_wait_s += max(waits, default=0.0)
        return outcomes

    def note_read(self, wait_s: float, coalesced_over: int) -> None:
        """Account one window read-back (reads are not overlapped)."""
        self.stats.read_backs += 1
        self.stats.read_backs_coalesced += max(0, coalesced_over - 1)
        self.stats.serial_wait_s += wait_s
        self.stats.pipelined_wait_s += wait_s

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "WriteScheduler":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _is_channel_error(exc: Exception) -> bool:
    from repro.p4rt.channel import ChannelError

    return isinstance(exc, ChannelError)
