"""Benchmark-side tracing: spans recorded around calls *into* ``src/repro``.

Nothing here touches the program under measurement: a :class:`Tracer` is a
list of ``[name, start, end, parent]`` records kept in memory and written
out when the child exits, and :class:`TimingProxy` is a pass-through
``P4RuntimeService`` placed around the switch handle the benchmark itself
constructs.  The proxy is present in untraced runs too (it is how the
phase boundaries generation/testing are seen from outside); only the span
records are switched off.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.p4rt.service import P4RuntimeService


class Tracer:
    """In-memory span recorder (single-threaded, strictly nested)."""

    enabled = True

    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished leaf span under the currently open one."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1])

    # ------------------------------------------------------------------
    def _covered(self) -> List[float]:
        """Per span, the time its direct children cover (children of one
        parent never overlap: one thread, strict nesting)."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds, where
        self time = duration minus the time direct children cover."""
        covered = self._covered()
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered[index]
        return out

    def self_times_fit(self) -> bool:
        """Every span's children fit inside it (no negative self time)."""
        return all(
            cover <= (end - start) + 1e-9
            for cover, (_name, start, end, _parent) in zip(self._covered(), self.spans)
        )

    def dump(self, path, workload: str, repetition: int) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": workload,
                    "repetition": repetition,
                    "columns": ["name", "start", "end", "parent"],
                    "spans": [
                        [name, start - origin, end - origin, parent]
                        for name, start, end, parent in self.spans
                    ],
                },
                fh,
            )


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._tracer
        self._index = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer._stack.append(self._index)
        tracer.spans.append([self._name, perf_counter(), 0.0, parent])

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        tracer.spans[self._index][2] = perf_counter()
        tracer._stack.pop()


class NullTracer:
    """Tracing off: ``span`` costs one attribute lookup and a shared no-op."""

    enabled = False
    _NOOP = contextlib.nullcontext()

    def span(self, name: str):
        return self._NOOP

    def record(self, name: str, start: float, end: float) -> None:
        pass


class TimingProxy(P4RuntimeService):
    """Pass-through switch handle that clocks every RPC from outside.

    Keeps per-call write latencies, read/send totals, the RPC log (request
    and response objects, by reference) and the two timestamps that split a
    data-plane validation into generation and testing as a real tester
    would see them: the last install ``write`` returning, and the first
    ``send_packet``.
    """

    def __init__(self, switch, tracer=None) -> None:
        self.switch = switch
        self.tracer = tracer if tracer is not None else NullTracer()
        self.write_durations: List[float] = []
        self.read_s = 0.0
        self.read_calls = 0
        self.read_entries = 0
        self.send_packet_s = 0.0
        self.send_packet_calls = 0
        # ("write", request, response) / ("read", request, response)
        self.rpc_log: List[Tuple[str, object, object]] = []
        self._last_write_end: Optional[float] = None
        self._first_send_start: Optional[float] = None

    # -- phase boundaries ------------------------------------------------
    def begin_cycle(self) -> None:
        self._first_send_start = None

    def end_cycle(self, returned_at: float) -> Tuple[float, float]:
        """(generation_s, testing_s) of the validation that just returned."""
        installed = self._last_write_end
        first_send = self._first_send_start
        if first_send is None:
            first_send = returned_at
        generation = first_send - installed if installed is not None else 0.0
        return max(generation, 0.0), returned_at - first_send

    # -- P4RuntimeService --------------------------------------------------
    def set_forwarding_pipeline_config(self, p4info):
        with self.tracer.span("switch.set_pipeline_config"):
            return self.switch.set_forwarding_pipeline_config(p4info)

    def write(self, request):
        start = perf_counter()
        response = self.switch.write(request)
        end = perf_counter()
        self.write_durations.append(end - start)
        # Only writes before the first test packet are installs; the
        # harness's post-test MODIFY sweep must not move the boundary.
        if self._first_send_start is None:
            self._last_write_end = end
        self.rpc_log.append(("write", request, response))
        self.tracer.record("switch.write", start, end)
        return response

    def read(self, request):
        start = perf_counter()
        response = self.switch.read(request)
        end = perf_counter()
        self.read_s += end - start
        self.read_calls += 1
        self.read_entries += len(response.entries)
        self.rpc_log.append(("read", request, response))
        self.tracer.record("switch.read", start, end)
        return response

    def packet_out(self, packet):
        with self.tracer.span("switch.packet_out"):
            return self.switch.packet_out(packet)

    def drain_packet_ins(self):
        with self.tracer.span("switch.drain"):
            return self.switch.drain_packet_ins()

    # -- tester-port view ------------------------------------------------
    def send_packet(self, payload: bytes, ingress_port: int):
        start = perf_counter()
        if self._first_send_start is None:
            self._first_send_start = start
        observed = self.switch.send_packet(payload, ingress_port)
        end = perf_counter()
        self.send_packet_s += end - start
        self.send_packet_calls += 1
        self.tracer.record("switch.send_packet", start, end)
        return observed

    def drain_egress(self):
        with self.tracer.span("switch.drain"):
            return self.switch.drain_egress()

    def __getattr__(self, name):
        # Anything else a caller probes for (retry ledgers, transport-wait
        # attributes) is answered by the wrapped stack, or not at all.
        return getattr(self.switch, name)

    # -- derived -----------------------------------------------------------
    @property
    def write_s(self) -> float:
        return sum(self.write_durations)

    @property
    def write_calls(self) -> int:
        return len(self.write_durations)

    def write_requests(self) -> List[object]:
        return [request for kind, request, _resp in self.rpc_log if kind == "write"]

    def rejected_updates(self) -> int:
        """Updates answered non-OK, over all writes."""
        return sum(
            1
            for kind, _request, response in self.rpc_log
            if kind == "write"
            for status in response.statuses
            if not status.ok
        )
