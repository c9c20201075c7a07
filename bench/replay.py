"""The data-plane validation cycle rebuilt from public calls, with spans.

``SwitchVHarness.validate_data_plane`` is one opaque call from outside, so
the traced pass cannot see where its time goes without instrumenting
``src/``.  This module replays the same cycle in harness order —
``order_inserts``/``make_batches``/``write`` → ``decode_table_entry`` →
``cache_key`` → ``PacketGenerator.executions()`` → ``goals_for_mode`` →
``PacketGenerator.generate()`` → ``deparse_packet``/``send_packet``/
``Bmv2Simulator.behaviors`` — with a span around each call.  It does the
same work on the same inputs (packet-io audit, packet-out probes and the
MODIFY sweep included), and the runner rejects a trace whose packet digest
or incident count differs from the untraced harness run of the same seed.

Only incident *counts* are kept: what went wrong is the harness's business,
whether the replay agrees with it is ours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.bmv2.entries import EntryDecodeError, decode_table_entry
from repro.bmv2.packet import deparse_packet
from repro.bmv2.simulator import Bmv2Simulator
from repro.fuzzer.batching import make_batches, order_inserts
from repro.p4rt.messages import PacketOut, ReadRequest, Update, UpdateType, WriteRequest
from repro.smt.pool import SolverPool
from repro.switchv.harness import DataPlaneStats, standard_special_goals
from repro.symbolic import CoverageMode, PacketGenerator
from repro.symbolic.cache import cache_key
from repro.symbolic.coverage import goals_for_mode

# GenerationStats fields the harness copies into DataPlaneStats by name.
_COPIED_STATS = (
    "goals_total", "goals_covered", "goals_from_cache", "goals_subsumed",
    "solver_queries", "sat_conflicts", "sat_decisions", "sat_propagations",
    "cnf_vars", "cnf_clauses", "gates_shared",
)
_PROBE = b"\x02\xbb\x00\x00\x00\x42\x02\xaa\x00\x00\x00\x17\x08\x00" + bytes(20)


@dataclass
class Totals:
    """Counts only the replay can see (GenerationStats fields the harness
    does not copy out, and the simulator's behaviour-set sizes)."""

    canonical_checks: int = 0
    pool_hits: int = 0
    behaviors: int = 0
    simulated: int = 0
    install_writes: int = 0


@dataclass
class _Incidents:
    count: int = 0


@dataclass
class ReplayReport:
    incidents: _Incidents
    data_plane: DataPlaneStats


class ReplayHarness:
    """Drop-in for the two harness calls the symbolic workloads make."""

    def __init__(self, tracer, model, p4info, switch, cache, valid_ports,
                 totals: Totals) -> None:
        self.tracer = tracer
        self.model = model
        self.p4info = p4info
        self.switch = switch
        self.cache = cache
        self.valid_ports = tuple(valid_ports)
        self.totals = totals
        # Like the harness: one pool of per-profile solvers kept warm across
        # every table state this validator sees.
        self.solver_pool = SolverPool()

    # ------------------------------------------------------------------
    def clear_switch(self) -> None:
        with self.tracer.span("switchv.clear_switch"):
            for _pass in range(16):
                entries = list(self.switch.read(ReadRequest(table_id=0)).entries)
                if not entries:
                    return
                progressed = False
                updates = [Update(UpdateType.DELETE, e) for e in entries]
                with self.tracer.span("fuzzer.batching"):
                    batches = make_batches(self.p4info, updates)
                for batch in batches:
                    response = self.switch.write(WriteRequest(updates=tuple(batch)))
                    progressed = progressed or any(s.ok for s in response.statuses)
                if not progressed:
                    return

    # ------------------------------------------------------------------
    def validate_data_plane(self, entries: Sequence) -> ReplayReport:
        tracer = self.tracer
        incidents = _Incidents()
        stats = DataPlaneStats()
        with tracer.span("switchv.validate_data_plane"):
            with tracer.span("switch.install"):
                self._install(entries, incidents)
            with tracer.span("bmv2.decode"):
                state = self._decode(entries, incidents)
            packets = self._generate(state, stats)
            simulator = Bmv2Simulator(self.model, state)
            punts = sum(self._test_packet(g, simulator, incidents) for g in packets)
            incidents.count += 1 if len(self.switch.drain_packet_ins()) != punts else 0
            self._packet_out_probes(packets, simulator, incidents)
            self._update_sweep(entries, packets, simulator, incidents)
        stats.packets_tested = len(packets)
        return ReplayReport(incidents=incidents, data_plane=stats)

    def _install(self, entries, incidents: _Incidents) -> None:
        if not self.switch.set_forwarding_pipeline_config(self.p4info).ok:
            incidents.count += 1
        with self.tracer.span("fuzzer.batching"):
            updates = order_inserts(
                self.p4info, [Update(UpdateType.INSERT, e) for e in entries]
            )
            batches = make_batches(self.p4info, updates)
        for batch in batches:
            response = self.switch.write(WriteRequest(updates=tuple(batch)))
            incidents.count += sum(1 for s in response.statuses if not s.ok)
        self.totals.install_writes += len(batches)

    def _decode(self, entries, incidents: _Incidents) -> Dict[str, list]:
        state: Dict[str, list] = {}
        for entry in entries:
            try:
                decoded = decode_table_entry(self.p4info, entry)
            except EntryDecodeError:
                incidents.count += 1
                continue
            state.setdefault(decoded.table_name, []).append(decoded)
        return state

    def _generate(self, state, stats: DataPlaneStats) -> List:
        tracer = self.tracer
        with tracer.span("symbolic.cache_key"):
            key = cache_key(self.model, state, CoverageMode.ENTRY, self.valid_ports)
            cached = self.cache.lookup(key)
        if cached is not None:
            stats.goals_total = cached.stats.goals_total
            stats.goals_covered = cached.stats.goals_covered
            stats.cache_hit = True
            return cached.packets
        generator = PacketGenerator(
            self.model, state, self.valid_ports, solver_pool=self.solver_pool
        )
        special = standard_special_goals()
        with tracer.span("symbolic.walk"):
            executions = generator.executions()
            goals_for_mode(executions, CoverageMode.ENTRY, special)
        with tracer.span("symbolic.solve"):
            result = generator.generate(CoverageMode.ENTRY, special, goal_cache=self.cache)
        self.cache.store(key, result)
        s = result.stats
        for name in _COPIED_STATS:
            setattr(stats, name, getattr(s, name))
        self.totals.canonical_checks += s.canonical_checks
        self.totals.pool_hits += s.pool_hits
        return result.packets

    def _admitted(self, generated, simulator, observed, port=None) -> bool:
        with self.tracer.span("bmv2.simulate"):
            behaviors = simulator.behaviors(
                generated.packet, generated.ingress_port if port is None else port
            )
        self.totals.behaviors += len(behaviors)
        self.totals.simulated += 1
        signature = observed.behavior_signature()
        return any(b.signature == signature for b in behaviors)

    def _test_packet(self, generated, simulator, incidents: _Incidents) -> int:
        with self.tracer.span("bmv2.deparse"):
            payload = deparse_packet(generated.packet)
        observed = self.switch.send_packet(payload, generated.ingress_port)
        if observed.extra_egress:
            incidents.count += 1
        if not self._admitted(generated, simulator, observed):
            incidents.count += 1
        return 1 if observed.punted else 0

    def _packet_out_probes(self, packets, simulator, incidents: _Incidents) -> None:
        switch = self.switch
        switch.drain_packet_ins()
        switch.drain_egress()
        for port in self.valid_ports:
            if not switch.packet_out(PacketOut(payload=_PROBE, egress_port=port)).ok:
                incidents.count += 1
        emitted_ports = {port for port, _payload in switch.drain_egress()}
        if set(self.valid_ports) - emitted_ports:
            incidents.count += 1
        if switch.drain_packet_ins():
            incidents.count += 1
        # Submit-to-ingress with the first packet the model forwards.
        for generated in packets:
            with self.tracer.span("bmv2.simulate"):
                behaviors = simulator.behaviors(generated.packet, 0)
            forwarded = {
                b.result.egress_port for b in behaviors if b.result.egress_port is not None
            }
            if not forwarded or any(b.result.punted for b in behaviors):
                continue
            with self.tracer.span("bmv2.deparse"):
                payload = deparse_packet(generated.packet)
            status = switch.packet_out(
                PacketOut(payload=payload, egress_port=0, submit_to_ingress=True)
            )
            emitted = switch.drain_egress()
            if (status.ok and not emitted) or (emitted and emitted[0][0] not in forwarded):
                incidents.count += 1
            switch.drain_packet_ins()
            break

    def _update_sweep(self, entries, packets, simulator, incidents: _Incidents) -> None:
        """MODIFY every entry in place, then replay the packets: a
        content-preserving modify must be a behavioural no-op."""
        updates = [Update(UpdateType.MODIFY, e) for e in entries]
        with self.tracer.span("fuzzer.batching"):
            batches = make_batches(self.p4info, updates)
        for batch in batches:
            response = self.switch.write(WriteRequest(updates=tuple(batch)))
            incidents.count += sum(1 for s in response.statuses if not s.ok)
        for generated in packets:
            with self.tracer.span("bmv2.deparse"):
                payload = deparse_packet(generated.packet)
            observed = self.switch.send_packet(payload, generated.ingress_port)
            if not self._admitted(generated, simulator, observed):
                incidents.count += 1
        self.switch.drain_packet_ins()
