"""The end-to-end SwitchV harness (§2 "Design").

Given a P4 model and a switch under test, runs:

* **control-plane validation** — a p4-fuzzer campaign (valid + mutated
  requests, oracle judging, read-back checks);
* **data-plane validation** — installs a forwarding state (production
  replay or synthetic), generates coverage-directed test packets with
  p4-symbolic (cached per §6.3), replays each against the switch, and
  checks the observed behaviour is in the set BMv2 admits under
  round-robin hashing; also audits the packet-io channels for lost punts
  and unexpected traffic.

The harness never predicts a single outcome: every judgement is an
admissible-set membership test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bmv2.entries import EntryDecodeError, InstalledEntry, decode_table_entry
from repro.bmv2.packet import deparse_packet
from repro.bmv2.simulator import Bmv2Simulator
from repro.fuzzer import FuzzerConfig, FuzzResult, P4Fuzzer
from repro.fuzzer.batching import make_batches, order_inserts
from repro.p4.ast import P4Program
from repro.p4.p4info import build_p4info
from repro.p4rt.messages import TableEntry, Update, UpdateType, WriteRequest
from repro.smt.pool import SolverPool
from repro.switchv.report import Incident, IncidentKind, IncidentLog
from repro.symbolic.cache import PacketCache, cache_key
from repro.symbolic.coverage import CoverageGoal, CoverageMode, entry_goal
from repro.symbolic.packets import GeneratedPacket, PacketGenerator


def standard_special_goals() -> List[CoverageGoal]:
    """Harness-supplied coverage assertions for notoriously buggy inputs.

    §5 lets test engineers pose custom assertions over X/Y/T; these two are
    the stock ones every nightly run includes: the IPv4 limited-broadcast
    address (a chip drops it silently — Appendix A) and the TTL boundary
    (chips trap TTL ≤ 1 behind the model's back)."""

    def ipv4_broadcast(execution):
        term = execution.inputs.get("ipv4.dst_addr")
        if term is None or term.is_const:
            return None
        return term.eq(0xFFFFFFFF)

    def ipv4_ttl_boundary(execution):
        term = execution.inputs.get("ipv4.ttl")
        if term is None or term.is_const:
            return None
        return term.eq(1)

    return [
        CoverageGoal(name="special:ipv4_broadcast", condition=ipv4_broadcast),
        CoverageGoal(name="special:ipv4_ttl_1", condition=ipv4_ttl_boundary),
    ]


@dataclass
class DataPlaneStats:
    packets_tested: int = 0
    goals_total: int = 0
    goals_covered: int = 0
    generation_seconds: float = 0.0
    testing_seconds: float = 0.0
    cache_hit: bool = False
    # Generation-effort attribution (see repro.switchv.report.render_generation_stats).
    goals_from_cache: int = 0
    goals_subsumed: int = 0
    solver_queries: int = 0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    sat_propagations: int = 0
    cnf_vars: int = 0
    cnf_clauses: int = 0
    gates_shared: int = 0


@dataclass
class ValidationReport:
    """Everything one SwitchV run produced."""

    incidents: IncidentLog = field(default_factory=IncidentLog)
    fuzz: Optional[FuzzResult] = None
    data_plane: Optional[DataPlaneStats] = None

    @property
    def ok(self) -> bool:
        return not self.incidents


class SwitchVHarness:
    """Validates one switch against one P4 model."""

    def __init__(
        self,
        model: P4Program,
        switch,
        valid_ports: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
        cache: Optional[PacketCache] = None,
        simulator_faults=None,
        fault_profile=None,
        retry_policy=None,
        lint_model: bool = False,
        pipeline_depth: int = 1,
    ) -> None:
        self.model = model
        # Fail-fast gate: lint the model before anything derives from it.
        # An error-severity finding means the model is unusable as a
        # specification; every validate_* entry point then refuses to run
        # and reports the findings as MODEL_ERROR incidents instead.
        self.lint_report = None
        if lint_model:
            from repro.analysis import analyze_program

            self.lint_report = analyze_program(model)
        # Transport-availability testing: wrap the P4RT session in a
        # fault-injecting channel plus a retrying client.  The behavioural
        # fault registry (repro.switch.faults) is orthogonal to this layer.
        if fault_profile is not None or retry_policy is not None:
            from repro.p4rt.retry import build_resilient_client

            switch = build_resilient_client(
                switch, fault_profile=fault_profile, retry_policy=retry_policy
            )
        self.switch = switch
        # A model that failed the lint gate may not even survive P4Info
        # derivation (undefined fields crash field_width), so don't try.
        self.p4info = (
            None
            if self.lint_report is not None and self.lint_report.has_errors
            else build_p4info(model)
        )
        self.valid_ports = tuple(valid_ports)
        self.cache = cache
        # Fuzz campaigns keep up to this many independent batches in
        # flight (repro.fuzzer.pipeline); 1 = the sequential loop.
        self.pipeline_depth = max(1, pipeline_depth)
        # Fault registry consulted by the BMv2 simulator only (the paper
        # found simulator bugs too; they surface as mismatches like any
        # other divergence).
        self.simulator_faults = simulator_faults
        # Cross-state memo: solved goal formulas (and the fuzzer's sampled
        # constraint models) kept across every table state this harness
        # validates (fuzzing batches, churn replays, re-validation after an
        # edit), so only the formulas an edit changed are solved again, on
        # solvers built for that state.  Witness packets are canonical
        # (solver-history-independent), so memoised answers are
        # byte-identical to fresh ones.
        self.solver_pool = SolverPool()

    def _lint_gate(self, report: ValidationReport) -> bool:
        """True when the model failed the lint gate (campaign must not run).

        Error-severity diagnostics surface as MODEL_ERROR incidents with
        the same structured table attribution the rest of the incident
        pipeline uses, so metrics and triage treat a broken model exactly
        like any other model artifact failure.
        """
        if self.lint_report is None or not self.lint_report.has_errors:
            return False
        for diag in self.lint_report.errors:
            report.incidents.report(
                Incident(
                    kind=IncidentKind.MODEL_ERROR,
                    summary=f"model lint [{diag.code}] {diag.location}: "
                    f"{diag.message}",
                    expected=diag.fix_hint,
                    source="repro-analysis",
                    table_name=diag.table_name,
                )
            )
        return True

    def _table_name(self, table_id: int) -> str:
        table = self.p4info.tables.get(table_id)
        return table.name if table is not None else ""

    @staticmethod
    def _goal_table(goal: str) -> str:
        """The table an entry-coverage goal targets ('' for special goals)."""
        if goal.startswith("entry:"):
            return goal.split(":", 2)[1]
        return ""

    # ------------------------------------------------------------------
    # Control plane (p4-fuzzer)
    # ------------------------------------------------------------------
    def validate_control_plane(
        self, config: Optional[FuzzerConfig] = None
    ) -> ValidationReport:
        report = ValidationReport()
        if self._lint_gate(report):
            return report
        config = config or FuzzerConfig()
        if self.pipeline_depth > 1 and config.pipeline_depth == 1:
            # The harness knob applies unless the caller's config already
            # chose a depth of its own.
            import dataclasses

            config = dataclasses.replace(config, pipeline_depth=self.pipeline_depth)
        fuzzer = P4Fuzzer(self.p4info, self.switch, config, solver_pool=self.solver_pool)
        result = fuzzer.run()
        report.fuzz = result
        report.incidents.extend(result.incidents)
        return report

    # ------------------------------------------------------------------
    # Data plane (p4-symbolic + BMv2 differential)
    # ------------------------------------------------------------------
    def validate_data_plane(
        self,
        entries: Sequence[TableEntry],
        mode: CoverageMode = CoverageMode.ENTRY,
        custom_goals: Sequence[CoverageGoal] = (),
        install: bool = True,
        include_special_goals: bool = True,
        exercise_update_path: bool = True,
    ) -> ValidationReport:
        report = ValidationReport()
        if self._lint_gate(report):
            return report
        stats = DataPlaneStats()
        report.data_plane = stats

        caller_supplied_goals = bool(custom_goals)
        if include_special_goals:
            custom_goals = list(custom_goals) + standard_special_goals()

        if install:
            state = self._install(entries, report)
            if state is None:
                return report
        else:
            # The entries are already on the switch (e.g. the state a fuzz
            # campaign left behind — the §7 extension of feeding fuzzed
            # entries to p4-symbolic).
            state = self._decode_state(entries, report)

        packets = self._generate_packets(
            state, mode, custom_goals, stats,
            cacheable=not caller_supplied_goals,
        )
        simulator = Bmv2Simulator(self.model, state, faults=self.simulator_faults)

        start = time.perf_counter()
        expected_punts = 0
        for generated in packets:
            expected_punts += self._test_packet(generated, simulator, report)
        self._audit_packet_io(expected_punts, report)
        self._test_packet_out(packets, simulator, report)
        if install and exercise_update_path:
            self._exercise_update_path(entries, packets, simulator, report)
        stats.testing_seconds = time.perf_counter() - start
        stats.packets_tested = len(packets)
        return report

    def _exercise_update_path(
        self,
        entries: Sequence[TableEntry],
        packets: List[GeneratedPacket],
        simulator: Bmv2Simulator,
        report: ValidationReport,
    ) -> None:
        """MODIFY every entry in place, then replay the test packets.

        A content-preserving modify must be a behavioural no-op; the update
        choreography (diff/remove/re-add inside the agent) is where several
        Appendix-A bugs lived and a fresh install never exercises it.
        """
        updates = [Update(UpdateType.MODIFY, e) for e in entries]
        for batch in make_batches(self.p4info, updates):
            response = self.switch.write(WriteRequest(updates=tuple(batch)))
            for update, st in zip(batch, response.statuses, strict=False):
                if not st.ok:
                    report.incidents.report(
                        Incident(
                            kind=IncidentKind.VALID_REQUEST_REJECTED,
                            summary=f"no-op modify rejected: {st.code.name} on "
                            f"table 0x{update.entry.table_id:08x}",
                            observed=st.message,
                            test_input=repr(update.entry),
                            source="p4-fuzzer",
                            table_id=update.entry.table_id,
                            table_name=self._table_name(update.entry.table_id),
                        )
                    )
        for generated in packets:
            payload = deparse_packet(generated.packet)
            try:
                observed = self.switch.send_packet(payload, generated.ingress_port)
            except Exception as exc:
                report.incidents.report(
                    Incident(
                        kind=IncidentKind.SWITCH_UNRESPONSIVE,
                        summary=f"switch raised {type(exc).__name__} after update sweep",
                        observed=str(exc),
                        source="p4-symbolic",
                    )
                )
                return
            signature = observed.behavior_signature()
            if not simulator.admits(generated.packet, generated.ingress_port, signature):
                report.incidents.report(
                    Incident(
                        kind=IncidentKind.FORWARDING_MISMATCH,
                        summary="behavior changed after a content-preserving modify "
                        f"(goal {generated.goal})",
                        observed=f"egress={observed.egress_port} punt={observed.punted}",
                        test_input=f"{generated.profile} packet, port {generated.ingress_port}",
                        source="p4-symbolic",
                        table_name=self._goal_table(generated.goal),
                    )
                )
        self.switch.drain_packet_ins()

    def validate(
        self,
        entries: Sequence[TableEntry],
        fuzzer_config: Optional[FuzzerConfig] = None,
        mode: CoverageMode = CoverageMode.ENTRY,
    ) -> ValidationReport:
        """Full SwitchV run: control-plane then data-plane validation."""
        report = self.validate_control_plane(fuzzer_config)
        if self.lint_report is not None and self.lint_report.has_errors:
            return report
        # §7 extension: replay the state the fuzz campaign left behind
        # through p4-symbolic, targeting only the churned (modified)
        # entries — update-path bugs are invisible to a fresh install.
        if report.fuzz is not None and report.fuzz.modified_entries:
            from repro.p4.constraints.refs import ReferenceGraph

            refs = ReferenceGraph(self.p4info)
            modified_values = set()
            for wire in report.fuzz.modified_entries:
                modified_values.update(refs.exported_values(wire))
            # Target the modified entries and everything that references
            # them (a broken update blackholes traffic at the *referrer*).
            targets = list(report.fuzz.modified_entries)
            targets.extend(
                wire
                for wire in report.fuzz.final_entries
                if any(
                    (r.target_table, r.target_key, r.value) in modified_values
                    for r in refs.references_of(wire)
                )
            )
            goals = []
            for wire in targets:
                try:
                    decoded = decode_table_entry(self.p4info, wire)
                except EntryDecodeError:
                    continue
                goals.append(entry_goal(decoded.table_name, decoded.identity()))
            if goals:
                churn = self.validate_data_plane(
                    report.fuzz.final_entries,
                    mode=CoverageMode.CUSTOM,
                    custom_goals=goals,
                    install=False,
                    include_special_goals=False,
                )
                report.incidents.extend(churn.incidents)
        # Fresh-state data-plane validation on the provided workload.
        self.clear_switch()
        data = self.validate_data_plane(entries, mode)
        report.incidents.extend(data.incidents)
        report.data_plane = data.data_plane
        return report

    # ------------------------------------------------------------------
    # Data-plane internals
    # ------------------------------------------------------------------
    def clear_switch(self) -> None:
        """Delete all installed entries (between validation phases).

        Referential integrity forces referenced entries to outlive their
        referrers, so deletion proceeds in passes until the read-back is
        empty or no pass makes progress.
        """
        from repro.p4rt.messages import ReadRequest

        for _pass in range(16):
            entries = list(self.switch.read(ReadRequest(table_id=0)).entries)
            if not entries:
                return
            progressed = False
            updates = [Update(UpdateType.DELETE, e) for e in entries]
            for batch in make_batches(self.p4info, updates):
                response = self.switch.write(WriteRequest(updates=tuple(batch)))
                progressed = progressed or any(s.ok for s in response.statuses)
            if not progressed:
                return

    def _install(
        self, entries: Sequence[TableEntry], report: ValidationReport
    ) -> Optional[Dict[str, List[InstalledEntry]]]:
        """Push the pipeline config and the forwarding state."""
        status = self.switch.set_forwarding_pipeline_config(self.p4info)
        if not status.ok:
            report.incidents.report(
                Incident(
                    kind=IncidentKind.PIPELINE_CONFIG,
                    summary=f"pipeline config rejected: {status.code.name}",
                    observed=status.message,
                    source="p4-symbolic",
                )
            )
            return None
        updates = order_inserts(
            self.p4info, [Update(UpdateType.INSERT, e) for e in entries]
        )
        # Dependent entries must land in different batches (§4.4); the same
        # batcher the fuzzer uses serves the installation path.
        install_failed = False
        for batch in make_batches(self.p4info, updates):
            response = self.switch.write(WriteRequest(updates=tuple(batch)))
            for update, st in zip(batch, response.statuses, strict=False):
                if not st.ok:
                    install_failed = True
                    report.incidents.report(
                        Incident(
                            kind=IncidentKind.VALID_REQUEST_REJECTED,
                            summary=f"data-plane state install failed: "
                            f"{st.code.name} on table 0x{update.entry.table_id:08x}",
                            observed=st.message,
                            test_input=repr(update.entry),
                            source="p4-symbolic",
                            table_id=update.entry.table_id,
                            table_name=self._table_name(update.entry.table_id),
                        )
                    )
        state = self._decode_state(entries, report)
        if install_failed:
            # Continue: data-plane testing against a partially installed
            # switch still produces (attributable) mismatches, exactly like
            # the real system.
            pass
        return state

    def _decode_state(
        self, entries: Sequence[TableEntry], report: ValidationReport
    ) -> Dict[str, List[InstalledEntry]]:
        state: Dict[str, List[InstalledEntry]] = {}
        for entry in entries:
            try:
                decoded = decode_table_entry(self.p4info, entry)
            except EntryDecodeError as exc:
                report.incidents.report(
                    Incident(
                        kind=IncidentKind.PIPELINE_CONFIG,
                        summary=f"workload entry failed reference decoding: {exc}",
                        test_input=repr(entry),
                        source="p4-symbolic",
                    )
                )
                continue
            state.setdefault(decoded.table_name, []).append(decoded)
        return state

    def _generate_packets(
        self,
        state: Dict[str, List[InstalledEntry]],
        mode: CoverageMode,
        custom_goals: Sequence[CoverageGoal],
        stats: DataPlaneStats,
        cacheable: bool = True,
    ) -> List[GeneratedPacket]:
        # The harness's standard special goals are deterministic, so they
        # can live under the cache; caller-supplied goals cannot.
        start = time.perf_counter()
        key = None
        if self.cache is not None and cacheable:
            key = cache_key(self.model, state, mode, self.valid_ports)
            cached = self.cache.lookup(key)
            if cached is not None:
                stats.generation_seconds = time.perf_counter() - start
                stats.goals_total = cached.stats.goals_total
                stats.goals_covered = cached.stats.goals_covered
                stats.cache_hit = True
                return cached.packets
        generator = PacketGenerator(
            self.model, state, self.valid_ports, solver_pool=self.solver_pool
        )
        # The whole-run key missed (or caching is off for this request);
        # the per-goal layer still recovers every goal whose solved formula
        # is unchanged since an earlier, slightly different state.
        goal_cache = self.cache if cacheable else None
        result = generator.generate(mode, custom_goals, goal_cache=goal_cache)
        stats.generation_seconds = time.perf_counter() - start
        stats.goals_total = result.stats.goals_total
        stats.goals_covered = result.stats.goals_covered
        stats.goals_from_cache = result.stats.goals_from_cache
        stats.goals_subsumed = result.stats.goals_subsumed
        stats.solver_queries = result.stats.solver_queries
        stats.sat_conflicts = result.stats.sat_conflicts
        stats.sat_decisions = result.stats.sat_decisions
        stats.sat_propagations = result.stats.sat_propagations
        stats.cnf_vars = result.stats.cnf_vars
        stats.cnf_clauses = result.stats.cnf_clauses
        stats.gates_shared = result.stats.gates_shared
        if key is not None:
            self.cache.store(key, result)
        return result.packets

    def _test_packet(
        self, generated: GeneratedPacket, simulator: Bmv2Simulator, report: ValidationReport
    ) -> int:
        """Run one test packet; returns 1 if the switch punted it."""
        payload = deparse_packet(generated.packet)
        try:
            observed = self.switch.send_packet(payload, generated.ingress_port)
        except Exception as exc:
            report.incidents.report(
                Incident(
                    kind=IncidentKind.SWITCH_UNRESPONSIVE,
                    summary=f"switch raised {type(exc).__name__} on test packet",
                    observed=str(exc),
                    test_input=generated.goal,
                    source="p4-symbolic",
                )
            )
            return 0
        if observed.extra_egress:
            port, payload = observed.extra_egress[0]
            report.incidents.report(
                Incident(
                    kind=IncidentKind.UNEXPECTED_EGRESS,
                    summary=f"switch emitted {len(observed.extra_egress)} unsolicited "
                    "packet(s) on data ports",
                    observed=f"port {port}: {payload[:16].hex()}",
                    source="p4-symbolic",
                )
            )
        signature = observed.behavior_signature()
        if not simulator.admits(generated.packet, generated.ingress_port, signature):
            behaviors = simulator.behaviors(generated.packet, generated.ingress_port)
            report.incidents.report(
                Incident(
                    kind=IncidentKind.FORWARDING_MISMATCH,
                    summary=f"behavior not admitted by model for goal {generated.goal}",
                    expected=" | ".join(repr(b.result) for b in behaviors[:4]),
                    observed=f"egress={observed.egress_port} punt={observed.punted}",
                    test_input=f"{generated.profile} packet, port {generated.ingress_port}",
                    source="p4-symbolic",
                    table_name=self._goal_table(generated.goal),
                )
            )
        return 1 if observed.punted else 0

    def _audit_packet_io(self, expected_punts: int, report: ValidationReport) -> None:
        """Check the packet-in channel carried exactly the punted packets."""
        drain = getattr(self.switch, "drain_packet_ins", None)
        if drain is None:
            return
        packet_ins = drain()
        if len(packet_ins) < expected_punts:
            report.incidents.report(
                Incident(
                    kind=IncidentKind.PACKET_IO,
                    summary=f"{expected_punts - len(packet_ins)} punted packet(s) never "
                    "arrived on the packet-in channel",
                    expected=f"{expected_punts} packet-ins",
                    observed=f"{len(packet_ins)} packet-ins",
                    source="p4-symbolic",
                )
            )
        elif len(packet_ins) > expected_punts:
            report.incidents.report(
                Incident(
                    kind=IncidentKind.UNEXPECTED_PACKET_IN,
                    summary=f"{len(packet_ins) - expected_punts} unexpected packet(s) "
                    "punted to the controller",
                    expected=f"{expected_punts} packet-ins",
                    observed=f"{len(packet_ins)} packet-ins "
                    f"(first extra: {packet_ins[-1].payload[:16].hex()})",
                    source="p4-symbolic",
                )
            )

    def _test_packet_out(
        self, packets: List[GeneratedPacket], simulator: Bmv2Simulator, report: ValidationReport
    ) -> None:
        """Validate the packet-out path (§6.1 found several bugs here).

        1. Direct packet-out on every port must be emitted on exactly that
           port and must not bounce back on the packet-in channel.
        2. A submit-to-ingress injection of a model-forwarded packet must
           traverse the pipeline like a data-plane packet.
        """
        from repro.p4rt.messages import PacketOut

        packet_out = getattr(self.switch, "packet_out", None)
        drain_egress = getattr(self.switch, "drain_egress", None)
        if packet_out is None or drain_egress is None:
            return
        self.switch.drain_packet_ins()
        drain_egress()
        probe = b"\x02\xbb\x00\x00\x00\x42\x02\xaa\x00\x00\x00\x17\x08\x00" + bytes(20)
        for port in self.valid_ports:
            status = packet_out(PacketOut(payload=probe, egress_port=port))
            if not status.ok:
                report.incidents.report(
                    Incident(
                        kind=IncidentKind.PACKET_IO,
                        summary=f"packet-out on port {port} rejected: {status.code.name}",
                        observed=status.message,
                        source="p4-symbolic",
                    )
                )
        emitted_ports = {port for port, _payload in drain_egress()}
        missing = set(self.valid_ports) - emitted_ports
        if missing:
            report.incidents.report(
                Incident(
                    kind=IncidentKind.PACKET_IO,
                    summary=f"packet-out never reached {len(missing)} port(s)",
                    expected=f"egress on ports {sorted(self.valid_ports)}",
                    observed=f"egress on ports {sorted(emitted_ports)}",
                    source="p4-symbolic",
                )
            )
        bounced = self.switch.drain_packet_ins()
        if bounced:
            report.incidents.report(
                Incident(
                    kind=IncidentKind.UNEXPECTED_PACKET_IN,
                    summary=f"{len(bounced)} packet-out packet(s) punted back to the "
                    "controller",
                    observed=f"first: {bounced[0].payload[:16].hex()}",
                    source="p4-symbolic",
                )
            )
        # Submit-to-ingress: pick a generated packet the model forwards.
        # Injection happens at the CPU port (0), so the admissible set must
        # be computed for that ingress port.
        for generated in packets:
            behaviors = simulator.behaviors(generated.packet, 0)
            forwarded_ports = {
                b.result.egress_port for b in behaviors if b.result.egress_port is not None
            }
            if not forwarded_ports or any(b.result.punted for b in behaviors):
                continue
            payload = deparse_packet(generated.packet)
            status = packet_out(PacketOut(payload=payload, egress_port=0, submit_to_ingress=True))
            emitted = drain_egress()
            if status.ok and not emitted:
                report.incidents.report(
                    Incident(
                        kind=IncidentKind.PACKET_IO,
                        summary="submit-to-ingress packet vanished (model forwards it)",
                        expected=f"egress on one of {sorted(forwarded_ports)}",
                        observed="no egress",
                        source="p4-symbolic",
                    )
                )
            elif emitted and emitted[0][0] not in forwarded_ports:
                report.incidents.report(
                    Incident(
                        kind=IncidentKind.FORWARDING_MISMATCH,
                        summary="submit-to-ingress packet egressed on an inadmissible port",
                        expected=f"one of {sorted(forwarded_ports)}",
                        observed=f"port {emitted[0][0]}",
                        source="p4-symbolic",
                    )
                )
            self.switch.drain_packet_ins()
            break
