"""The five workloads.

Each workload is ``setup()`` (timed as ``setup_s``), ``run()`` (the measured
window, ``verdict_s``) and ``finish()`` (correctness checks, and — in the
traced pass only — the layer micro-measurements that need a quiet moment
after the window).  Every call into ``src/repro`` uses default arguments:
the benchmark measures the production path and selects no baseline.

The two symbolic workloads run the real ``SwitchVHarness`` when tracing is
off; with tracing on they run :mod:`bench.replay`, the same cycle rebuilt
from public calls with a span around each, and the runner rejects the
trace unless both produce the same packet digest and incident count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from bench import replay
from bench.catalog import BUG_HUNT_FAULTS
from bench.trace import NullTracer, TimingProxy
from repro.bmv2.entries import decode_table_entry
from repro.bmv2.packet import (
    deparse_packet,
    make_ipv4_packet,
    make_ipv6_packet,
    parse_packet,
)
from repro.bmv2.simulator import Bmv2Simulator
from repro.fuzzer import FuzzerConfig, P4Fuzzer, RequestGenerator
from repro.fuzzer.mutations import apply_random_mutation
from repro.fuzzer.oracle import Oracle
from repro.p4.p4info import build_p4info
from repro.p4.programs import build_tor_program
from repro.p4rt.messages import (
    ActionInvocation,
    ReadRequest,
    WriteRequest,
    WriteResponse,
)
from repro.smt import Result, Solver
from repro.smt.simplify import simplify
from repro.smt import terms as T
from repro.switch import PinsSwitchStack, ReferenceSwitch
from repro.switchv import SwitchVHarness
from repro.switchv.campaign import STACK_PROGRAMS, CampaignConfig, run_fault_campaign
from repro.switchv.harness import standard_special_goals
from repro.symbolic import CoverageMode, PacketGenerator
from repro.symbolic.cache import PacketCache, cache_key
from repro.symbolic.coverage import goals_for_mode
from repro.workloads import (
    EntryBuilder,
    crm_fill_updates,
    production_like_entries,
    production_scale_program,
)

VALID_PORTS = (1, 2, 3, 4, 5, 6, 7, 8)


def sub_seed(seed: int, label: str) -> int:
    """An input seed derived from the run seed (stable across processes)."""
    return random.Random(f"{seed}:{label}").getrandbits(31)


def decode_state(p4info, entries) -> Dict[str, list]:
    """Wire entries decoded and grouped by table, as the simulator wants."""
    state: Dict[str, list] = {}
    for entry in entries:
        decoded = decode_table_entry(p4info, entry)
        state.setdefault(decoded.table_name, []).append(decoded)
    return state


@dataclass
class Outcome:
    """What one repetition produced besides the clocks the child holds."""

    # Phase and layer metrics by catalogue name.
    metrics: Dict[str, float] = field(default_factory=dict)
    # Values that must repeat exactly across repetitions of one seed.
    digests: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.failures.append(f"{count} x {what}")


class Workload:
    def __init__(self, sizes: Dict[str, int], seed: int, tracer=None) -> None:
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer if tracer is not None else NullTracer()
        self.traced = self.tracer.enabled

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def finish(self) -> Outcome:
        raise NotImplementedError

    # -- shared setup steps ------------------------------------------------
    def _build_tor(self):
        with self.tracer.span("p4.build"):
            model = build_tor_program()
            p4info = build_p4info(model)
        return model, p4info

    def _entries(self, p4info, total: int):
        with self.tracer.span("workloads.entries"):
            return production_like_entries(
                p4info, total=total, seed=sub_seed(self.seed, "entries")
            )


# ----------------------------------------------------------------------
# symbolic_cold / symbolic_churn
# ----------------------------------------------------------------------
@dataclass
class _Cycle:
    """One data-plane validation as seen from outside."""

    seconds: float
    generation_s: float
    testing_s: float
    incidents: int
    goals: int
    packets: int
    cache_hit: bool
    stats: Dict[str, int]


class _Symbolic(Workload):
    """Shared by the two symbolic workloads: one validation cycle, run
    through the harness (untraced) or the benchmark-side replay (traced)."""

    def _base_setup(self, total: int) -> None:
        self.model, self.p4info = self._build_tor()
        self.entries = self._entries(self.p4info, total)
        self.cache = PacketCache()
        self.proxies: List[TimingProxy] = []
        self.replay_totals = replay.Totals()

    def _fresh_validator(self):
        """A fresh switch stack behind a proxy, and what validates it."""
        proxy = TimingProxy(PinsSwitchStack(self.model), self.tracer)
        self.proxies.append(proxy)
        if self.traced:
            validator = replay.ReplayHarness(
                self.tracer, self.model, self.p4info, proxy, self.cache,
                VALID_PORTS, self.replay_totals,
            )
        else:
            validator = SwitchVHarness(self.model, proxy, cache=self.cache)
        return proxy, validator

    def _validate(self, proxy: TimingProxy, validator, entries) -> _Cycle:
        proxy.begin_cycle()
        start = perf_counter()
        report = validator.validate_data_plane(entries)
        end = perf_counter()
        generation_s, testing_s = proxy.end_cycle(end)
        dp = report.data_plane
        return _Cycle(
            seconds=end - start,
            generation_s=generation_s,
            testing_s=testing_s,
            incidents=report.incidents.count,
            goals=dp.goals_total,
            packets=dp.packets_tested,
            cache_hit=dp.cache_hit,
            stats={
                "symbolic.goals": dp.goals_total,
                "symbolic.goals_uncovered": dp.goals_total - dp.goals_covered,
                "symbolic.goals_from_cache": dp.goals_from_cache,
                "symbolic.goals_subsumed": dp.goals_subsumed,
                "symbolic.solver_queries": dp.solver_queries,
                "smt.cnf_vars": dp.cnf_vars,
                "smt.cnf_clauses": dp.cnf_clauses,
                "smt.gates_shared": dp.gates_shared,
                "smt.sat_propagations": dp.sat_propagations,
                "smt.sat_conflicts": dp.sat_conflicts,
                "smt.sat_decisions": dp.sat_decisions,
            },
        )

    def _generation_result(self, entries):
        """The stored GenerationResult for a validated state (public cache
        lookup under the public key) — goal names, packets, uncovered."""
        state = decode_state(self.p4info, entries)
        key = cache_key(self.model, state, CoverageMode.ENTRY, VALID_PORTS)
        return state, self.cache.lookup(key)

    def _symbolic_outcome(self, states: Sequence[Sequence], measured: Sequence[_Cycle],
                          unsat_allowed: Optional[set]) -> Outcome:
        """Digest, exact-repeat counters and failures over the measured
        cycles; ``states[i]`` is the entry list cycle ``i`` validated.  With
        ``unsat_allowed``, a goal left uncovered outside that set fails."""
        out = Outcome()
        digest = hashlib.sha256()
        for entries, cycle in zip(states, measured, strict=True):
            _state, result = self._generation_result(entries)
            if result is None:
                out.fail(1, "validated state missing from the packet cache")
                continue
            for generated in result.packets:
                digest.update(
                    repr((generated.goal, generated.profile,
                          deparse_packet(generated.packet),
                          generated.ingress_port)).encode()
                )
            if unsat_allowed is not None:
                out.fail(len(set(result.uncovered) - unsat_allowed),
                         "goal left uncovered beyond the base state's UNSAT set")
            out.attempted += cycle.goals + cycle.packets
            out.fail(cycle.incidents, "incident on a healthy switch")
        out.digests["packets"] = digest.hexdigest()
        out.metrics["generation_s"] = sum(c.generation_s for c in measured)
        out.metrics["testing_s"] = sum(c.testing_s for c in measured)
        for name in measured[0].stats:
            out.metrics[name] = sum(c.stats[name] for c in measured)
        goals = out.metrics["symbolic.goals"]
        out.metrics["symbolic.cache_hit_ratio"] = (
            out.metrics["symbolic.goals_from_cache"] / goals if goals else 0.0
        )
        if self.traced:
            totals = self.replay_totals
            out.metrics["symbolic.canonical_checks"] = totals.canonical_checks
            out.metrics["symbolic.pool_hits"] = totals.pool_hits
            out.metrics["bmv2.behaviors_per_packet"] = (
                totals.behaviors / totals.simulated if totals.simulated else 0.0
            )
            out.metrics["switch.install_writes"] = totals.install_writes
        out.metrics["switch.send_packet_calls"] = sum(
            p.send_packet_calls for p in self.proxies
        )
        out.metrics["switch.send_packet_s"] = sum(p.send_packet_s for p in self.proxies)
        return out


class SymbolicCold(_Symbolic):
    def setup(self) -> None:
        self._base_setup(self.sizes["entries"])
        self.proxy, self.validator = self._fresh_validator()

    def run(self) -> None:
        self.cold = self._validate(self.proxy, self.validator, self.entries)
        self.cached: List[_Cycle] = []
        for _ in range(self.sizes["cached_cycles"]):
            # A new switch build under test, the same specification: fresh
            # stack + harness, same cache (Table 3 "w/ cache").
            start = perf_counter()
            proxy, validator = self._fresh_validator()
            cycle = self._validate(proxy, validator, self.entries)
            cycle.seconds = perf_counter() - start
            self.cached.append(cycle)

    def finish(self) -> Outcome:
        out = self._symbolic_outcome([self.entries], [self.cold], None)
        out.metrics["cached_cycle_s"] = statistics.median(c.seconds for c in self.cached)
        for cycle in self.cached:
            out.attempted += cycle.packets
            out.fail(cycle.incidents, "incident on a cached cycle")
            out.fail(0 if cycle.cache_hit else 1, "cached cycle missed the whole-run cache")
        out.detail["cold_cycle_s"] = self.cold.seconds
        out.detail["cached_cycles_s"] = [c.seconds for c in self.cached]
        if self.traced:
            self._smt_floor(out)
        return out

    def _smt_floor(self, out: Outcome) -> None:
        """smt.simplify_s and smt.check_s: the solver's share seen alone.

        ``simplify`` over every goal condition (the executor already
        simplified them, so this is the memoised floor), then a fresh
        ``Solver`` per profile with the profile constraints added once and
        one ``check(goal)`` per goal — no attempt cascade, no canonical
        witness.  The gap to symbolic.solve_s is witness descent + packet
        extraction.  The UNSAT verdicts double as an independent check on
        the goals the generator left uncovered.
        """
        state, result = self._generation_result(self.entries)
        generator = PacketGenerator(self.model, state, VALID_PORTS)
        executions = generator.executions()
        goals = goals_for_mode(executions, CoverageMode.ENTRY, standard_special_goals())
        with self.tracer.span("smt.simplify"):
            for goal in goals:
                for execution in executions:
                    condition = goal.condition(execution)
                    if condition is not None:
                        simplify(condition)
        unsat = set()
        with self.tracer.span("smt.check"):
            solvers = {}
            for execution in executions:
                solver = Solver()
                solver.add(*execution.constraints)
                solvers[execution.profile.name] = solver
            for goal in goals:
                for execution in executions:
                    condition = goal.condition(execution)
                    if condition is None or condition is T.FALSE:
                        continue
                    if solvers[execution.profile.name].check(condition) is Result.SAT:
                        break
                else:
                    unsat.add(goal.name)
        uncovered = set(result.uncovered) if result is not None else set()
        out.fail(len(uncovered ^ unsat),
                 "goal whose coverage verdict a fresh solver does not confirm")


_ROUTE_PREFIX_LEN = 24


class SymbolicChurn(_Symbolic):
    """Base state validated in setup; the window re-validates after single
    edits on the same harness, so its SolverPool and cache stay warm.

    Edits stay on /24 routes (the most common length in the mix): the goals
    an LPM edit invalidates are those of shorter prefixes in its VRF, so
    pinning the length keeps the work comparable from seed to seed."""

    def setup(self) -> None:
        self._base_setup(self.sizes["entries"])
        self.proxy, self.validator = self._fresh_validator()
        self.base = self._validate(self.proxy, self.validator, self.entries)
        _state, result = self._generation_result(self.entries)
        self.base_unsat = set(result.uncovered)
        self.states = self._edited_states()

    def _edited_states(self) -> List[List]:
        rng = random.Random(sub_seed(self.seed, "edits"))
        p4info = self.p4info
        builder = EntryBuilder(p4info)
        ipv4 = p4info.table_by_name("ipv4_tbl").id
        acl = p4info.table_by_name("acl_ingress_tbl").id
        drop = p4info.action_by_name("drop").id
        copy = p4info.action_by_name("acl_copy").id
        current = list(self.entries)
        states = []
        for index in range(self.sizes["edits"]):
            kind = ("delete", "insert", "modify")[index % 3]
            if kind == "delete":
                routes = [i for i, e in enumerate(current) if e.table_id == ipv4]
                pinned = [
                    i for i in routes
                    if current[i].matches[-1].prefix_len == _ROUTE_PREFIX_LEN
                ]
                current.pop(rng.choice(pinned or routes))
            elif kind == "insert":
                # 198.x.y.0/24: outside the generator's installed routes
                # only by chance, so skip prefixes already present.
                taken = {e.match_key() for e in current}
                while True:
                    route = builder.lpm(
                        "ipv4_tbl", {"vrf_id": 1}, "ipv4_dst",
                        0xC6000000 | (rng.getrandbits(16) << 8), _ROUTE_PREFIX_LEN,
                        "set_nexthop_id", {"nexthop_id": rng.randint(1, 8)},
                    )
                    if route.match_key() not in taken:
                        break
                current.append(route)
            else:
                acls = [
                    i for i, e in enumerate(current)
                    if e.table_id == acl and e.action.action_id in (drop, copy)
                ]
                i = rng.choice(acls)
                flipped = copy if current[i].action.action_id == drop else drop
                current[i] = dataclasses.replace(
                    current[i], action=ActionInvocation(flipped, ())
                )
            states.append(list(current))
        return states

    def run(self) -> None:
        self.edits: List[_Cycle] = []
        for entries in self.states:
            start = perf_counter()
            self.validator.clear_switch()
            cycle = self._validate(self.proxy, self.validator, entries)
            cycle.seconds = perf_counter() - start
            self.edits.append(cycle)

    def finish(self) -> Outcome:
        # Whatever an edit leaves uncovered must already have been
        # unsatisfiable on the base state; anything more is a pruning error.
        out = self._symbolic_outcome(self.states, self.edits, self.base_unsat)
        out.fail(self.base.incidents, "incident on the base state")
        out.detail["base_cycle_s"] = self.base.seconds
        out.detail["base_generation_s"] = self.base.generation_s
        out.detail["per_edit"] = [
            {
                "verdict_s": c.seconds,
                "generation_s": c.generation_s,
                "testing_s": c.testing_s,
                "goals": c.goals,
                "goals_from_cache": c.stats["symbolic.goals_from_cache"],
                "solver_queries": c.stats["symbolic.solver_queries"],
                "sat_propagations": c.stats["smt.sat_propagations"],
            }
            for c in self.edits
        ]
        return out


# ----------------------------------------------------------------------
# fuzz_control
# ----------------------------------------------------------------------
class FuzzControl(Workload):
    def setup(self) -> None:
        self.model, self.p4info = self._build_tor()
        self.proxy = TimingProxy(PinsSwitchStack(self.model), self.tracer)
        self.fuzzer = P4Fuzzer(
            self.p4info,
            self.proxy,
            FuzzerConfig(
                num_writes=self.sizes["writes"],
                updates_per_write=self.sizes["updates_per_write"],
                seed=sub_seed(self.seed, "fuzz"),
            ),
        )

    def run(self) -> None:
        start = perf_counter()
        with self.tracer.span("fuzzer.run"):
            self.result = self.fuzzer.run()
        self.run_s = perf_counter() - start

    def finish(self) -> Outcome:
        out = Outcome()
        result, proxy = self.result, self.proxy
        out.attempted = result.updates_sent
        out.fail(result.incidents.count, "incident on a healthy switch")
        stream = hashlib.sha256()
        for request in proxy.write_requests():
            stream.update(repr(request.updates).encode())
        out.digests["request_stream"] = stream.hexdigest()
        out.metrics.update(
            {
                "updates_per_s": result.updates_sent / self.run_s,
                "fuzzer.valid_updates": result.valid_updates,
                "fuzzer.invalid_updates": result.invalid_updates,
                "fuzzer.writes_sent": result.writes_sent,
                "fuzzer.final_entries": len(result.final_entries),
                "fuzzer.self_s": self.run_s - proxy.write_s - proxy.read_s,
            }
        )
        _write_read_metrics(out, proxy)
        if self.traced:
            self._oracle_replay(out)
            self._generation_cost(out)
        return out

    def _oracle_replay(self, out: Outcome) -> None:
        """fuzzer.oracle_judge_s: the recorded (batch, response, read-back)
        triples through a fresh Oracle, which must reach the run's verdict."""
        log = self.proxy.rpc_log
        oracle = Oracle(self.p4info)
        incidents = updates = 0
        start = perf_counter()
        with self.tracer.span("fuzzer.oracle_judge"):
            for index, (kind, request, response) in enumerate(log):
                if kind != "write":
                    continue
                read_back = None
                if index + 1 < len(log) and log[index + 1][0] == "read":
                    read_back = list(log[index + 1][2].entries)
                incidents += oracle.judge_batch(
                    list(request.updates), response, read_back
                ).count
                updates += len(request.updates)
        judge_s = perf_counter() - start
        out.metrics["fuzzer.oracle_judge_s"] = judge_s
        out.metrics["fuzzer.oracle_updates_per_s"] = updates / judge_s
        out.fail(abs(incidents - self.result.incidents.count),
                 "oracle replay disagreeing with the run's incident count")

    def _generation_cost(self, out: Outcome, samples: int = 2000) -> None:
        """fuzzer.generate_us_per_update: request generation + mutation
        against the final installed state, with no switch in the loop."""
        rng = random.Random(sub_seed(self.seed, "generate"))
        generator = RequestGenerator(self.p4info, rng)
        generator.state.replace_all(self.result.final_entries)
        start = perf_counter()
        with self.tracer.span("fuzzer.generate"):
            for _ in range(samples):
                update = generator.generate_update()
                if update is not None:
                    apply_random_mutation(rng, self.p4info, update, state=generator.state)
        out.metrics["fuzzer.generate_us_per_update"] = (
            (perf_counter() - start) / samples * 1e6
        )


def _write_read_metrics(out: Outcome, proxy: TimingProxy) -> None:
    durations = sorted(proxy.write_durations)
    out.metrics.update(
        {
            "switch.write_s": proxy.write_s,
            "switch.write_calls": proxy.write_calls,
            "switch.rejected_updates": proxy.rejected_updates(),
            "switch.write_p50_ms": _percentile(durations, 0.50) * 1e3,
            "switch.write_p95_ms": _percentile(durations, 0.95) * 1e3,
            "switch.read_s": proxy.read_s,
            "switch.read_calls": proxy.read_calls,
            "switch.read_entries": proxy.read_entries,
        }
    )


def _percentile(ordered: Sequence[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# state_25k
# ----------------------------------------------------------------------
class StateScale(Workload):
    def setup(self) -> None:
        total = self.sizes["entries"]
        tracer = self.tracer
        with tracer.span("p4.build"):
            self.program, self.p4info = production_scale_program(
                build_tor_program(), total + 1024
            )
        self.entries = self._entries(self.p4info, total)
        switch = ReferenceSwitch(self.program)
        self.proxy = TimingProxy(switch, tracer)
        if not self.proxy.set_forwarding_pipeline_config(self.p4info).ok:
            raise RuntimeError("pipeline config rejected")
        with tracer.span("switch.preload"):
            switch.preload(self.entries)
        self.oracle = Oracle(self.p4info)
        with tracer.span("fuzzer.oracle_resync"):
            self.oracle.resync(self.entries)
        with tracer.span("bmv2.decode"):
            state = decode_state(self.p4info, self.entries)
        self.simulator = Bmv2Simulator(self.program, state)
        with tracer.span("bmv2.index_build"):
            # The simulator builds its table indices on first use.
            self.simulator.behaviors(make_ipv4_packet(dst_addr=0x0A000001), 1)
        self._make_inputs()

    def _make_inputs(self) -> None:
        route_table = self.p4info.table_by_name("ipv4_tbl").id
        acl_table = self.p4info.table_by_name("acl_ingress_tbl").id
        routes = [e for e in self.entries if e.table_id == route_table]
        acls = [e for e in self.entries if e.table_id == acl_table]
        # Routes reference other entries but are never referenced: safe
        # victims, so no delete is legitimately rejected.
        self.updates = crm_fill_updates(
            [], churn=self.sizes["churn_updates"] // 2,
            seed=sub_seed(self.seed, "churn"), victims=routes,
        )
        rng = random.Random(sub_seed(self.seed, "packets"))
        self.packets = []
        for index in range(self.sizes["packets"]):
            kind = index % 4
            if kind < 2:  # destination inside an installed prefix
                match = routes[rng.randrange(len(routes))].matches[-1]
                host_bits = 32 - match.prefix_len
                dst = int.from_bytes(match.value, "big") | (
                    rng.getrandbits(host_bits) if host_bits else 0
                )
                packet = make_ipv4_packet(dst_addr=dst)
            elif kind == 2:  # random destination
                packet = make_ipv4_packet(dst_addr=rng.getrandbits(32))
            elif index % 8 == 3 and acls:  # inside an installed ACL's /24
                dst_match = next(
                    m for m in acls[rng.randrange(len(acls))].matches if m.kind == "ternary"
                )
                packet = make_ipv4_packet(
                    dst_addr=int.from_bytes(dst_match.value, "big") | rng.getrandbits(8)
                )
            else:
                packet = make_ipv6_packet(
                    dst_addr=(0x20010DB8 << 96) | rng.getrandbits(64)
                )
            self.packets.append((deparse_packet(packet), 1 + index % len(VALID_PORTS)))

    def run(self) -> None:
        proxy, oracle, tracer = self.proxy, self.oracle, self.tracer
        self.incidents = 0
        judge_s = 0.0
        start = perf_counter()
        for update in self.updates:
            response = proxy.write(WriteRequest(updates=(update,)))
            judged_at = perf_counter()
            self.incidents += oracle.judge_batch([update], response, None).count
            judged = perf_counter()
            judge_s += judged - judged_at
            tracer.record("fuzzer.oracle_judge", judged_at, judged)
        self.update_loop_s = perf_counter() - start
        self.status_judge_s = judge_s

        start = perf_counter()
        self.observed = [proxy.send_packet(payload, port) for payload, port in self.packets]
        self.packet_loop_s = perf_counter() - start
        proxy.drain_packet_ins()

        self.readback_cycles_s = []
        nothing = WriteResponse(statuses=())
        for _ in range(self.sizes["readback_cycles"]):
            start = perf_counter()
            read_back = list(proxy.read(ReadRequest(table_id=0)).entries)
            with tracer.span("fuzzer.oracle_readback"):
                self.incidents += oracle.judge_batch([], nothing, read_back).count
            self.readback_cycles_s.append(perf_counter() - start)

    def finish(self) -> Outcome:
        out = Outcome()
        proxy = self.proxy
        step = max(1, len(self.packets) // self.sizes["sim_sample"])
        sample = list(zip(self.packets, self.observed, strict=True))[::step]
        pattern = self.program.parser.pattern
        behaviour = hashlib.sha256()
        for observed in self.observed:
            behaviour.update(repr((observed.egress_port, observed.punted)).encode())
        inadmissible = 0
        start = perf_counter()
        with self.tracer.span("bmv2.sim_sample"):
            for (payload, port), observed in sample:
                packet = parse_packet(payload, pattern)
                if not self.simulator.admits(packet, port, observed.behavior_signature()):
                    inadmissible += 1
        simulate_s = perf_counter() - start
        out.attempted = len(self.updates) + len(self.packets) + len(self.readback_cycles_s)
        out.fail(proxy.rejected_updates(), "non-OK churn status")
        out.fail(self.incidents, "oracle incident on a healthy switch")
        out.fail(inadmissible, "sampled packet the simulator does not admit")
        out.digests["forwarding"] = behaviour.hexdigest()
        out.metrics.update(
            {
                "updates_per_s": len(self.updates) / self.update_loop_s,
                "packets_per_s": len(self.packets) / self.packet_loop_s,
                # Cycle 1 fills the oracle's decode cache and is reported
                # as a layer metric of its own.
                "readback_cycle_s": statistics.median(self.readback_cycles_s[1:]),
                "fuzzer.oracle_first_readback_s": self.readback_cycles_s[0],
                "fuzzer.oracle_judge_s": self.status_judge_s,
                "fuzzer.oracle_updates_per_s": len(self.updates) / self.status_judge_s,
                "bmv2.sim_packets_per_s": len(sample) / simulate_s,
                "switch.send_packet_s": proxy.send_packet_s,
                "switch.send_packet_calls": proxy.send_packet_calls,
            }
        )
        _write_read_metrics(out, proxy)
        out.detail["readback_cycles_s"] = self.readback_cycles_s
        return out


# ----------------------------------------------------------------------
# bug_hunt
# ----------------------------------------------------------------------
class BugHunt(Workload):
    def setup(self) -> None:
        sizes = self.sizes
        self.faults = BUG_HUNT_FAULTS[: sizes["campaigns"]]
        campaign_seed = sub_seed(self.seed, "campaign")
        self.config = CampaignConfig(
            fuzz_writes=sizes["fuzz_writes"],
            fuzz_updates_per_write=sizes["fuzz_updates_per_write"],
            workload_entries=sizes["workload_entries"],
            seed=campaign_seed,
            run_trivial=False,
        )
        self.fuzzer_config = FuzzerConfig(
            num_writes=sizes["fuzz_writes"],
            updates_per_write=sizes["fuzz_updates_per_write"],
            seed=campaign_seed,
        )
        # One fault-free control per stack, through the same validate().
        self.controls = []
        for stack_kind in dict.fromkeys(stack for stack, _fault in self.faults):
            with self.tracer.span("p4.build"):
                program = STACK_PROGRAMS[stack_kind]()
                p4info = build_p4info(program)
            with self.tracer.span("workloads.entries"):
                entries = production_like_entries(
                    p4info, total=sizes["workload_entries"], seed=campaign_seed
                )
            harness = SwitchVHarness(program, PinsSwitchStack(program))
            self.controls.append((stack_kind, harness, entries))

    def run(self) -> None:
        self.outcomes = []
        self.campaign_s = []
        for stack_kind, fault in self.faults:
            start = perf_counter()
            with self.tracer.span("switchv.run_fault_campaign"):
                outcome = run_fault_campaign(fault, stack_kind, self.config)
            self.campaign_s.append(perf_counter() - start)
            self.outcomes.append(outcome)
        self.control_reports = []
        for _stack_kind, harness, entries in self.controls:
            with self.tracer.span("switchv.validate"):
                self.control_reports.append(harness.validate(entries, self.fuzzer_config))

    def finish(self) -> Outcome:
        out = Outcome()
        out.attempted = len(self.outcomes) + len(self.control_reports)
        missed = [o.fault.name for o in self.outcomes if not o.detected]
        out.fail(len(missed), "seeded fault missed: " + ",".join(missed))
        out.fail(sum(1 for r in self.control_reports if r.incidents.count),
                 "fault-free control with incidents")
        verdicts = hashlib.sha256()
        for outcome in self.outcomes:
            verdicts.update(
                repr((outcome.fault.name, outcome.detected_by, outcome.incident_count)).encode()
            )
        out.digests["verdicts"] = verdicts.hexdigest()
        out.metrics.update(
            {
                "switchv.fault_p50_s": statistics.median(self.campaign_s),
                "switchv.detected_by_fuzzer": sum(
                    1 for o in self.outcomes if "p4-fuzzer" in o.detected_by
                ),
                "switchv.detected_by_symbolic": sum(
                    1 for o in self.outcomes if "p4-symbolic" in o.detected_by
                ),
                "switchv.incidents": sum(o.incident_count for o in self.outcomes),
            }
        )
        out.detail["per_fault"] = [
            {"fault": o.fault.name, "component": o.fault.component,
             "detected_by": o.detected_by, "incidents": o.incident_count,
             "seconds": s}
            for o, s in zip(self.outcomes, self.campaign_s, strict=True)
        ]
        return out


REGISTRY = {
    "symbolic_cold": SymbolicCold,
    "symbolic_churn": SymbolicChurn,
    "fuzz_control": FuzzControl,
    "state_25k": StateScale,
    "bug_hunt": BugHunt,
}
