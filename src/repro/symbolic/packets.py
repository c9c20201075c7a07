"""Concrete test-packet extraction.

Builds one QF_BV solver per parser profile (profile constraints asserted
once), then discharges every coverage goal as an *assumption* query against
the appropriate solver — the incremental usage pattern the SMT layer is
designed for.  A satisfying model is turned into a concrete packet: pinned
parser fields take their pinned values, solved fields take model values,
everything else takes a background value.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.bmv2.entries import InstalledEntry
from repro.bmv2.packet import Packet
from repro.p4.ast import P4Program
from repro.smt import Result, Solver
from repro.smt import terms as T
from repro.smt.compile import CompiledTerm, compile_term
from repro.smt.minmodel import descend_bits
from repro.smt.pool import MISS, SolverPool
from repro.symbolic.coverage import CoverageGoal, CoverageMode, goals_for_mode
from repro.symbolic.executor import ProfileExecution, SymbolicExecutor


@dataclass
class GeneratedPacket:
    """A concrete test packet witnessing one coverage goal."""

    goal: str
    profile: str
    packet: Packet
    ingress_port: int

    def __repr__(self) -> str:
        return f"GeneratedPacket({self.goal}, {self.profile}, port {self.ingress_port})"


@dataclass
class GenerationStats:
    goals_total: int = 0
    goals_covered: int = 0
    goals_unsatisfiable: int = 0
    solver_queries: int = 0
    elapsed_seconds: float = 0.0
    cache_hit: bool = False
    # Per-goal cache: how many goals were answered without any solving.
    goals_from_cache: int = 0
    # Coverage subsumption: goals an already-generated packet of the same
    # profile happened to satisfy (checked by concrete evaluation), covered
    # without touching the solver.
    goals_subsumed: int = 0
    # Canonicalisation: extra assumption checks spent pinning witness
    # packets to solver-history-independent values (what makes warm-pool
    # and cold runs byte-identical).
    canonical_checks: int = 0
    # Attempt formulas answered by the SolverPool's solved-formula memo
    # (unchanged since a previous table state) without any SAT work.
    pool_hits: int = 0
    # Aggregate SAT-solver effort behind the queries, summed across every
    # per-profile solver — the numbers that make benchmark regressions
    # attributable to the solver rather than to orchestration overhead.
    sat_conflicts: int = 0
    sat_decisions: int = 0
    sat_propagations: int = 0
    # CNF economy: SAT variables allocated, clauses received by the kernel,
    # and gate lookups answered by the structural encoder's cache instead
    # of fresh variables+clauses — the clause-economy counters that let
    # benchmark tables attribute speedups to the encoding, not wall-clock
    # noise.  Deltas over this generator's own work, like the effort above.
    cnf_vars: int = 0
    cnf_clauses: int = 0
    gates_shared: int = 0


@dataclass
class GenerationResult:
    packets: List[GeneratedPacket]
    uncovered: List[str]
    stats: GenerationStats


class PacketGenerator:
    """Drives symbolic execution and goal solving for one table state."""

    def __init__(
        self,
        program: P4Program,
        state: Mapping[str, Sequence[InstalledEntry]],
        valid_ports: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
        solver_pool: Optional[SolverPool] = None,
    ) -> None:
        self.program = program
        self.state = state
        self.valid_ports = tuple(valid_ports)
        # A SolverPool supplies only its solved-formula memo: across table
        # states, an attempt whose formula is the same hash-consed term is
        # answered without solving.  The per-profile solvers live for this
        # table state alone — a solver carried across states accumulates
        # every earlier state's encoding, and CDCL re-assigns all of it on
        # every check (see repro.smt.pool).
        self._pool = solver_pool
        self._executions: Optional[List[ProfileExecution]] = None
        self._solvers: Dict[str, Solver] = {}
        # SAT-effort counters of each solver once its profile constraints
        # are asserted: stats report only the work the goals caused.
        self._effort_base: Dict[str, tuple] = {}
        self._constraint_digests: Dict[str, str] = {}
        # Soft-dst refinements memoised per (profile, constrained-variable-
        # set) — goals over the same table constrain the same variables.
        self._refinement_cache: Dict[tuple, T.Term] = {}
        # Subsumption: one evaluation program per parser profile, holding
        # every goal condition asked about as a root, and per packet object
        # (keyed by identity; the entry holds the packet, so its id cannot be
        # reused) the assignment it induces and the root values under it.
        self._programs: Dict[str, CompiledTerm] = defaultdict(CompiledTerm)
        self._packet_memo: Dict[int, list] = {}

    # ------------------------------------------------------------------
    def executions(self) -> List[ProfileExecution]:
        if self._executions is None:
            executor = SymbolicExecutor(self.program, self.state, self.valid_ports)
            self._executions = executor.execute()
        return self._executions

    def _solver_for(self, execution: ProfileExecution) -> Solver:
        name = execution.profile.name
        solver = self._solvers.get(name)
        if solver is None:
            # Trace/output terms were already simplified by the executor;
            # re-simplifying every (large) goal assumption inside the solver
            # costs more than it saves.
            solver = Solver(simplify_terms=False)
            for constraint in execution.constraints:
                solver.add(constraint)
            self._solvers[name] = solver
            s = solver.stats
            self._effort_base[name] = (
                s["conflicts"], s["decisions"], s["propagations"],
                s["sat_vars"], s["cnf_clauses"], s["gates_shared"],
            )
        return solver

    # ------------------------------------------------------------------
    def generate(
        self,
        mode: CoverageMode = CoverageMode.ENTRY,
        custom_goals: Sequence[CoverageGoal] = (),
        goal_cache=None,
    ) -> GenerationResult:
        """Produce one packet per satisfiable coverage goal.

        ``goal_cache`` (a :class:`repro.symbolic.cache.PacketCache`) enables
        per-goal memoisation: goals whose solved formula is unchanged since
        a prior run are answered without touching the solver.
        """
        from repro.symbolic.cache import CachedGoal  # imports this module

        start = time.perf_counter()
        stats = GenerationStats()
        self._packet_memo.clear()  # a previous run's packets: memory only
        executions = self.executions()
        goals = goals_for_mode(executions, mode, custom_goals)
        stats.goals_total = len(goals)
        self.register_goals(goals, executions)
        effort_before = self._solver_effort()
        packets: List[GeneratedPacket] = []
        uncovered: List[str] = []
        for index, goal in enumerate(goals):
            key = self._goal_cache_key(goal, executions) if goal_cache is not None else None
            if key is not None:
                hit = goal_cache.lookup_goal(key)
                if hit is not None:
                    stats.goals_from_cache += 1
                    if hit.packet is not None:
                        packets.append(hit.packet)
                        stats.goals_covered += 1
                    else:
                        uncovered.append(goal.name)
                        stats.goals_unsatisfiable += 1
                    continue
            generated = self.subsume_goal(goal, executions, packets)
            if generated is not None:
                stats.goals_subsumed += 1
                packets.append(generated)
                stats.goals_covered += 1
                if key is not None:
                    goal_cache.store_goal(
                        key, CachedGoal(goal=goal.name, packet=generated)
                    )
                continue
            generated = self._solve_goal(goal, executions, stats, index)
            if generated is not None:
                packets.append(generated)
                stats.goals_covered += 1
            else:
                uncovered.append(goal.name)
                stats.goals_unsatisfiable += 1
            if key is not None:
                goal_cache.store_goal(key, CachedGoal(goal=goal.name, packet=generated))
        self._account_effort(stats, effort_before)
        stats.elapsed_seconds = time.perf_counter() - start
        return GenerationResult(packets=packets, uncovered=uncovered, stats=stats)

    # ------------------------------------------------------------------
    def _solver_effort(self) -> tuple:
        """Cumulative (conflicts, decisions, propagations, sat vars, cnf
        clauses, gates shared) over all solvers.

        Measured relative to each solver's counters once its profile
        constraints are asserted, so only goal work is counted.
        """
        totals = [0] * 6
        for name, solver in self._solvers.items():
            s = solver.stats
            base = self._effort_base[name]
            for i, key in enumerate(
                ("conflicts", "decisions", "propagations",
                 "sat_vars", "cnf_clauses", "gates_shared")
            ):
                totals[i] += s[key] - base[i]
        return tuple(totals)

    def _account_effort(self, stats: GenerationStats, before: tuple) -> None:
        after = self._solver_effort()
        stats.sat_conflicts += after[0] - before[0]
        stats.sat_decisions += after[1] - before[1]
        stats.sat_propagations += after[2] - before[2]
        stats.cnf_vars += after[3] - before[3]
        stats.cnf_clauses += after[4] - before[4]
        stats.gates_shared += after[5] - before[5]

    def _goal_cache_key(self, goal: CoverageGoal, executions) -> str:
        """A digest of the goal's *solved formula*, not the whole run.

        Covers exactly what determines this goal's packet: the goal
        condition and the profile constraints, per profile, as materialised
        by the symbolic executor.  An edited table entry changes the
        conditions that structurally mention it (same-table priority
        negations, downstream matches on metadata it sets) and leaves every
        other goal's digest — and cached packet — intact.
        """
        h = hashlib.sha256()
        h.update(self.program.name.encode())
        h.update(repr(self.valid_ports).encode())
        h.update(goal.name.encode())
        for execution in executions:
            h.update(execution.profile.name.encode())
            h.update(self._constraints_digest(execution).encode())
            condition = goal.condition(execution)
            if condition is None:
                h.update(b"-")
            else:
                h.update(T.term_digest(condition).encode())
        return h.hexdigest()

    def _constraints_digest(self, execution) -> str:
        digest = self._constraint_digests.get(execution.profile.name)
        if digest is None:
            h = hashlib.sha256()
            for constraint in execution.constraints:
                h.update(T.term_digest(constraint).encode())
            digest = h.hexdigest()
            self._constraint_digests[execution.profile.name] = digest
        return digest

    def _solve_goal(
        self,
        goal: CoverageGoal,
        executions: Sequence[ProfileExecution],
        stats: GenerationStats,
        index: int = 0,
    ) -> Optional[GeneratedPacket]:
        # Diversify ingress ports across goals: solvers otherwise settle on
        # one habitual port, leaving port-qualified behaviour untested.
        preferred_port = self.valid_ports[index % len(self.valid_ports)]
        for execution in executions:
            condition = goal.condition(execution)
            if condition is None or condition is T.FALSE:
                continue
            solver = self._solver_for(execution)
            port_term = execution.inputs["standard.ingress_port"]
            # Soft preference: place the destination inside the common route
            # space even when the goal constrains it loosely (e.g. an ACL
            # guard's negations) — divergences on *forwarded* packets are
            # observable, dropped ones often are not.
            soft_dst = self._refinements(execution, condition)
            # Every check prefers the canonical witness's first choices, so
            # the witness can usually be read off the model.
            prefer = self._first_choices(execution, condition)
            # Each attempt lists what it shares with the next one first: the
            # SAT kernel keeps the propagated levels of a common assumption
            # prefix from one check to the next.  Fields no formula mentions
            # are not asked about: the packet takes their background values.
            attempts = [
                # Canonical forwarding context: the first valid port (whose
                # VRF owns the background route space) plus a routable
                # destination — maximises the observability of divergences.
                (condition, port_term.eq(self.valid_ports[0]), soft_dst),
                # Same context for goals that pin the destination themselves.
                (condition, port_term.eq(self.valid_ports[0])),
                # Port rotation for port-qualified behaviour.
                (condition, port_term.eq(preferred_port)),
                (condition,),
            ]
            refuted: List[tuple] = []  # assumption prefixes proved UNSAT
            for assumptions in attempts:
                # The solved formula (constraints ∧ assumptions) fully
                # determines both the SAT verdict and the canonical witness,
                # so the pool memoises outcomes by formula identity: across
                # table states, every attempt whose formula is unchanged —
                # the same hash-consed term — is answered here, and only
                # edit-affected formulas reach this state's solver.
                key = None
                if self._pool is not None:
                    formula = T.and_(*execution.constraints, *assumptions)
                    key = (self.program.name, formula)
                    cached = self._pool.lookup_formula(key)
                    if cached is not MISS:
                        stats.pool_hits += 1
                        if cached is None:
                            continue  # memoised UNSAT for this attempt
                        return self._packet_from_model(goal, execution, cached)
                if not any(assumptions[: len(p)] == p for p in refuted):
                    stats.solver_queries += 1
                    if solver.check(*assumptions, prefer=prefer) is Result.SAT:
                        witness = self._canonical_witness(
                            solver, execution, assumptions, prefer, stats
                        )
                        if key is not None:
                            self._pool.store_formula(key, witness)
                        return self._packet_from_model(goal, execution, witness)
                    # The attempt is UNSAT through its failed assumption, and
                    # so is every later one that starts the same way.
                    if solver.failed_assumption is not None:
                        refuted.append(
                            assumptions[: assumptions.index(solver.failed_assumption) + 1]
                        )
                if key is not None:
                    self._pool.store_formula(key, None)
        return None

    # ------------------------------------------------------------------
    # Canonical witness extraction
    # ------------------------------------------------------------------
    # A CDCL model is an accident of solver history: phase saving, learned
    # clauses, and activity orders all feed into which satisfying assignment
    # comes out, so a solver that answered other goals first would emit
    # different — equally valid — packets than a solver that did not, and
    # a memoised witness would differ from a fresh one.
    # To keep results byte-identical across solver histories, the model is
    # never used directly.  Instead, every input variable the solved
    # formula mentions is pinned to the first value in a history-independent
    # candidate order
    # (structural pin from the assumptions, hint mined from masked-equality
    # conjuncts, background value, zero, then per-bit descent) that keeps
    # the formula satisfiable.  "Keeps satisfiable" is decided by the
    # solver's SAT/UNSAT verdict — which is model-independent — with a
    # compiled-evaluation fast path: if completing the candidate with the
    # current model already satisfies the formula concretely, it is a
    # witness and the solver call is skipped (the verdict would have been
    # SAT either way, so the shortcut never changes the outcome).  The
    # check that found the model preferred every first choice, and a model
    # that took them all is read off with no compilation at all.

    def _canonical_witness(
        self, solver: Solver, execution: ProfileExecution, assumptions, prefer, stats
    ) -> Dict[str, int]:
        inputs_by_name = self._inputs_by_name(execution)
        pinned, hints = self._structural_pins(assumptions, inputs_by_name)
        witness: Dict[str, int] = {
            name: value for name, value in pinned.items() if name in inputs_by_name
        }
        # The targets — every input the formula mentions that the
        # assumptions leave open, in name order — with their first choices.
        first_choice = {name: value for name, value in prefer.items() if name not in pinned}
        if self._took_first_choices(solver.model(first_choice), first_choice):
            witness.update(first_choice)  # what the batched fast path accepts
            return witness
        compiled = compile_term(T.and_(*execution.constraints, *assumptions))
        # The current model is one valid completion of any prefix we have
        # pinned so far; it seeds the concrete fast path only.
        model = dict(solver.model(compiled.variables | set(inputs_by_name)))
        # Batched fast path: if every target's *first-choice* candidate is
        # jointly satisfiable, the sequential loop below would accept each
        # first choice too (every prefix of a jointly-SAT pin set stays
        # SAT), so the whole witness resolves in one evaluation or one
        # solver check.  First choices are pure functions of the formula
        # and the background table — determinism is unaffected; a joint
        # UNSAT just falls through to the per-variable loop.
        if compiled.evaluate({**model, **witness, **first_choice}):
            witness.update(first_choice)
            return witness
        stats.canonical_checks += 1
        batch = [inputs_by_name[name][1].eq(value) for name, value in first_choice.items()]
        if solver.check(*assumptions, *batch) is Result.SAT:
            witness.update(first_choice)
            return witness
        fixed: List[T.Term] = []
        for name in first_choice:
            path, term = inputs_by_name[name]
            background = self._background(path, term.width)
            # The MSB-flipped background serves goals that *exclude* the
            # background space (route misses, ACL negations): it leaves
            # every prefix the background belongs to while keeping the
            # low bits recognisable, and costs one check instead of a
            # per-bit descent.
            far = background ^ (1 << (term.width - 1))
            candidates = dict.fromkeys((*hints.get(name, ()), background, far, 0))
            chosen = None
            for value in candidates:
                trial = {**model, **witness, name: value}
                if compiled.evaluate(trial):
                    chosen = value
                    break
                stats.canonical_checks += 1
                if solver.check(*assumptions, *fixed, term.eq(value)) is Result.SAT:
                    chosen = value
                    # Refresh the completion seed: the new model satisfies
                    # everything fixed so far, keeping the fast path alive.
                    model = dict(solver.model(compiled.variables | set(inputs_by_name)))
                    break
            if chosen is None:
                # Deterministic last resort; every candidate above,
                # the background included, was just rejected.
                chosen, checks = descend_bits(
                    solver, [*assumptions, *fixed], term, background
                )
                stats.canonical_checks += checks
            witness[name] = chosen
            fixed.append(term.eq(chosen))
        return witness

    def _structural_pins(self, assumptions, inputs_by_name) -> tuple:
        """(pins, hints) mined from the assumption conjuncts.

        Pins are exact ``var == const`` conjuncts (port and destination
        preferences, exact-match goal fields): they hold in every model
        of the assumption set, so they are adopted without any solver
        query.  Hints come from masked equalities ``(var & mask) == const``
        (ternary/LPM matches): merging the required bits over the
        background value gives a strong first candidate.
        """
        pins: Dict[str, int] = {}
        hints: Dict[str, tuple] = {}
        for assumption in assumptions:
            conjuncts = (
                assumption.args if assumption.op == T.OP_AND else (assumption,)
            )
            for c in conjuncts:
                if c.op != T.OP_EQ:
                    continue
                lhs, rhs = c.args
                if not rhs.is_const:
                    lhs, rhs = rhs, lhs
                if not rhs.is_const:
                    continue
                if lhs.op == T.OP_VAR:
                    if lhs.payload in inputs_by_name:
                        pins.setdefault(lhs.payload, rhs.payload)
                    continue
                if lhs.op != T.OP_BVAND:
                    continue
                var, mask_term = lhs.args
                if not mask_term.is_const:
                    var, mask_term = mask_term, var
                if not (mask_term.is_const and var.op == T.OP_VAR):
                    continue
                name = var.payload
                entry = inputs_by_name.get(name)
                if entry is None:
                    continue
                path, term = entry
                background = self._background(path, term.width)
                hint = ((background & ~mask_term.payload) | rhs.payload) & ((1 << term.width) - 1)
                hints[name] = hints.get(name, ()) + (hint,)
        return pins, hints

    @staticmethod
    def _inputs_by_name(execution) -> Dict[str, tuple]:
        """The profile's symbolic inputs: variable name -> (path, term)."""
        return {
            term.name: (path, term) for path, term in execution.inputs.items() if not term.is_const
        }

    def _background(self, path: str, width: int) -> int:
        return self._BACKGROUND.get(path, 0) & ((1 << width) - 1)

    def _first_choices(self, execution, condition: T.Term) -> Dict[str, int]:
        """The canonical witness's first candidate — the first masked-equality
        hint, else the background value — for every input the profile
        constraints or the condition mention and the condition does not
        pin: the same for every attempt of the goal's cascade."""
        inputs_by_name = self._inputs_by_name(execution)
        pinned, hints = self._structural_pins((condition,), inputs_by_name)
        names = set(T.free_variables(condition)).union(
            *map(T.free_variables, execution.constraints)
        )
        return {
            name: hints[name][0] if name in hints else self._background(path, term.width)
            for name, (path, term) in sorted(inputs_by_name.items())
            if name in names and name not in pinned
        }

    @staticmethod
    def _took_first_choices(model, first_choice: Mapping[str, int]) -> bool:
        """Whether the model agrees with every first choice."""
        return all(model.get(name) == value for name, value in first_choice.items())

    def _refinements(self, execution, condition: T.Term) -> T.Term:
        """The soft-dst refinement: the destinations the goal constrains,
        pinned to their background values.

        It depends only on *which* variables the condition constrains, and
        goals over the same table constrain the same variable set, so it is
        built once per (profile, constrained-set).  Destinations the goal
        leaves free are in no formula: the packet gets their background
        values without asking the solver.
        """
        constrained = frozenset(T.free_variables(condition))
        key = (execution.profile.name, constrained)
        cached = self._refinement_cache.get(key)
        if cached is None:
            clauses = []
            for path in ("ipv4.dst_addr", "ipv6.dst_addr"):
                term = execution.inputs.get(path)
                if term is not None and not term.is_const and term.name in constrained:
                    clauses.append(term.eq(self._background(path, term.width)))
            cached = self._refinement_cache[key] = T.and_(*clauses) if clauses else T.TRUE
        return cached

    # ------------------------------------------------------------------
    # Coverage subsumption
    # ------------------------------------------------------------------
    def register_goals(
        self, goals: Sequence[CoverageGoal], executions: Sequence[ProfileExecution]
    ) -> None:
        """Compile every goal condition into its profile's program up front,
        so each packet is evaluated over the finished program once.  A
        condition first seen by :meth:`subsume_goal` still works: the program
        grows and the packets seen before are evaluated again."""
        for execution in executions:
            program = self._programs[execution.profile.name]
            for goal in goals:
                condition = goal.condition(execution)
                if condition is not None and condition is not T.FALSE:
                    program.add_root(condition)

    def subsume_goal(
        self,
        goal: CoverageGoal,
        executions: Sequence[ProfileExecution],
        packets: Sequence[GeneratedPacket],
    ) -> Optional[GeneratedPacket]:
        """A prior packet that already witnesses ``goal``, or None.

        Before paying a solver cascade, look up the goal condition's value
        under each already-generated packet of the same parser profile (the
        profile constraints hold for those by construction).  A hit covers
        the goal for free; the witness is re-labelled so downstream replay
        still attributes behaviour per goal.
        """
        for execution in executions:
            condition = goal.condition(execution)
            if condition is None or condition is T.FALSE:
                continue
            name = execution.profile.name
            program = self._programs[name]
            root = program.add_root(condition)
            for prior in packets:
                if prior.profile != name:
                    continue
                memo = self._packet_memo.get(id(prior.packet))
                if memo is None:
                    memo = [prior.packet, self._packet_assignment(prior, execution), ()]
                    self._packet_memo[id(prior.packet)] = memo
                _packet, assignment, values = memo
                if root >= len(values):
                    values = memo[2] = program.evaluate_roots(assignment)
                # A true slot is only a proof when every variable the
                # condition mentions has a value from the packet.
                if values[root] and T.free_variables(condition).keys() <= assignment.keys():
                    return GeneratedPacket(
                        goal=goal.name,
                        profile=prior.profile,
                        packet=prior.packet.copy(),
                        ingress_port=prior.ingress_port,
                    )
        return None

    @staticmethod
    def _packet_assignment(
        generated: GeneratedPacket, execution: ProfileExecution
    ) -> Dict[str, int]:
        """The variable assignment a generated packet induces."""
        assignment: Dict[str, int] = {}
        for path, term in execution.inputs.items():
            if term.is_const:
                continue
            if path == "standard.ingress_port":
                assignment[term.name] = generated.ingress_port
            elif path in generated.packet.fields:
                assignment[term.name] = generated.packet.fields[path]
        return assignment

    # ------------------------------------------------------------------
    # Background values for input fields the goal leaves unconstrained.
    # Any value satisfies the formula for such fields; realistic non-zero
    # defaults make test packets exercise behaviour the constraints do not
    # pin down (DSCP rewrites, ICMP field extraction, MTU handling) —
    # all-zero packets would mask entire bug classes.
    _BACKGROUND = {
        "ethernet.dst_addr": 0x02BB00000042,
        "ethernet.src_addr": 0x02AA00000017,
        "ipv4.version": 4,
        "ipv4.ihl": 5,
        "ipv4.dscp": 10,
        "ipv4.ttl": 64,
        "ipv4.src_addr": 0x0A090909,  # 10.9.9.9
        "ipv4.dst_addr": 0x0A010009,  # 10.1.0.9 — inside common route space
        "ipv6.version": 6,
        "ipv6.hop_limit": 64,
        "ipv6.src_addr": 0x20010DB8_00000000_00000000_00000009,
        "ipv6.dst_addr": 0x20010DB8_00000000_00000000_00000042,
        "icmp.type": 13,
        "icmp.code": 5,
        "tcp.src_port": 10000,
        "tcp.dst_port": 443,
        "udp.src_port": 10000,
        "udp.dst_port": 443,
    }
    # 96-byte payload: large enough that truncation bugs are observable.
    _PAYLOAD = (b"SwitchV!" * 12)[:96]

    def _packet_from_model(
        self, goal: CoverageGoal, execution: ProfileExecution, model
    ) -> GeneratedPacket:
        packet = Packet(payload=self._PAYLOAD)
        profile = execution.profile
        for path, term in execution.inputs.items():
            if path == "standard.ingress_port":
                continue
            if term.is_const:
                value = term.value
            elif term.name in model:
                value = model[term.name]
            else:
                # Unconstrained by every asserted formula: free to pick a
                # realistic background value.
                value = self._background(path, self.program.field_width(path))
            packet.fields[path] = value
        packet.valid_headers = set(profile.valid_headers)
        port_term = execution.inputs["standard.ingress_port"]
        ingress_port = model.get(port_term.name, self.valid_ports[0])
        if ingress_port not in self.valid_ports:
            ingress_port = self.valid_ports[0]
        return GeneratedPacket(
            goal=goal.name,
            profile=profile.name,
            packet=packet,
            ingress_port=ingress_port,
        )
