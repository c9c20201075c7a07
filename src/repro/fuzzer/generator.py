"""Valid request generation (§4.1).

The generator analyses the P4Info catalogue — table types, match kinds and
widths, permitted actions, @refers_to edges — and produces control-plane
updates that "violate no obvious rules in the P4Runtime specification":
values fit their declared bit sizes, actions come from the table's
permitted set, selector tables get weighted one-shot action sets, and
referring fields pick values exported by entries the fuzzer believes are
installed.

Constraint compliance is *not* enforced by default, matching the paper
("we currently do not enforce constraint compliance, and thus frequently
generate invalid requests for tables with constraints"); the
constraint-aware mode sketched in §7 is available via
``constraint_aware=True`` and is exercised by the ablation benchmarks.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fuzzer.oracle import GeneratorState
from repro.p4.ast import MatchKind
from repro.p4.constraints import parse_constraint
from repro.p4.constraints.lang import ConstraintSyntaxError
from repro.p4.constraints.refs import ReferenceGraph
from repro.p4.constraints.symbolic import SymbolicKeySet, encode_constraint
from repro.p4.p4info import P4Info, TableInfo
from repro.p4rt import codec
from repro.p4rt.messages import (
    ActionInvocation,
    ActionProfileAction,
    ActionProfileActionSet,
    FieldMatch,
    TableEntry,
    Update,
    UpdateType,
)
from repro.smt import Solver
from repro.smt import terms as T
from repro.smt.minmodel import minimal_assignment
from repro.smt.pool import SolverPool


# Heuristics for parameters that denote switch resources rather than
# arbitrary bit patterns.  The fuzzer's Invalid-Resource mutation perturbs
# exactly these.
PORT_PARAM_NAMES = ("port",)


class RequestGenerator:
    """Generates syntactically valid updates for a P4Info catalogue."""

    def __init__(
        self,
        p4info: P4Info,
        rng: random.Random,
        valid_ports: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
        constraint_aware: bool = False,
        solver_pool: Optional[SolverPool] = None,
    ) -> None:
        self.p4info = p4info
        self.rng = rng
        self.valid_ports = tuple(valid_ports)
        # A SolverPool supplies only its memo of sampled constraint models,
        # so a later campaign on the same pool skips the solve.  Per-table
        # constraint solvers are this generator's own; each outlives a
        # single sampling round, since model blocking happens through
        # check() assumptions, never permanent assertions.
        self._pool = solver_pool
        # table.id -> (solver, constraint terms).  The constraints ride
        # along because canonical model extraction must see them as
        # assumptions (see repro.smt.minmodel's caveat).
        self._constraint_solvers: Dict[int, Tuple[Solver, Tuple[T.Term, ...]]] = {}
        self.refs = ReferenceGraph(p4info)
        # The installed-state view: anything with ``entries``, ``available``,
        # ``victims`` and ``known_victims`` (P4Fuzzer substitutes its oracle).
        self.state = GeneratorState(p4info)
        # Derived from the view, rebuilt only when what they read changes:
        # (target table, keys) -> (the keysets() tuple read, value rows), and
        # (AvailableState, its version, the satisfiable table pool).
        self._referenced: Dict[Tuple, Tuple[Tuple, List[Tuple[int, ...]]]] = {}
        self._table_pool: Tuple = (None, 0, [])
        # action name -> [(target table, params, target keys)], one per
        # reference group, most-constrained first.
        self._reference_plans = {
            action.name: [
                (table, *zip(*pairs))
                for table, pairs in sorted(
                    self.refs.action_reference_groups(action.name).items(),
                    key=lambda group: -len(group[1]),
                )
            ]
            for action in p4info.actions.values()
        }
        self.constraint_aware = constraint_aware
        self._constraints = {}
        for tid, table in p4info.tables.items():
            if table.entry_restriction:
                try:
                    self._constraints[tid] = parse_constraint(table.entry_restriction)
                except ConstraintSyntaxError:
                    pass
        self._constraint_models: Dict[int, List[Dict[str, int]]] = {}

    # ------------------------------------------------------------------
    # Update generation
    # ------------------------------------------------------------------
    def generate_update(self) -> Optional[Update]:
        """One valid update: mostly inserts, sometimes modify/delete."""
        roll = self.rng.random()
        if roll < 0.75 or not self.state.entries:
            return self.generate_insert()
        if roll < 0.87:
            return self.generate_modify()
        return self.generate_delete()

    def generate_insert(self, table_id: Optional[int] = None) -> Optional[Update]:
        table = self._pick_table(table_id)
        if table is None:
            return None
        entry = self.generate_entry(table)
        if entry is None:
            return None
        return Update(UpdateType.INSERT, entry)

    def generate_modify(self) -> Optional[Update]:
        candidates = self.state.known_victims
        if not candidates:
            return None
        existing = self.rng.choice(candidates)
        table = self.p4info.tables[existing.table_id]
        action = self._generate_action(table)
        if action is None:
            return None
        return Update(
            UpdateType.MODIFY,
            TableEntry(
                table_id=existing.table_id,
                matches=existing.matches,
                action=action,
                priority=existing.priority,
            ),
        )

    def generate_delete(self) -> Optional[Update]:
        candidates = self.state.victims
        if not candidates:
            return None
        # Prefer deleting entries nothing else references, so valid deletes
        # mostly succeed; deleting referenced entries is also valid (the
        # switch must reject it cleanly) and is kept at low probability.
        existing = self.rng.choice(candidates)
        return Update(UpdateType.DELETE, existing)

    # ------------------------------------------------------------------
    # Entry generation
    # ------------------------------------------------------------------
    def generate_entry(self, table: TableInfo) -> Optional[TableEntry]:
        matches = []
        if self.constraint_aware and table.id in self._constraints:
            key_plan = self._constraint_compliant_keys(table)
            if key_plan is None:
                return None
        else:
            key_plan = None
        for mf in table.match_fields:
            match = self._generate_match(table, mf, key_plan)
            if match is ...:  # unable to satisfy a reference
                return None
            if match is not None:
                matches.append(match)
        action = self._generate_action(table)
        if action is None:
            return None
        priority = self.rng.randint(1, 64) if table.requires_priority else 0
        return TableEntry(
            table_id=table.id,
            matches=tuple(matches),
            action=action,
            priority=priority,
        )

    def _pick_table(self, table_id: Optional[int]) -> Optional[TableInfo]:
        if table_id is not None:
            return self.p4info.tables.get(table_id)
        if not self.p4info.tables:
            return None
        # Weight towards tables whose references are satisfiable right now:
        # a pool that changes only on an AvailableState 0<->1 transition.
        available = self.state.available
        if self._table_pool[0] is not available or self._table_pool[1] != available.version:
            tables = list(self.p4info.tables.values())
            pool = [t for t in tables if self._references_satisfiable(t)] or tables
            self._table_pool = (available, available.version, pool)
        return self.rng.choice(self._table_pool[2])

    def _references_satisfiable(self, table: TableInfo) -> bool:
        available = self.state.available
        return all(
            available.provides_keys(*demand) for demand in self.refs.demanded_keys[table.name]
        )

    def _referenced_values(self, target_table: str, *keys: str) -> List[Tuple[int, ...]]:
        """The values of ``keys`` in each available keyset of the table that
        carries them all, in ``keysets()`` order.  Rebuilt only when that
        tuple is replaced, i.e. after a 0<->1 transition in the table."""
        keysets = self.state.available.keysets(target_table)
        read, rows = self._referenced.get((target_table, keys), (None, None))
        if read is not keysets:
            rows = [
                tuple(values[key] for key in keys)
                for values in map(dict, keysets)
                if all(key in values for key in keys)
            ]
            self._referenced[target_table, keys] = (keysets, rows)
        return rows

    def _random_value(self, bitwidth: int) -> int:
        # Bias towards small values and boundary patterns, which exercise
        # canonical encoding and reserved-value handling.
        roll = self.rng.random()
        if roll < 0.4:
            return self.rng.randint(0, min(15, (1 << bitwidth) - 1))
        if roll < 0.5:
            return (1 << bitwidth) - 1
        return self.rng.getrandbits(bitwidth)

    def _generate_match(self, table: TableInfo, mf, key_plan) -> Optional[FieldMatch]:
        target = self.refs.edges.get((table.name, mf.name))
        if key_plan is not None and mf.name in key_plan:
            planned = key_plan[mf.name]
            if planned is None:
                return None  # key omitted (wildcard)
            value, mask, prefix_len = planned
            return self._emit_match(mf, value, mask, prefix_len)
        if target is not None:
            values = self._referenced_values(*target)
            if not values:
                return ...  # sentinel: cannot satisfy the reference
            (value,) = self.rng.choice(values)
            return FieldMatch(mf.id, "exact", codec.encode(value, mf.bitwidth))
        if mf.match_type is MatchKind.EXACT:
            return FieldMatch(
                mf.id, "exact", codec.encode(self._random_value(mf.bitwidth), mf.bitwidth)
            )
        if mf.match_type is MatchKind.LPM:
            if self.rng.random() < 0.15:
                return None  # wildcard: omit
            prefix_len = self.rng.randint(1, mf.bitwidth)
            mask = codec.mask_for_prefix(prefix_len, mf.bitwidth)
            value = self._random_value(mf.bitwidth) & mask
            return FieldMatch(
                mf.id, "lpm", codec.encode(value, mf.bitwidth), prefix_len=prefix_len
            )
        if mf.match_type is MatchKind.TERNARY:
            if self.rng.random() < 0.3:
                return None  # wildcard: omit
            mask = (
                (1 << mf.bitwidth) - 1
                if self.rng.random() < 0.5
                else self.rng.getrandbits(mf.bitwidth) or 1
            )
            value = self._random_value(mf.bitwidth) & mask
            return FieldMatch(
                mf.id,
                "ternary",
                codec.encode(value, mf.bitwidth),
                mask=codec.encode(mask, mf.bitwidth),
            )
        # OPTIONAL
        if self.rng.random() < 0.4:
            return None
        return FieldMatch(
            mf.id, "optional", codec.encode(self._random_value(mf.bitwidth), mf.bitwidth)
        )

    def _emit_match(self, mf, value: int, mask: int, prefix_len: int) -> Optional[FieldMatch]:
        if mf.match_type is MatchKind.EXACT:
            return FieldMatch(mf.id, "exact", codec.encode(value, mf.bitwidth))
        if mf.match_type is MatchKind.LPM:
            if prefix_len == 0:
                return None
            return FieldMatch(
                mf.id, "lpm", codec.encode(value, mf.bitwidth), prefix_len=prefix_len
            )
        if mf.match_type is MatchKind.TERNARY:
            if mask == 0:
                return None
            return FieldMatch(
                mf.id,
                "ternary",
                codec.encode(value, mf.bitwidth),
                mask=codec.encode(mask, mf.bitwidth),
            )
        if mask == 0:
            return None
        return FieldMatch(mf.id, "optional", codec.encode(value, mf.bitwidth))

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def _generate_action(self, table: TableInfo):
        if not table.action_ids:
            return None
        if table.implementation_id:
            members = []
            for _ in range(self.rng.randint(1, 4)):
                inv = self._generate_invocation(table)
                if inv is None:
                    return None
                members.append(
                    ActionProfileAction(action=inv, weight=self.rng.randint(1, 8))
                )
            return ActionProfileActionSet(actions=tuple(members))
        return self._generate_invocation(table)

    def _generate_invocation(self, table: TableInfo) -> Optional[ActionInvocation]:
        action = self.p4info.actions[self.rng.choice(list(table.action_ids))]
        assigned = self._plan_reference_params(action)
        if assigned is None:
            return None
        params: List[Tuple[int, bytes]] = []
        for p in action.params:
            if p.name in assigned:
                value = assigned[p.name]
            elif p.name in PORT_PARAM_NAMES:
                value = self.rng.choice(self.valid_ports)
            else:
                value = self._random_value(p.bitwidth)
            params.append((p.id, codec.encode(value, p.bitwidth)))
        return ActionInvocation(action_id=action.id, params=tuple(params))

    def _plan_reference_params(self, action) -> Optional[Dict[str, int]]:
        """Choose values for referring parameters, keyset-consistently.

        Composite references demand that all parameters referring to the
        same table jointly name one of its entries, so the planner picks a
        concrete installed keyset per group (most-constrained group first)
        and keeps later groups consistent with already-assigned parameters.
        Returns None when some group cannot be satisfied.
        """
        assigned: Dict[str, int] = {}
        for target_table, params, keys in self._reference_plans[action.name]:
            candidates = self._referenced_values(target_table, *keys)
            if not assigned.keys().isdisjoint(params):
                candidates = [
                    values
                    for values in candidates
                    if all(assigned.get(p, value) == value for p, value in zip(params, values))
                ]
            if not candidates:
                return None
            assigned.update(zip(params, self.rng.choice(candidates)))
        return assigned

    # ------------------------------------------------------------------
    # Constraint-aware key planning (§7 extension, SMT-backed)
    # ------------------------------------------------------------------
    def _constraint_compliant_keys(
        self, table: TableInfo
    ) -> Optional[Dict[str, Optional[Tuple[int, int, int]]]]:
        """Sample a model of the table's constraint + well-formedness.

        Returns key name -> (value, mask, prefix_len), or None for an
        omitted key.  Models are cached and perturbed cheaply; a fresh SMT
        solve only happens when the cache is cold.
        """
        cached = self._constraint_models.get(table.id)
        if not cached and self._pool is not None:
            # Models sampled by an earlier campaign sharing this pool.
            # Reused verbatim so the request stream matches what a cold
            # generator would produce (the first computation always runs
            # against a cold solver, and sampling from the models is
            # seeded by the campaign's own rng).
            cached = self._pool.memo.get(
                ("fuzzer-models", self.p4info.program_name, table.name)
            )
            if cached:
                self._constraint_models[table.id] = cached
        if not cached:
            keys = SymbolicKeySet(table)
            entry = self._constraint_solvers.get(table.id)
            if entry is None:
                constraints = (
                    keys.wellformedness(),
                    encode_constraint(self._constraints[table.id], keys),
                )
                solver = Solver()
                solver.add(*constraints)
                entry = (solver, constraints)
                self._constraint_solvers[table.id] = entry
            solver, constraints = entry
            variables = {}
            for mf in table.match_fields:
                for var in (
                    keys.value_vars[mf.name],
                    keys.mask_vars[mf.name],
                    keys.prefix_vars[mf.name],
                ):
                    variables[var.name] = var
            models: List[Dict[str, int]] = []
            # Collect a few diverse models by blocking previous ones.  The
            # blockers ride along as check() assumptions rather than
            # permanent assertions, so the cached solver still encodes
            # exactly wellformedness ∧ constraint afterwards and stays
            # reusable.  Each model is the *lexicographically minimal* one
            # under the current blockers — a pure function of the
            # constraint terms, so the pool's memo cannot change the
            # request stream (the constraints are passed as assumptions
            # because minmodel's evaluator fast path only sees assumptions).
            blocks: List[T.Term] = []
            for _ in range(4):
                model = minimal_assignment(
                    solver, [*constraints, *blocks], variables
                )
                if model is None:
                    break
                models.append(model)
                # Block this exact assignment of the value variables.
                blockers = []
                for mf in table.match_fields:
                    var = keys.value_vars[mf.name]
                    blockers.append(var.ne(model.get(var.name, 0)))
                if blockers:
                    blocks.append(T.or_(*blockers))
                else:
                    break
            if not models:
                return None
            self._constraint_models[table.id] = models
            if self._pool is not None:
                self._pool.memo[
                    ("fuzzer-models", self.p4info.program_name, table.name)
                ] = models
            cached = models
        model = self.rng.choice(cached)
        plan: Dict[str, Optional[Tuple[int, int, int]]] = {}
        for mf in table.match_fields:
            base = f"{table.name}.{mf.name}"
            value = model.get(f"{base}::value", 0)
            mask = model.get(f"{base}::mask", 0)
            prefix_len = model.get(f"{base}::prefix_length", 0)
            plan[mf.name] = (
                None
                if mf.match_type is not MatchKind.EXACT and mask == 0
                else (value, mask, prefix_len)
            )
        return plan
