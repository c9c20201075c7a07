"""Full-chain guards: the executable spec of the executor's pruned ones.

:class:`repro.symbolic.executor.SymbolicExecutor` gives each table entry the
guard ``context ∧ match_i ∧ ¬match_j`` over only the higher-priority entries
``j`` whose match can overlap entry ``i``, found once per table.
:class:`FullChainExecutor` is the executor as it was before: every entry's
guard negates *every* higher-priority entry (the conjunction grows with each
entry, so a table's guards hold Θ(N²) literals), and each entry's match
reads the key from the state as the earlier entries' ``ite`` writes left it.
Every comparison with a constant (match keys, ``==``/``!=`` in ``if``
conditions) is the plain bit-level one of :meth:`FullChainExecutor._equals`,
not the production executor's case split over the guards that wrote a
table-written field.  A table applied under a dead (``FALSE``) context is
walked in full, though the executor skips it.  Slow on purpose; the tests
require every production guard to be the same Boolean function as the
guard built here, and the packets to be identical.
"""

from typing import Dict, List

from repro.bmv2.entries import InstalledEntry
from repro.p4.ast import MatchKind, Table
from repro.smt import terms as T
from repro.symbolic.executor import SymbolicExecutor, TraceKey
from repro.symbolic.profiles import ParserProfile


class FullChainExecutor(SymbolicExecutor):
    def _equals(self, term: T.Term, mask: int, value: int) -> T.Term:
        """``(term & mask) == value`` bit by bit, whoever wrote ``term``."""
        constant = T.bv_const(value, term.width)
        if mask == (1 << term.width) - 1:
            return term.eq(constant)
        return (term & T.bv_const(mask, term.width)).eq(constant)

    def _ordered_entries(self, table: Table) -> List[InstalledEntry]:
        entries = list(self.state.get(table.name, ()))
        if table.requires_priority:
            entries.sort(key=lambda e: -e.priority)
        else:
            lpm_keys = [k.key_name for k in table.keys if k.kind is MatchKind.LPM]
            if lpm_keys:
                key_name = lpm_keys[0]

                def prefix(e: InstalledEntry) -> int:
                    m = e.match(key_name)
                    return m.prefix_len if (m and m.present) else -1

                entries.sort(key=lambda e: -prefix(e))
        return entries

    @staticmethod
    def _full_match_condition(
        table: Table, entry: InstalledEntry, state: Dict[str, T.Term]
    ) -> T.Term:
        conjuncts: List[T.Term] = []
        for key in table.keys:
            m = entry.match(key.key_name)
            if m is None or not m.present:
                continue
            value = state[key.field.path]
            width = value.width
            if m.mask and m.mask != (1 << width) - 1:
                conjuncts.append(
                    (value & T.bv_const(m.mask, width)).eq(
                        T.bv_const(m.value & m.mask, width)
                    )
                )
            else:
                conjuncts.append(value.eq(T.bv_const(m.value, width)))
        return T.and_(*conjuncts) if conjuncts else T.TRUE

    def _apply_table(
        self,
        table: Table,
        state: Dict[str, T.Term],
        profile: ParserProfile,
        context: T.Term,
        trace: Dict[TraceKey, T.Term],
    ) -> None:
        fresh = self._fresh_counter
        no_higher_match = T.TRUE
        for entry in self._ordered_entries(table):
            match = self._full_match_condition(table, entry, state)
            guard = T.and_(context, no_higher_match, match)
            key: TraceKey = ("entry", table.name, entry.identity())
            trace[key] = T.or_(trace.get(key, T.FALSE), guard)
            self._execute_entry_action(table, entry, state, profile, guard)
            no_higher_match = T.and_(no_higher_match, T.not_(match))
        miss_guard = T.and_(context, no_higher_match)
        miss_key: TraceKey = ("miss", table.name)
        trace[miss_key] = T.or_(trace.get(miss_key, T.FALSE), miss_guard)
        self._execute_action_body(
            table.default_action.body, {}, state, profile, miss_guard
        )
        if context is T.FALSE:
            # Under a dead context every guard folds to FALSE, so the hash
            # and selector variables drawn here appear in no term: hand
            # their names back, as the executor never draws them.
            self._fresh_counter = fresh
