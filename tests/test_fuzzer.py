"""Tests for p4-fuzzer: generator, mutations, oracle, batching, campaigns."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bmv2.entries import EntryDecodeError, decode_table_entry
from repro.fuzzer import FuzzerConfig, P4Fuzzer, RequestGenerator
from repro.fuzzer.batching import make_batches, verify_batch_independence
from repro.fuzzer.generator import GeneratorState
from repro.fuzzer.mutations import (
    MUST_REJECT,
    MUTATION_NAMES,
    apply_mutation,
    apply_random_mutation,
)
from repro.fuzzer.oracle import Oracle
from repro.p4.constraints import parse_constraint
from repro.p4.constraints.evaluator import evaluate_constraint
from repro.p4rt import codec
from repro.p4rt.messages import Update, UpdateType, WriteRequest, WriteResponse
from repro.p4rt.status import Code, Status
from repro.switch import FaultRegistry, PinsSwitchStack, ReferenceSwitch
from repro.workloads import EntryBuilder, baseline_entries

E = codec.encode


def _classify(p4info, entry, is_delete=False):
    """Reference classification: None if valid, else the rejection reason."""
    try:
        decoded = decode_table_entry(p4info, entry)
    except EntryDecodeError as exc:
        return exc.reason
    table = p4info.tables[entry.table_id]
    if table.entry_restriction and not is_delete:
        expr = parse_constraint(table.entry_restriction)
        if not evaluate_constraint(expr, decoded.key_values()):
            return "constraint_violation"
    return None


class TestGenerator:
    def _generator(self, p4info, seed=1):
        return RequestGenerator(p4info, random.Random(seed))

    def test_generates_syntactically_valid_updates(self, tor_p4info):
        gen = self._generator(tor_p4info)
        produced = 0
        for _ in range(300):
            update = gen.generate_update()
            if update is None:
                continue
            produced += 1
            if update.type is UpdateType.DELETE:
                continue
            reason = _classify(tor_p4info, update.entry)
            # Constraint violations are expected (§4.1: compliance is not
            # enforced); anything else means the generator is broken.
            assert reason in (None, "constraint_violation"), (reason, update)
        assert produced > 200

    def test_references_resolve_to_installed_values(self, tor_p4info):
        gen = self._generator(tor_p4info, seed=3)
        b = EntryBuilder(tor_p4info)
        vrf = b.exact("vrf_tbl", {"vrf_id": 7}, "NoAction")
        gen.state.install(vrf)
        ipv4 = tor_p4info.table_by_name("ipv4_tbl")
        for _ in range(50):
            update = gen.generate_insert(table_id=ipv4.id)
            if update is None:
                continue
            decoded = decode_table_entry(tor_p4info, update.entry)
            assert decoded.match("vrf_id").value == 7

    def test_unsatisfiable_references_defer_generation(self, tor_p4info):
        gen = self._generator(tor_p4info)
        ipv4 = tor_p4info.table_by_name("ipv4_tbl")
        # No VRFs installed: route generation must fail rather than dangle.
        assert gen.generate_insert(table_id=ipv4.id) is None

    def test_selector_tables_get_action_sets(self, tor_p4info):
        gen = self._generator(tor_p4info, seed=5)
        b = EntryBuilder(tor_p4info)
        gen.state.install(b.exact("router_interface_tbl", {"router_interface_id": 1},
                                  "set_port_and_src_mac", {"port": 1, "src_mac": 1}))
        gen.state.install(b.exact("neighbor_tbl",
                                  {"router_interface_id": 1, "neighbor_id": 1},
                                  "set_dst_mac", {"dst_mac": 2}))
        gen.state.install(b.exact("nexthop_tbl", {"nexthop_id": 4}, "set_ip_nexthop",
                                  {"router_interface_id": 1, "neighbor_id": 1}))
        wcmp = tor_p4info.table_by_name("wcmp_group_tbl")
        update = gen.generate_insert(table_id=wcmp.id)
        assert update is not None
        decoded = decode_table_entry(tor_p4info, update.entry)
        from repro.bmv2.entries import DecodedActionSet

        assert isinstance(decoded.action, DecodedActionSet)

    def test_constraint_aware_generation_is_compliant(self, tor_p4info):
        gen = RequestGenerator(tor_p4info, random.Random(2), constraint_aware=True)
        acl = tor_p4info.table_by_name("acl_ingress_tbl")
        compliant = 0
        for _ in range(30):
            update = gen.generate_insert(table_id=acl.id)
            if update is None:
                continue
            assert _classify(tor_p4info, update.entry) is None
            compliant += 1
        assert compliant > 0


class TestMutations:
    def _seed_update(self, tor_p4info, seed=1):
        gen = RequestGenerator(tor_p4info, random.Random(seed))
        b = EntryBuilder(tor_p4info)
        gen.state.install(b.exact("vrf_tbl", {"vrf_id": 7}, "NoAction"))
        gen.state.install(b.exact("router_interface_tbl", {"router_interface_id": 1},
                                  "set_port_and_src_mac", {"port": 1, "src_mac": 1}))
        while True:
            update = gen.generate_update()
            if update is not None and update.type is UpdateType.INSERT:
                return update

    def test_catalog_is_populated(self):
        assert len(MUTATION_NAMES) >= 12
        expected = {
            "invalid_table_id",
            "invalid_table_action",
            "invalid_match_type",
            "duplicate_match_field",
            "missing_mandatory_match_field",
            "invalid_action_selector_weight",
            "invalid_table_implementation",
            "invalid_reference",
            "non_canonical_value",
            "wrong_priority",
        }
        assert expected <= set(MUTATION_NAMES)

    def test_must_reject_mutations_are_really_invalid(self, tor_p4info):
        """Every MUST_REJECT mutant fails reference validation (§4.2:
        'interestingly invalid')."""
        rng = random.Random(9)
        checked = 0
        for _ in range(400):
            update = self._seed_update(tor_p4info, seed=rng.randint(0, 10_000))
            mutated = apply_random_mutation(rng, tor_p4info, update)
            if mutated is None or mutated.expectation != MUST_REJECT:
                continue
            reason = _classify(
                tor_p4info,
                mutated.update.entry,
                is_delete=mutated.update.type is UpdateType.DELETE,
            )
            if reason is None and mutated.mutation in ("invalid_reference", "invalid_port_resource"):
                # These two violate run-time state, not the static format;
                # the oracle handles them via state tracking.
                continue
            assert reason is not None, (mutated.mutation, mutated.update)
            checked += 1
        assert checked > 50

    def test_single_mutation_per_request(self, tor_p4info):
        """Each invalid request derives from one mutation of a valid one."""
        rng = random.Random(3)
        update = self._seed_update(tor_p4info)
        mutated = apply_mutation("duplicate_match_field", rng, tor_p4info, update)
        assert mutated is not None
        # Exactly one clause was added.
        assert len(mutated.update.entry.matches) == len(update.entry.matches) + 1

    def test_invalid_table_id_not_in_catalog(self, tor_p4info):
        rng = random.Random(3)
        update = self._seed_update(tor_p4info)
        mutated = apply_mutation("invalid_table_id", rng, tor_p4info, update)
        assert mutated.update.entry.table_id not in tor_p4info.tables

    def test_delete_nonexistent_flips_type(self, tor_p4info):
        rng = random.Random(3)
        update = self._seed_update(tor_p4info)
        mutated = apply_mutation("delete_nonexistent", rng, tor_p4info, update)
        assert mutated.update.type is UpdateType.DELETE

    def test_inapplicable_mutation_returns_none(self, toy_p4info):
        # The toy program has no selector tables, so selector mutations
        # cannot apply.
        rng = random.Random(3)
        gen = RequestGenerator(toy_p4info, rng)
        b = EntryBuilder(toy_p4info)
        gen.state.install(b.exact("vrf_tbl", {"vrf_id": 3}, "NoAction"))
        update = gen.generate_insert(table_id=toy_p4info.table_by_name("vrf_tbl").id)
        assert apply_mutation("invalid_action_selector_weight", rng, toy_p4info, update) is None


class TestBatching:
    def _updates(self, tor_p4info):
        b = EntryBuilder(tor_p4info)
        return [Update(UpdateType.INSERT, e) for e in baseline_entries(tor_p4info)]

    def test_batches_are_independent(self, tor_p4info):
        updates = self._updates(tor_p4info)
        batches = make_batches(tor_p4info, updates)
        for batch in batches:
            assert verify_batch_independence(tor_p4info, batch)

    def test_referenced_entries_precede_referrers(self, tor_p4info):
        updates = self._updates(tor_p4info)
        batches = make_batches(tor_p4info, updates)
        position = {}
        for index, batch in enumerate(batches):
            for update in batch:
                position[update.entry.match_key()] = index
        # vrf_tbl entry must land strictly before the routes that use it.
        vrf_id = tor_p4info.table_by_name("vrf_tbl").id
        ipv4_id = tor_p4info.table_by_name("ipv4_tbl").id
        vrf_pos = min(p for k, p in position.items() if k[0] == vrf_id)
        route_pos = min(p for k, p in position.items() if k[0] == ipv4_id)
        assert vrf_pos < route_pos

    def test_same_identity_never_shares_batch(self, tor_p4info):
        b = EntryBuilder(tor_p4info)
        entry = b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction")
        updates = [
            Update(UpdateType.INSERT, entry),
            Update(UpdateType.DELETE, entry),
            Update(UpdateType.INSERT, entry),
        ]
        batches = make_batches(tor_p4info, updates)
        assert len(batches) == 3

    def test_max_batch_size_respected(self, tor_p4info):
        b = EntryBuilder(tor_p4info)
        updates = [
            Update(UpdateType.INSERT, b.exact("vrf_tbl", {"vrf_id": i}, "NoAction"))
            for i in range(1, 40)
        ]
        batches = make_batches(tor_p4info, updates, max_batch_size=10)
        assert all(len(batch) <= 10 for batch in batches)
        assert sum(len(batch) for batch in batches) == 39

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_workloads_batch_independently(self, seed):
        from repro.p4.p4info import build_p4info
        from repro.p4.programs import build_tor_program

        p4info = build_p4info(build_tor_program())
        gen = RequestGenerator(p4info, random.Random(seed))
        updates = [u for u in (gen.generate_update() for _ in range(60)) if u]
        for batch in make_batches(p4info, updates):
            assert verify_batch_independence(p4info, batch)


class TestOracle:
    def _oracle(self, tor_p4info):
        return Oracle(tor_p4info)

    def test_ok_for_valid_insert(self, tor_p4info):
        oracle = self._oracle(tor_p4info)
        b = EntryBuilder(tor_p4info)
        entry = b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction")
        log = oracle.judge_batch(
            [Update(UpdateType.INSERT, entry)],
            WriteResponse(statuses=(Status(),)),
            [entry],
        )
        assert not log

    def test_flags_accepted_invalid(self, tor_p4info):
        oracle = self._oracle(tor_p4info)
        b = EntryBuilder(tor_p4info)
        entry = b.exact("vrf_tbl", {"vrf_id": 0}, "NoAction")  # violates constraint
        log = oracle.judge_batch(
            [Update(UpdateType.INSERT, entry)],
            WriteResponse(statuses=(Status(),)),
            [entry],
        )
        assert log.count == 1
        assert "accepted" in log.incidents[0].summary

    def test_flags_rejected_valid(self, tor_p4info):
        oracle = self._oracle(tor_p4info)
        b = EntryBuilder(tor_p4info)
        entry = b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction")
        log = oracle.judge_batch(
            [Update(UpdateType.INSERT, entry)],
            WriteResponse(statuses=(Status(Code.INTERNAL, "boom"),)),
            [],
        )
        assert log.count == 1
        assert "rejected" in log.incidents[0].summary

    def test_resource_exhaustion_beyond_guarantee_is_admissible(self, tor_p4info):
        oracle = self._oracle(tor_p4info)
        b = EntryBuilder(tor_p4info)
        vrf_size = tor_p4info.table_by_name("vrf_tbl").size
        # Fill the oracle's view to the guaranteed size.
        for i in range(1, vrf_size + 1):
            entry = b.exact("vrf_tbl", {"vrf_id": i}, "NoAction")
            oracle.judge_batch(
                [Update(UpdateType.INSERT, entry)], WriteResponse(statuses=(Status(),)), None
            )
        extra = b.exact("vrf_tbl", {"vrf_id": vrf_size + 1}, "NoAction")
        log = oracle.judge_batch(
            [Update(UpdateType.INSERT, extra)],
            WriteResponse(statuses=(Status(Code.RESOURCE_EXHAUSTED, "full"),)),
            None,
        )
        assert not log

    def test_resource_exhaustion_below_guarantee_is_a_bug(self, tor_p4info):
        oracle = self._oracle(tor_p4info)
        b = EntryBuilder(tor_p4info)
        entry = b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction")
        log = oracle.judge_batch(
            [Update(UpdateType.INSERT, entry)],
            WriteResponse(statuses=(Status(Code.RESOURCE_EXHAUSTED, "full"),)),
            None,
        )
        assert log.count == 1

    def test_wrong_code_for_duplicate(self, tor_p4info):
        oracle = self._oracle(tor_p4info)
        b = EntryBuilder(tor_p4info)
        entry = b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction")
        oracle.judge_batch(
            [Update(UpdateType.INSERT, entry)], WriteResponse(statuses=(Status(),)), None
        )
        log = oracle.judge_batch(
            [Update(UpdateType.INSERT, entry)],
            WriteResponse(statuses=(Status(Code.INTERNAL, "dup"),)),
            None,
        )
        assert log.count == 1
        assert log.incidents[0].kind.value == "wrong error code"

    def test_readback_mismatch_flagged(self, tor_p4info):
        oracle = self._oracle(tor_p4info)
        b = EntryBuilder(tor_p4info)
        entry = b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction")
        log = oracle.judge_batch(
            [Update(UpdateType.INSERT, entry)],
            WriteResponse(statuses=(Status(),)),
            [],  # read-back missing the accepted entry
        )
        assert log.count == 1
        assert "missing" in log.incidents[0].summary

    def test_oracle_adopts_observed_state(self, tor_p4info):
        oracle = self._oracle(tor_p4info)
        b = EntryBuilder(tor_p4info)
        entry = b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction")
        oracle.judge_batch(
            [Update(UpdateType.INSERT, entry)], WriteResponse(statuses=(Status(),)), [entry]
        )
        assert len(oracle.installed_entries()) == 1
        # Delete accepted: state shrinks.
        oracle.judge_batch(
            [Update(UpdateType.DELETE, entry)], WriteResponse(statuses=(Status(),)), []
        )
        assert oracle.installed_entries() == []


class TestOracleRegressions:
    """Regressions: swallowed constraint errors and the cardinality-mismatch
    desync."""

    def _broken_p4info(self, tor_program):
        """A fresh P4Info whose first constrained table has a malformed
        @entry_restriction."""
        import dataclasses

        from repro.p4.p4info import build_p4info

        p4info = build_p4info(tor_program)
        tid, table = next(
            (tid, t) for tid, t in p4info.tables.items() if t.entry_restriction
        )
        p4info.tables[tid] = dataclasses.replace(
            table, entry_restriction="((this does not parse"
        )
        return p4info, p4info.tables[tid]

    def test_malformed_constraint_is_surfaced_not_swallowed(self, tor_program):
        p4info, table = self._broken_p4info(tor_program)
        oracle = Oracle(p4info)
        log = oracle.constraint_incidents()
        assert log.count == 1
        incident = log.incidents[0]
        assert incident.kind.value == "malformed model artifact"
        assert incident.table_name == table.name
        assert "constraint checking disabled" in incident.summary

    def test_strict_mode_raises_at_construction(self, tor_program):
        from repro.p4.constraints.lang import ConstraintSyntaxError

        p4info, _ = self._broken_p4info(tor_program)
        with pytest.raises(ConstraintSyntaxError):
            Oracle(p4info, strict_constraints=True)

    def test_well_formed_model_reports_no_constraint_incidents(self, tor_p4info):
        assert not Oracle(tor_p4info).constraint_incidents()

    def test_fuzzer_reports_malformed_constraint_as_incident(self, tor_program):
        p4info, table = self._broken_p4info(tor_program)
        stack = PinsSwitchStack(tor_program)
        fuzzer = P4Fuzzer(
            p4info, stack, FuzzerConfig(num_writes=2, updates_per_write=5, seed=1)
        )
        result = fuzzer.run()
        assert any(
            i.kind.value == "malformed model artifact" and i.table_name == table.name
            for i in result.incidents
        )

    def test_cardinality_mismatch_resyncs_from_read_back(self, tor_p4info):
        """A truncated status list must not leave the oracle's expected
        state stale: it resyncs from the read-back, so the next batch is
        judged against the switch's actual state (no phantom incidents)."""
        oracle = Oracle(tor_p4info)
        b = EntryBuilder(tor_p4info)
        entry = b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction")
        # The switch applied the insert but returned zero statuses.
        log = oracle.judge_batch(
            [Update(UpdateType.INSERT, entry)], WriteResponse(statuses=()), [entry]
        )
        assert log.count == 1
        assert log.incidents[0].summary == "response cardinality mismatch"
        # The read-back was adopted: the oracle now knows the entry exists.
        assert [e.match_key() for e in oracle.installed_entries()] == [entry.match_key()]
        # A duplicate insert is now judged against the adopted state:
        # ALREADY_EXISTS is the correct verdict, not a phantom incident.
        log2 = oracle.judge_batch(
            [Update(UpdateType.INSERT, entry)],
            WriteResponse(statuses=(Status(Code.ALREADY_EXISTS, "dup"),)),
            [entry],
        )
        assert not log2

    def test_cardinality_mismatch_without_read_back_keeps_projection(self, tor_p4info):
        oracle = Oracle(tor_p4info)
        b = EntryBuilder(tor_p4info)
        entry = b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction")
        log = oracle.judge_batch(
            [Update(UpdateType.INSERT, entry)], WriteResponse(statuses=()), None
        )
        assert log.count == 1
        assert oracle.installed_entries() == []

    def test_public_resync_adopts_observed_state(self, tor_p4info):
        oracle = Oracle(tor_p4info)
        b = EntryBuilder(tor_p4info)
        entry = b.exact("vrf_tbl", {"vrf_id": 3}, "NoAction")
        oracle.resync([entry])
        assert [e.match_key() for e in oracle.installed_entries()] == [entry.match_key()]
        oracle.resync([])
        assert oracle.installed_entries() == []


class TestCampaigns:
    def test_fault_free_pins_stack_produces_no_incidents(self, tor_program, tor_p4info):
        stack = PinsSwitchStack(tor_program)
        fuzzer = P4Fuzzer(
            tor_p4info, stack, FuzzerConfig(num_writes=20, updates_per_write=20, seed=1)
        )
        result = fuzzer.run()
        assert result.incidents.count == 0, result.incidents.summary_lines()
        assert result.updates_sent > 300
        assert result.invalid_updates > 0

    def test_fault_free_reference_switch_produces_no_incidents(self, tor_program, tor_p4info):
        switch = ReferenceSwitch(tor_program)
        fuzzer = P4Fuzzer(
            tor_p4info, switch, FuzzerConfig(num_writes=15, updates_per_write=20, seed=2)
        )
        result = fuzzer.run()
        assert result.incidents.count == 0, result.incidents.summary_lines()

    @pytest.mark.parametrize(
        "fault",
        [
            "delete_nonexistent_fails_batch",
            "modify_keeps_old_params",
            "duplicate_entry_wrong_error",
            "read_ternary_unsupported",
            "zero_byte_id_mangled",
            "vrf_delete_fails",
        ],
    )
    def test_detects_control_plane_faults(self, tor_program, tor_p4info, fault):
        from repro.switch import FaultRegistry

        stack = PinsSwitchStack(tor_program, faults=FaultRegistry([fault]))
        fuzzer = P4Fuzzer(
            tor_p4info, stack, FuzzerConfig(num_writes=40, updates_per_write=25, seed=7)
        )
        result = fuzzer.run()
        assert result.incidents.count > 0, fault

    def test_mutation_restriction_is_honored(self, tor_program, tor_p4info):
        stack = PinsSwitchStack(tor_program)
        fuzzer = P4Fuzzer(
            tor_p4info,
            stack,
            FuzzerConfig(
                num_writes=10, updates_per_write=20, seed=1,
                mutations=["invalid_table_id"],
            ),
        )
        result = fuzzer.run()
        assert set(result.mutation_counts) <= {"invalid_table_id"}

    def test_no_mutations_mode(self, tor_program, tor_p4info):
        stack = PinsSwitchStack(tor_program)
        fuzzer = P4Fuzzer(
            tor_p4info,
            stack,
            FuzzerConfig(num_writes=10, updates_per_write=20, seed=1, mutations=[]),
        )
        result = fuzzer.run()
        assert result.invalid_updates == 0
        assert result.mutation_counts == {}

    def test_final_entries_reflect_oracle_state(self, tor_program, tor_p4info):
        stack = PinsSwitchStack(tor_program)
        fuzzer = P4Fuzzer(
            tor_p4info, stack, FuzzerConfig(num_writes=10, updates_per_write=20, seed=4)
        )
        result = fuzzer.run()
        from repro.p4rt.messages import ReadRequest

        read = {e.match_key() for e in stack.read(ReadRequest(table_id=0)).entries}
        assert {e.match_key() for e in result.final_entries} == read


class TestStatefulMutations:
    def _insert(self, tor_p4info):
        b = EntryBuilder(tor_p4info)
        return Update(UpdateType.INSERT, b.exact("vrf_tbl", {"vrf_id": 9}, "NoAction"))

    def test_duplicate_insert_needs_installed_state(self, tor_p4info):
        rng = random.Random(3)
        update = self._insert(tor_p4info)
        assert apply_mutation("duplicate_insert", rng, tor_p4info, update) is None
        state = GeneratorState(tor_p4info)
        assert apply_mutation("duplicate_insert", rng, tor_p4info, update, state=state) is None

    def test_duplicate_insert_reinserts_installed_entry(self, tor_p4info):
        rng = random.Random(3)
        b = EntryBuilder(tor_p4info)
        installed = b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction")
        state = GeneratorState(tor_p4info)
        state.install(installed)
        mutated = apply_mutation(
            "duplicate_insert", rng, tor_p4info, self._insert(tor_p4info), state=state
        )
        assert mutated is not None
        assert mutated.update.type is UpdateType.INSERT
        # The duplicate targets what is actually installed, not the fresh
        # update's (never-installed) key.
        assert mutated.update.entry.match_key() == installed.match_key()

    def test_delete_nonexistent_avoids_installed_keys(self, tor_p4info):
        rng = random.Random(3)
        update = self._insert(tor_p4info)
        # The key is genuinely uninstalled: deleting it must fail upstream.
        mutated = apply_mutation("delete_nonexistent", rng, tor_p4info, update)
        assert mutated is not None
        assert mutated.update.type is UpdateType.DELETE
        assert mutated.update.entry.match_key() == update.entry.match_key()
        # Once that key is installed, the mutation no longer applies.
        state = GeneratorState(tor_p4info)
        state.install(update.entry)
        assert (
            apply_mutation("delete_nonexistent", rng, tor_p4info, update, state=state)
            is None
        )


class TestMutationEffectiveness:
    CONFIG = FuzzerConfig(
        num_writes=8,
        updates_per_write=12,
        seed=5,
        mutations=["duplicate_insert"],
        mutation_probability=1.0,
    )

    def test_duplicate_insert_exercises_already_exists(self, tor_program, tor_p4info):
        """A healthy switch returns ALREADY_EXISTS for every duplicate and
        the oracle, expecting exactly that, files zero model incidents."""
        result = P4Fuzzer(tor_p4info, PinsSwitchStack(tor_program), self.CONFIG).run()
        assert result.mutation_counts.get("duplicate_insert", 0) > 0
        assert result.incidents.model_count == 0

    def test_duplicate_insert_detects_wrong_error_fault(self, tor_program, tor_p4info):
        """The same campaign against the duplicate_entry_wrong_error
        catalogue fault observes the wrong status and files incidents —
        the mutation provably drives the spec path it names."""
        stack = PinsSwitchStack(
            tor_program, faults=FaultRegistry(["duplicate_entry_wrong_error"])
        )
        result = P4Fuzzer(tor_p4info, stack, self.CONFIG).run()
        assert result.mutation_counts.get("duplicate_insert", 0) > 0
        assert result.incidents.model_count > 0
