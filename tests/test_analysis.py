"""Tests for repro.analysis: the static P4-model linter.

Three layers of coverage:

* clean shipped programs produce **zero** diagnostics (no false positives),
* every seeded model fault from the catalogue is either flagged with its
  expected diagnostic code or explicitly xfailed as dynamic-only,
* synthetic broken programs trigger each structural/semantic pass, and the
  harness/campaign lint gate refuses to run a campaign on an error.
"""

import pytest

from repro.analysis import analyze_program, run_structural_passes
from repro.analysis.diagnostics import (
    ACTION_NEVER_FIRES,
    ACTION_SCOPE,
    DANGLING_REF,
    INVALID_HEADER_READ,
    KEY_NAME_DRIFT,
    KEY_SHAPE,
    PARSER_PATTERN,
    REF_CYCLE,
    REF_WIDTH_MISMATCH,
    RESTRICTION_ACCESSOR,
    RESTRICTION_SYNTAX,
    RESTRICTION_UNKNOWN_KEY,
    RESTRICTION_UNSAT,
    TABLE_NEVER_HITS,
    UNDEFINED_FIELD,
    UNREACHABLE_BRANCH,
    UNREACHABLE_TABLE,
    WIDTH_MISMATCH,
    Severity,
)
from repro.p4 import ast
from repro.p4.ast import (
    NO_ACTION,
    Action,
    ActionParamSpec,
    ActionRef,
    BinOp,
    Cmp,
    Const,
    FieldRef,
    If,
    IsValid,
    MatchKind,
    ModelConstructionError,
    P4Program,
    ParserSpec,
    Seq,
    Table,
    TableApply,
    TableKey,
    assign,
    seq,
)
from repro.p4.headers import STANDARD_HEADERS
from repro.p4.programs import (
    build_cerberus_program,
    build_tor_program,
    build_toy_program,
    build_wan_program,
)
from repro.switch import PinsSwitchStack
from repro.switch.model_faults import MODEL_TRANSFORMS, apply_model_faults
from repro.switchv.campaign import CampaignConfig, run_fault_campaign
from repro.switchv.harness import SwitchVHarness
from repro.switchv.report import IncidentKind, render_diagnostics

ALL_BUILDERS = [
    build_toy_program,
    build_tor_program,
    build_wan_program,
    build_cerberus_program,
]
METADATA = build_tor_program().metadata


# ----------------------------------------------------------------------
# Synthetic-program scaffolding
# ----------------------------------------------------------------------
def _program(*nodes, parser="ethernet_ipv4_ipv6"):
    return P4Program(
        name="synthetic",
        headers=STANDARD_HEADERS,
        metadata=METADATA,
        parser=ParserSpec(parser),
        ingress=Seq(tuple(nodes)),
        role="test",
    )


def _table(name="t1", keys=None, actions=None, **kwargs):
    if keys is None:
        keys = (TableKey(FieldRef("meta.vrf_id"), MatchKind.EXACT, name="vrf_id"),)
    if actions is None:
        actions = (ActionRef(NO_ACTION),)
    return Table(
        name=name,
        keys=tuple(keys),
        actions=tuple(actions),
        default_action=NO_ACTION,
        size=4,
        **kwargs,
    )


def _codes(program, semantic=True):
    return analyze_program(program, semantic=semantic).codes()


# ----------------------------------------------------------------------
# No false positives on the shipped models
# ----------------------------------------------------------------------
class TestCleanPrograms:
    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_zero_diagnostics(self, build):
        report = analyze_program(build())
        assert report.semantic_ran
        assert not report.diagnostics, [repr(d) for d in report.diagnostics]

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_render_says_clean(self, build):
        text = render_diagnostics(analyze_program(build()))
        assert "0 error(s), 0 warning(s)" in text
        assert "usable as a specification" in text


# ----------------------------------------------------------------------
# Seeded model faults from the catalogue
# ----------------------------------------------------------------------
# Fault name -> (expected code, expected table) for the statically
# detectable ones; everything else only manifests dynamically and is an
# explicit xfail so a future static pass that catches it shows up as XPASS.
STATICALLY_DETECTABLE = {
    "model_wrong_icmp_field": (KEY_NAME_DRIFT, "acl_ingress_tbl"),
}


class TestSeededFaults:
    @pytest.mark.parametrize("fault", sorted(MODEL_TRANSFORMS))
    def test_catalogue_fault(self, fault):
        build = (
            build_cerberus_program
            if fault.startswith("cerberus")
            else build_tor_program
        )
        model = apply_model_faults(build(), [fault])
        report = analyze_program(model)
        if fault in STATICALLY_DETECTABLE:
            code, table = STATICALLY_DETECTABLE[fault]
            hits = report.by_code(code)
            assert hits, f"{fault}: expected {code}, got {report.diagnostics}"
            assert any(d.table_name == table for d in hits)
        else:
            # These models are well-formed specifications that are simply
            # *wrong about the switch*; the linter must stay silent.
            assert not report.diagnostics, [repr(d) for d in report.diagnostics]
            pytest.xfail(f"{fault} is only detectable dynamically")


# ----------------------------------------------------------------------
# Structural passes on synthetic broken programs
# ----------------------------------------------------------------------
class TestStructuralPasses:
    def test_undefined_field(self):
        table = _table(
            keys=(TableKey(FieldRef("meta.no_such_field"), MatchKind.EXACT),)
        )
        report = analyze_program(_program(TableApply(table)))
        assert UNDEFINED_FIELD in report.codes()
        assert not report.semantic_ran  # errors stop the semantic stage

    def test_width_mismatch_in_action_body(self):
        # meta.vrf_id is 16 bits, meta.l3_admit is 1 bit: only the program
        # context can see the clash, so the constructor cannot catch it.
        bad = Action("bad_copy", body=(assign("meta.vrf_id", FieldRef("meta.l3_admit")),))
        table = _table(actions=(ActionRef(bad),))
        assert WIDTH_MISMATCH in _codes(_program(TableApply(table)))

    def test_width_mismatch_in_condition(self):
        cond = Cmp("==", FieldRef("meta.vrf_id"), FieldRef("meta.l3_admit"))
        node = If(cond, seq(), seq(), label="clash")
        assert WIDTH_MISMATCH in _codes(_program(node))

    def test_dangling_ref(self):
        table = _table(
            keys=(
                TableKey(
                    FieldRef("meta.vrf_id"),
                    MatchKind.EXACT,
                    name="vrf_id",
                    refers_to=("no_such_tbl", "vrf_id"),
                ),
            )
        )
        assert DANGLING_REF in _codes(_program(TableApply(table)))

    def test_ref_width_mismatch(self):
        owner = _table(
            name="owner_tbl",
            keys=(TableKey(FieldRef("meta.l3_admit"), MatchKind.EXACT, name="flag"),),
        )
        user = _table(
            name="user_tbl",
            keys=(
                TableKey(
                    FieldRef("meta.vrf_id"),
                    MatchKind.EXACT,
                    name="vrf_id",
                    refers_to=("owner_tbl", "flag"),
                ),
            ),
        )
        codes = _codes(_program(TableApply(owner), TableApply(user)))
        assert REF_WIDTH_MISMATCH in codes

    def test_ref_cycle(self):
        a = _table(
            name="a_tbl",
            keys=(
                TableKey(
                    FieldRef("meta.vrf_id"),
                    MatchKind.EXACT,
                    name="vrf_id",
                    refers_to=("b_tbl", "nexthop"),
                ),
            ),
        )
        b = _table(
            name="b_tbl",
            keys=(
                TableKey(
                    FieldRef("meta.nexthop_id"),
                    MatchKind.EXACT,
                    name="nexthop",
                    refers_to=("a_tbl", "vrf_id"),
                ),
            ),
        )
        assert REF_CYCLE in _codes(_program(TableApply(a), TableApply(b)))

    def test_multiple_lpm_keys(self):
        table = _table(
            keys=(
                TableKey(FieldRef("ipv4.dst_addr"), MatchKind.LPM, name="dst"),
                TableKey(FieldRef("ipv4.src_addr"), MatchKind.LPM, name="src"),
            )
        )
        program = _program(
            If(IsValid("ipv4"), seq(TableApply(table)), seq(), label="guard")
        )
        assert KEY_SHAPE in _codes(program, semantic=False)

    def test_contradictory_action_scope(self):
        ref = ActionRef(NO_ACTION, default_only=True, table_only=True)
        table = _table(actions=(ref,))
        assert ACTION_SCOPE in _codes(_program(TableApply(table)), semantic=False)

    def test_restriction_syntax(self):
        table = _table(entry_restriction="((this does not parse")
        assert RESTRICTION_SYNTAX in _codes(_program(TableApply(table)), semantic=False)

    def test_restriction_unknown_key(self):
        table = _table(entry_restriction="bogus_key != 0")
        assert RESTRICTION_UNKNOWN_KEY in _codes(
            _program(TableApply(table)), semantic=False
        )

    def test_restriction_bad_accessor(self):
        # ::mask is meaningless on an EXACT key.
        table = _table(entry_restriction="vrf_id::mask == 0")
        assert RESTRICTION_ACCESSOR in _codes(
            _program(TableApply(table)), semantic=False
        )

    def test_structural_only_report_is_labelled(self):
        table = _table(
            keys=(TableKey(FieldRef("meta.no_such_field"), MatchKind.EXACT),)
        )
        report = analyze_program(_program(TableApply(table)))
        text = render_diagnostics(report)
        assert "structural only" in text
        assert all(d.severity is Severity.ERROR for d in report.errors)


# ----------------------------------------------------------------------
# SMT-backed semantic passes
# ----------------------------------------------------------------------
class TestSemanticPasses:
    def test_unknown_parser_pattern(self):
        report = analyze_program(_program(parser="no_such_pattern"))
        assert PARSER_PATTERN in report.codes()

    def test_unsat_restriction(self):
        table = _table(entry_restriction="vrf_id == 1 && vrf_id == 2")
        report = analyze_program(_program(TableApply(table)))
        assert RESTRICTION_UNSAT in report.codes()
        assert all(d.is_error for d in report.by_code(RESTRICTION_UNSAT))

    def test_unreachable_branch(self):
        # No parser profile produces a packet that is both IPv4 and IPv6.
        cond = ast.BoolOp("and", (IsValid("ipv4"), IsValid("ipv6")))
        node = If(cond, seq(), seq(), label="both_stacks")
        report = analyze_program(_program(node))
        hits = report.by_code(UNREACHABLE_BRANCH)
        assert any("both_stacks" in d.location for d in hits)

    def test_unreachable_table_under_dead_branch(self):
        cond = ast.BoolOp("and", (IsValid("ipv4"), IsValid("ipv6")))
        table = _table(name="dead_tbl")
        node = If(cond, seq(TableApply(table)), seq(), label="both_stacks")
        report = analyze_program(_program(node))
        assert UNREACHABLE_TABLE in report.codes()
        assert TABLE_NEVER_HITS in report.codes()

    def test_invalid_header_read_in_condition(self):
        # Reading ipv4.ttl without an IsValid(ipv4) guard: the eth-only
        # and IPv6 profiles reach this condition with ipv4 invalid.
        cond = Cmp("<=", FieldRef("ipv4.ttl"), Const(1, 8))
        node = If(cond, seq(), seq(), label="unguarded_ttl")
        report = analyze_program(_program(node))
        hits = report.by_code(INVALID_HEADER_READ)
        assert any("ipv4.ttl" in d.message for d in hits)

    def test_invalid_header_read_in_exact_key(self):
        table = _table(
            name="route",
            keys=(TableKey(FieldRef("ipv4.dst_addr"), MatchKind.EXACT, name="dst"),),
        )
        report = analyze_program(_program(TableApply(table)))
        assert INVALID_HEADER_READ in report.codes()

    def test_guarded_read_is_clean(self):
        cond = Cmp("<=", FieldRef("ipv4.ttl"), Const(1, 8))
        node = If(
            ast.BoolOp("and", (IsValid("ipv4"), cond)), seq(), seq(), label="guarded"
        )
        report = analyze_program(_program(node))
        assert INVALID_HEADER_READ not in report.codes()

    def test_timings_recorded(self):
        report = analyze_program(build_toy_program())
        assert report.structural_seconds > 0
        assert report.semantic_seconds > 0


# ----------------------------------------------------------------------
# Constructor-time validation (repro.p4.ast)
# ----------------------------------------------------------------------
class TestConstructorChecks:
    def test_const_does_not_fit(self):
        with pytest.raises(ModelConstructionError, match="does not fit"):
            Const(256, 8)

    def test_cmp_literal_width_mismatch(self):
        with pytest.raises(ModelConstructionError, match="widths differ"):
            Cmp("==", Const(1, 8), Const(1, 16))

    def test_binop_rejects_boolean_operand(self):
        with pytest.raises(ModelConstructionError, match="boolean"):
            BinOp("+", IsValid("ipv4"), Const(1, 8))

    def test_if_rejects_bitvector_condition_with_label(self):
        with pytest.raises(ModelConstructionError, match="if my_label"):
            If(Const(1, 1), seq(), seq(), label="my_label")

    def test_action_undeclared_parameter_names_action(self):
        with pytest.raises(ModelConstructionError, match="action set_x"):
            Action("set_x", body=(assign("meta.vrf_id", ast.Param("ghost")),))

    def test_action_operand_width_clash_names_action(self):
        with pytest.raises(ModelConstructionError, match="action widen"):
            Action(
                "widen",
                params=(ActionParamSpec("v", 8),),
                body=(
                    assign(
                        "meta.vrf_id", BinOp("+", ast.Param("v"), Const(1, 16))
                    ),
                ),
            )

    def test_table_duplicate_key_names_table(self):
        with pytest.raises(ModelConstructionError, match="table dup_tbl"):
            Table(
                name="dup_tbl",
                keys=(
                    TableKey(FieldRef("meta.vrf_id"), MatchKind.EXACT, name="k"),
                    TableKey(FieldRef("meta.nexthop_id"), MatchKind.EXACT, name="k"),
                ),
                actions=(ActionRef(NO_ACTION),),
            )


# ----------------------------------------------------------------------
# The lint gate in the harness and campaign driver
# ----------------------------------------------------------------------
def _broken_model():
    table = _table(
        keys=(
            TableKey(
                FieldRef("meta.vrf_id"),
                MatchKind.EXACT,
                name="vrf_id",
                refers_to=("no_such_tbl", "vrf_id"),
            ),
        )
    )
    return _program(TableApply(table))


class TestLintGate:
    def test_harness_refuses_broken_model(self):
        harness = SwitchVHarness(
            _broken_model(), PinsSwitchStack(build_tor_program()), lint_model=True
        )
        assert harness.p4info is None
        assert harness.lint_report is not None and harness.lint_report.has_errors
        report = harness.validate_control_plane()
        assert report.incidents.count >= 1
        assert {i.kind for i in report.incidents.incidents} == {
            IncidentKind.MODEL_ERROR
        }
        assert "repro-analysis" in report.incidents.by_source()

    def test_harness_accepts_clean_model(self):
        harness = SwitchVHarness(
            build_toy_program(), PinsSwitchStack(build_toy_program()), lint_model=True
        )
        assert harness.p4info is not None
        assert harness.lint_report is not None
        assert not harness.lint_report.has_errors

    def test_campaign_early_return_on_lint_error(self, monkeypatch):
        monkeypatch.setattr(
            "repro.switchv.campaign.apply_model_faults",
            lambda program, faults: _broken_model(),
        )
        outcome = run_fault_campaign(
            "model_wrong_icmp_field",
            "pins",
            CampaignConfig(lint_model=True, run_trivial=False),
        )
        assert outcome.detected
        assert outcome.detected_by == ["repro-analysis"]
        assert outcome.incident_count >= 1

    def test_campaign_warning_does_not_gate(self):
        # key-name-drift is a warning: the campaign must still run and
        # detect the fault dynamically.
        outcome = run_fault_campaign(
            "model_wrong_icmp_field",
            "pins",
            CampaignConfig(
                lint_model=True,
                fuzz_writes=3,
                fuzz_updates_per_write=5,
                workload_entries=20,
                run_trivial=False,
            ),
        )
        assert outcome.incidents is not None
        assert outcome.detected_by != ["repro-analysis"]


# ----------------------------------------------------------------------
# run_structural_passes in isolation
# ----------------------------------------------------------------------
class TestStructuralEntryPoint:
    def test_returns_diagnostic_list(self):
        diags = run_structural_passes(_broken_model())
        assert diags
        assert all(hasattr(d, "code") for d in diags)

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_clean_on_shipped(self, build):
        assert run_structural_passes(build()) == []


# ----------------------------------------------------------------------
# Action-level reachability (the @refers_to chain refinement)
# ----------------------------------------------------------------------
def _blocked_action_program():
    """user_tbl has two actions; one's parameter @refers_to a table whose
    restriction admits no entries, so only that action can never fire."""
    target = _table(
        name="target_tbl",
        keys=(TableKey(FieldRef("meta.nexthop_id"), MatchKind.EXACT, name="nid"),),
        entry_restriction="nid == 1 && nid == 2",
    )
    use_target = Action(
        "use_target",
        params=(ActionParamSpec("nid", 16, refers_to=("target_tbl", "nid")),),
        body=(assign("meta.nexthop_id", ast.Param("nid")),),
    )
    no_ref = Action("no_ref", body=(assign("meta.l3_admit", Const(1, 1)),))
    user = _table(name="user_tbl", actions=(ActionRef(use_target), ActionRef(no_ref)))
    return _program(TableApply(target), TableApply(user))


class TestActionReach:
    def test_blocked_action_flagged_sibling_spared(self):
        report = analyze_program(_blocked_action_program())
        never = report.by_code(ACTION_NEVER_FIRES)
        assert len(never) == 1
        (diag,) = never
        assert diag.severity is Severity.WARNING
        assert diag.table_name == "user_tbl"
        assert "use_target" in diag.location
        assert "target_tbl" in diag.message
        assert "no_ref" not in diag.location

    def test_summary_counts_reachable_actions(self):
        report = analyze_program(_blocked_action_program())
        # use_target (blocked), no_ref (reachable), target_tbl's NoAction
        # (suppressed by the table-level unsat-restriction finding).
        assert report.summary["actions_total"] == 3
        assert report.summary["actions_reachable"] == 1

    def test_unsat_table_suppresses_its_own_actions(self):
        report = analyze_program(_blocked_action_program())
        assert all(
            d.table_name != "target_tbl" for d in report.by_code(ACTION_NEVER_FIRES)
        )

    def test_witness_is_the_blocking_tables_core(self):
        report = analyze_program(_blocked_action_program(), witnesses=True)
        (diag,) = report.by_code(ACTION_NEVER_FIRES)
        witness = diag.witness
        assert witness is not None and witness.kind == "unsat-core"
        assert len(witness.conjuncts) == 2
        assert witness.replays()

    def test_shipped_programs_have_all_actions_reachable(self):
        for build in ALL_BUILDERS:
            report = analyze_program(build())
            assert report.summary["actions_total"] > 0
            assert (
                report.summary["actions_reachable"]
                == report.summary["actions_total"]
            )


# ----------------------------------------------------------------------
# Witness construction and replay
# ----------------------------------------------------------------------
class TestWitnesses:
    def test_invalid_read_carries_replaying_packet(self):
        cond = Cmp("<=", FieldRef("ipv4.ttl"), Const(1, 8))
        node = If(cond, seq(), seq(), label="unguarded_ttl")
        report = analyze_program(_program(node), witnesses=True)
        hits = report.by_code(INVALID_HEADER_READ)
        assert hits
        for diag in hits:
            assert diag.witness is not None
            assert diag.witness.kind == "packet"
            assert diag.witness.replays()

    def test_restriction_unsat_core_is_minimal(self):
        table = _table(
            entry_restriction="vrf_id != 0 && vrf_id == 0 && vrf_id != 3"
        )
        report = analyze_program(_program(TableApply(table)), witnesses=True)
        (diag,) = report.by_code(RESTRICTION_UNSAT)
        witness = diag.witness
        assert witness is not None and witness.kind == "unsat-core"
        # vrf_id != 3 is redundant: the contradiction is the other two.
        assert len(witness.conjuncts) == 2
        assert not any("3" in text for text in witness.conjuncts)
        assert witness.replays()

    def test_witnesses_off_by_default(self):
        table = _table(entry_restriction="vrf_id == 1 && vrf_id == 2")
        report = analyze_program(_program(TableApply(table)))
        (diag,) = report.by_code(RESTRICTION_UNSAT)
        assert diag.witness is None

    def test_rendered_report_shows_witness_lines(self):
        table = _table(entry_restriction="vrf_id == 1 && vrf_id == 2")
        report = analyze_program(_program(TableApply(table)), witnesses=True)
        text = render_diagnostics(report)
        assert "minimal unsat core" in text

    def test_witness_json_round_trip(self):
        cond = Cmp("<=", FieldRef("ipv4.ttl"), Const(1, 8))
        node = If(cond, seq(), seq(), label="unguarded_ttl")
        report = analyze_program(_program(node), witnesses=True)
        from repro.switchv.report import diagnostics_to_json

        payload = diagnostics_to_json(report)
        kinds = {
            d["witness"]["kind"]
            for d in payload["diagnostics"]
            if d["witness"] is not None
        }
        assert "packet" in kinds


# ----------------------------------------------------------------------
# The reach checker's LRU witness cache
# ----------------------------------------------------------------------
class TestReachCache:
    def _checker(self):
        from repro.analysis.semantic import _ProfileRun, _ReachChecker

        run = _ProfileRun(profile=None, constraints=[])
        return _ReachChecker(run)

    def test_cache_hit_skips_the_solver(self):
        from repro.smt import terms as T

        checker = self._checker()
        v = T.bv_var("v", 8)
        # eq(5): all-zeros and all-ones candidates miss, so the solver
        # answers and its model {v: 5} is cached.
        assert checker.sat(v.eq(T.bv_const(5, 8)))
        assert checker.cache_hits == 0
        assert checker._witnesses == [{"v": 5}]
        # uge(4): the cached witness satisfies it — no solver call.
        assert checker.sat(v.uge(T.bv_const(4, 8)))
        assert checker.cache_hits == 1

    def test_hit_moves_witness_to_front(self):
        from repro.smt import terms as T

        checker = self._checker()
        names = [f"v{i}" for i in range(3)]
        for name in names:
            assert checker.sat(T.bv_var(name, 8).eq(T.bv_const(5, 8)))
        assert checker._witnesses[0] == {"v2": 5}
        # Hitting v0's witness (at the tail) must move it to the front.
        assert checker.sat(T.bv_var("v0", 8).uge(T.bv_const(4, 8)))
        assert checker.cache_hits == 1
        assert checker._witnesses[0] == {"v0": 5}

    def test_capacity_evicts_the_tail(self):
        from repro.smt import terms as T

        checker = self._checker()
        count = checker._MAX_WITNESSES + 2
        for i in range(count):
            assert checker.sat(T.bv_var(f"v{i}", 8).eq(T.bv_const(5, 8)))
        assert len(checker._witnesses) == checker._MAX_WITNESSES
        # The two oldest witnesses (v0, v1) fell off the tail.
        cached = {name for witness in checker._witnesses for name in witness}
        assert "v0" not in cached and "v1" not in cached

    def test_summary_reports_cache_hits(self):
        report = analyze_program(build_tor_program())
        assert "reach_cache_hits" in report.summary
        assert report.summary["reach_cache_hits"] >= 0


# ----------------------------------------------------------------------
# Pass selection (--only / --skip)
# ----------------------------------------------------------------------
class TestPassSelection:
    def _mixed(self):
        table = _table(entry_restriction="vrf_id == 1 && vrf_id == 2")
        cond = Cmp("<=", FieldRef("ipv4.ttl"), Const(1, 8))
        return _program(
            TableApply(table), If(cond, seq(), seq(), label="unguarded_ttl")
        )

    def test_only_scopes_to_one_pass(self):
        report = analyze_program(self._mixed(), only=["restriction-sat"])
        assert set(report.codes()) == {RESTRICTION_UNSAT}

    def test_skip_removes_one_pass(self):
        report = analyze_program(self._mixed(), skip=["invalid-reads"])
        assert INVALID_HEADER_READ not in report.codes()
        assert RESTRICTION_UNSAT in report.codes()

    def test_unknown_pass_name_raises(self):
        with pytest.raises(ValueError, match="unknown pass"):
            analyze_program(self._mixed(), only=["no-such-pass"])

    def test_structural_errors_still_gate_deselected(self):
        # Even with every structural pass deselected from the report, a
        # structurally broken model must not reach the SMT encoders.
        report = analyze_program(_broken_model(), only=["restriction-sat"])
        assert report.diagnostics == []
        assert not report.semantic_ran

    def test_list_passes_registry(self):
        from repro.analysis import list_passes

        passes = dict(list_passes())
        assert passes["restriction-sat"] == "semantic"
        assert passes["references"] == "structural"
        assert passes["restriction-compat"] == "contract"
        assert len(passes) == len(list_passes())  # names are unique

    def test_cli_only_flag(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["toy", "--only", "restriction-sat,invalid-reads"]) == 0
        assert "0 error(s)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Deterministic output across hash randomization
# ----------------------------------------------------------------------
def _drifty_program():
    """A program with a spread of findings (errors and warnings, several
    tables and branches) — the determinism stress input."""
    unsat = _table(name="unsat_tbl", entry_restriction="vrf_id == 1 && vrf_id == 2")
    dead_cond = ast.BoolOp("and", (IsValid("ipv4"), IsValid("ipv6")))
    dead = If(dead_cond, seq(TableApply(_table(name="dead_tbl"))), seq(), label="both")
    read = If(
        Cmp("<=", FieldRef("ipv4.ttl"), Const(1, 8)), seq(), seq(), label="ttl"
    )
    return _program(TableApply(unsat), dead, read)


_RENDER_CHILD = """
import json
import sys

sys.path.insert(0, sys.argv[1])
from tests.test_analysis import _drifty_program
from repro.analysis import analyze_program
from repro.switchv.report import diagnostics_to_json, render_diagnostics

report = analyze_program(_drifty_program(), witnesses=True)
print(render_diagnostics(report))
print(json.dumps(diagnostics_to_json(report), sort_keys=True))
"""


class TestDeterministicOutput:
    def _render_in_child(self, hash_seed):
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-c", _RENDER_CHILD, str(repo)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=300,
        )
        return proc.stdout

    def test_render_is_byte_identical_across_hash_seeds(self):
        assert self._render_in_child("1") == self._render_in_child("2")

    def test_diagnostics_are_sorted(self):
        report = analyze_program(_drifty_program(), witnesses=True)
        keys = [d.sort_key() for d in report.diagnostics]
        assert keys == sorted(keys)
        assert report.diagnostics[0].is_error  # errors sort first
