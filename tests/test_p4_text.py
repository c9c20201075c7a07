"""Tests for the P4 text pipeline: printer → parser round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bmv2.entries import decode_table_entry
from repro.bmv2.interpreter import Interpreter, SeededHash
from repro.bmv2.packet import make_ipv4_packet
from repro.p4.p4info import build_p4info
from repro.p4.parser import P4ParseError, parse_program
from repro.p4.printer import print_program
from repro.p4.programs import (
    build_cerberus_program,
    build_tor_program,
    build_toy_program,
    build_wan_program,
)
from repro.workloads import baseline_entries

ALL_BUILDERS = [
    build_toy_program,
    build_tor_program,
    build_wan_program,
    build_cerberus_program,
]


class TestPrinter:
    def test_emits_figure2_style_annotations(self, toy_program):
        text = print_program(toy_program)
        assert '@entry_restriction("vrf_id != 0")' in text
        assert "@refers_to(vrf_tbl, vrf_id)" in text
        assert "table vrf_tbl {" in text
        assert "const default_action = NoAction;" in text

    def test_emits_role_and_parser(self, tor_program):
        text = print_program(tor_program)
        assert '@role("ToR")' in text
        assert '@parser("ethernet_ipv4_ipv6")' in text

    def test_emits_selector_implementation(self, tor_program):
        text = print_program(tor_program)
        assert (
            "implementation = action_selector(wcmp_group_selector, 128,"
            " { ipv4.src_addr, ipv4.dst_addr, ipv4.protocol });" in text
        )

    def test_labels_in_apply(self, tor_program):
        text = print_program(tor_program)
        assert 'if @label("ttl_trap")' in text
        assert 'if @label("broadcast_drop")' in text


class TestRoundTrip:
    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_print_parse_print_fixpoint(self, build):
        program = build()
        text = print_program(program)
        reparsed = parse_program(text)
        assert print_program(reparsed) == text

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_parsed_program_preserves_contract(self, build):
        """The parsed program exposes the identical control-plane API."""
        program = build()
        parsed = parse_program(print_program(program))
        assert build_p4info(parsed).fingerprint() == build_p4info(program).fingerprint()

    def test_parsed_program_forwards_identically(self, tor_program, tor_p4info, tor_baseline):
        parsed = parse_program(print_program(tor_program))
        state = {}
        for entry in tor_baseline:
            decoded = decode_table_entry(tor_p4info, entry)
            state.setdefault(decoded.table_name, []).append(decoded)
        for dst, ttl in ((0x0A010001, 64), (0x0A020002, 2), (0x0AFFFF01, 9), (0xFFFFFFFF, 5)):
            packet = make_ipv4_packet(dst, ttl=ttl)
            original = Interpreter(tor_program, state).run(packet, 2, SeededHash(1))
            reparsed = Interpreter(parsed, state).run(packet, 2, SeededHash(1))
            assert original.behavior_signature() == reparsed.behavior_signature()

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_selector_fields_survive(self, build):
        """action_selector hash fields must not be dropped by the printer."""
        program = build()
        parsed = parse_program(print_program(program))
        for table in program.tables():
            if table.implementation is None:
                continue
            reparsed = parsed.table(table.name).implementation
            assert reparsed is not None
            assert reparsed.name == table.implementation.name
            assert reparsed.max_group_size == table.implementation.max_group_size
            assert [f.path for f in reparsed.selector_fields] == [
                f.path for f in table.implementation.selector_fields
            ]

    def test_action_ref_flags_survive(self, toy_program):
        """@defaultonly / @tableonly scope markers round-trip."""
        from dataclasses import replace

        from repro.p4.ast import ActionRef, If, Seq, TableApply

        original = toy_program.table("ipv4_tbl")
        flagged = replace(
            original,
            actions=(
                replace(original.actions[0], default_only=True),
                replace(original.actions[1], table_only=True),
            ),
        )

        def swap(block):
            nodes = []
            for node in block:
                if isinstance(node, TableApply) and node.table.name == "ipv4_tbl":
                    node = TableApply(flagged)
                elif isinstance(node, If):
                    node = replace(
                        node,
                        then_block=swap(node.then_block),
                        else_block=swap(node.else_block),
                    )
                nodes.append(node)
            return Seq(tuple(nodes))

        program = replace(toy_program, ingress=swap(toy_program.ingress))
        assert program.table("ipv4_tbl").actions[0].default_only
        text = print_program(program)
        assert "@defaultonly" in text
        assert "@tableonly" in text
        parsed = parse_program(text)
        refs = parsed.table("ipv4_tbl").actions
        assert isinstance(refs[0], ActionRef) and refs[0].default_only
        assert not refs[0].table_only
        assert refs[1].table_only and not refs[1].default_only
        assert print_program(parsed) == text

    def test_structure_survives(self, cerberus_program):
        parsed = parse_program(print_program(cerberus_program))
        assert parsed.role == "Cerberus"
        assert {t.name for t in parsed.tables()} == {
            t.name for t in cerberus_program.tables()
        }
        tunnel = parsed.table("tunnel_tbl")
        assert tunnel.entry_restriction == "tunnel_id != 0"
        assert parsed.table("vrf_tbl").is_resource_table
        assert any(t.is_logical for t in parsed.tables())


class TestParserErrors:
    def test_garbage_rejected(self):
        with pytest.raises(P4ParseError):
            parse_program("this is not p4 at all {{{")

    def test_missing_ingress_rejected(self):
        with pytest.raises(P4ParseError):
            parse_program('@role("x")\n@parser("ethernet_ipv4_ipv6")\n')

    def test_unknown_action_reference_rejected(self):
        text = """
@role("x")
@parser("ethernet_ipv4_ipv6")
control t_ingress(inout headers_t h, inout metadata_t m) {
    table bad {
        key = {
        }
        actions = { nonexistent };
        const default_action = NoAction;
        size = 4;
    }
    apply {
        bad.apply();
    }
}
"""
        with pytest.raises(P4ParseError):
            parse_program(text)

    def test_bad_match_kind_rejected(self):
        text = """
@role("x")
@parser("ethernet_ipv4_ipv6")
control t_ingress(inout headers_t h, inout metadata_t m) {
    action nop() {
    }
    table bad {
        key = {
            meta.x : sorta @name("x");
        }
        actions = { nop };
        const default_action = nop;
        size = 4;
    }
    apply {
    }
}
"""
        with pytest.raises(P4ParseError):
            parse_program(text)

    def test_header_without_suffix_rejected(self):
        with pytest.raises(P4ParseError):
            parse_program("header bad { bit<8> x; }")


class TestCheckedInSources:
    """The .p4 files under p4src/ must stay in sync with the builders."""

    @pytest.mark.parametrize(
        "filename,build",
        [
            ("toy_router.p4", build_toy_program),
            ("sai_tor.p4", build_tor_program),
            ("sai_wan.p4", build_wan_program),
            ("cerberus.p4", build_cerberus_program),
        ],
    )
    def test_p4src_matches_builder(self, filename, build):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "p4src" / filename
        source = path.read_text()
        assert source == print_program(build()), (
            f"{filename} drifted from its builder; regenerate with "
            "examples/p4_text_models.py or the printer"
        )
        parsed = parse_program(source)
        assert build_p4info(parsed).fingerprint() == build_p4info(build()).fingerprint()
