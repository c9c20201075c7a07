"""Tests for the P4 text pipeline: the shipped sources, printer → parser round trips."""

import dataclasses
import hashlib
import random
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bmv2.entries import decode_table_entry
from repro.bmv2.interpreter import Interpreter, SeededHash
from repro.bmv2.packet import make_ipv4_packet
from repro.p4 import parser as parser_module
from repro.p4.ast import ModelConstructionError
from repro.p4.headers import STANDARD_HEADERS
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
from tests.test_behaviors_spec import _hash_program

ALL_BUILDERS = [
    build_toy_program,
    build_tor_program,
    build_wan_program,
    build_cerberus_program,
]
SHIPPED_SOURCES = ("toy_router.p4", "sai_tor.p4", "sai_wan.p4", "cerberus.p4")


def _shipped_source(filename):
    return resources.files("repro.p4.programs").joinpath(filename).read_text("utf-8")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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

    def test_hash_expression_round_trips(self):
        """No shipped model uses the black-box ``hash<W>(label; fields)``
        expression (§5), so a hand-built program carries it through."""
        program = _hash_program()
        text = print_program(program)
        assert "hash<16>(ecmp; ipv4.src_addr)" in text
        assert parse_program(text) == program

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

    def test_hash_without_label_separator_rejected(self):
        text = print_program(_hash_program())
        malformed = text.replace("hash<16>(ecmp; ipv4.src_addr)", "hash<16>(ecmp ipv4.src_addr)")
        assert malformed != text
        with pytest.raises(P4ParseError, match="expected ';'"):
            parse_program(malformed)

    def test_truncated_control_parameters_rejected(self):
        source = _shipped_source("toy_router.p4")
        head = "control toy_router_ingress("
        with pytest.raises(P4ParseError, match="end of input"):
            parse_program(source[: source.index(head) + len(head)])

    @pytest.mark.parametrize("filename", SHIPPED_SOURCES)
    def test_cut_and_mangled_sources_raise_typed_errors(self, filename):
        """Seeded prefix cuts and one-token deletions of a shipped model
        either parse or raise one of the two typed model errors."""
        source = _shipped_source(filename)
        spans = [
            m.span()
            for m in parser_module._TOKEN_RE.finditer(source)
            if m.lastgroup not in ("ws", "comment")
        ]
        rng = random.Random(filename)
        variants = [source[: rng.randrange(len(source))] for _ in range(150)]
        variants += [source[:start] + source[end:] for start, end in rng.sample(spans, 150)]
        outcomes = Counter()
        for text in variants:
            try:
                parse_program(text)
                outcomes["parsed"] += 1
            except (P4ParseError, ModelConstructionError) as exc:
                outcomes[type(exc).__name__] += 1
        assert outcomes["P4ParseError"] > 0


class TestShippedModels:
    """Each model exists once, as a ``.p4`` file in ``repro.p4.programs``.

    The pins cover what every consumer receives: ``repr`` (name, role,
    table count) and the whole dataclass tree.  They are the digests of the
    Python-built models these files replaced, so a match proves the text
    defines the same programs; editing a model on purpose means re-pinning
    its digests in the same commit.
    """

    @pytest.mark.parametrize(
        "build,repr_digest,tree_digest",
        [
            pytest.param(build_toy_program, "4f12eb59f932dfd6", "3c490e4ce8ebb171", id="toy"),
            pytest.param(build_tor_program, "87310766723b87d1", "9acff434596bf3d5", id="tor"),
            pytest.param(build_wan_program, "a9b3dc69f00f7d76", "6faebefc3fd49e53", id="wan"),
            pytest.param(
                build_cerberus_program, "c31bbcacd19772cc", "cd0f7fb799d921bf", id="cerberus"
            ),
        ],
    )
    def test_pinned_digest(self, build, repr_digest, tree_digest):
        program = build()
        assert _digest(repr(program)) == repr_digest
        assert _digest(repr(dataclasses.astuple(program))) == tree_digest

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_headers_are_the_codec_headers(self, build):
        """``bmv2.packet`` and ``symbolic.profiles`` decode wire bytes with
        ``STANDARD_HEADERS``, not with the program's own declarations."""
        assert build().headers == STANDARD_HEADERS

    def test_each_call_returns_a_fresh_program(self):
        assert build_tor_program() is not build_tor_program()
