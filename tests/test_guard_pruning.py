"""Entry guards negate only the higher-priority entries that can overlap,
and fields that tables write are compared with constants by case.

:class:`repro.symbolic.executor.SymbolicExecutor` leaves out of entry *i*'s
guard the negation of every higher-priority entry whose match is disjoint
from *i*'s (on some key the constants differ on bits both masks cover), and
compares a field one table application wrote with constants by the guards
that wrote a matching value.  Each entry, miss and branch guard must be the
same Boolean function as the guard of ``tests/full_chain_executor.py``,
which negates every higher-priority entry and compares bit by bit, and the
miss guard must still negate every entry:

* on the four shipped models at ``production_like_entries`` sizes, by a SAT
  check that the XOR of the two guards is UNSAT;
* on random tables mixing LPM, ternary and optional keys (overlapping
  prefixes, duplicate masks, wildcards), by brute force over every value of
  the narrow key fields;
* on a table whose action writes its own key, against the concrete
  interpreter on every packet;
* on a metadata field that two tables write in sequence, then an action-set
  table (members and default action) behind a ``!=`` gate, read under
  random masks, with some writers writing it twice or a non-constant — by
  brute force, SAT, and against the interpreter in both hash rounds.

Each seeded overlap-search or case-comparison bug below makes the
brute-force check fail.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bmv2.entries import DecodedAction, DecodedActionSet, DecodedMatch, InstalledEntry
from repro.bmv2.interpreter import Interpreter, RoundRobinHash
from repro.bmv2.packet import Packet
from repro.p4 import programs
from repro.p4.ast import MatchKind
from repro.p4.p4info import build_p4info
from repro.p4.parser import parse_program
from repro.p4.programs import (
    build_cerberus_program,
    build_tor_program,
    build_toy_program,
    build_wan_program,
)
from repro.smt import Result, Solver
from repro.smt import terms as T
from repro.smt.compile import CompiledTerm
from repro.symbolic import SymbolicExecutor
from repro.symbolic import executor as executor_module
from repro.workloads import EntryBuilder, production_like_entries

from tests.full_chain_executor import FullChainExecutor
from tests.test_symbolic import decode_state

# The toy router's headers, then tables over narrow IPv4 fields: an LPM
# table whose action rewrites its own LPM key (``ecn`` plays the VRF), and
# a priority table reading that key after the rewrite.  Both may also write
# ``meta.cls``, which an action-set table behind a ``!=`` gate and a ternary
# table then match (see ``case_probe_state``).
_HEADERS = Path(programs.__file__).with_name("toy_router.p4").read_text()
PROBE_P4 = _HEADERS[: _HEADERS.index("struct metadata_t")] + """
struct metadata_t {
    bit<16> mark;
    bit<3> cls;
}

control probe_ingress(inout headers_t headers,
                      inout metadata_t meta) {
    action NoAction() {
    }
    action rewrite_dscp(bit<6> dscp) {
        ipv4.dscp = dscp;
    }
    action set_mark(bit<16> mark) {
        meta.mark = mark;
    }
    action set_cls(bit<3> cls) {
        meta.cls = cls;
    }
    action reclassify(bit<3> cls) {
        meta.cls = 3w0;
        meta.cls = cls;
    }
    action bump_cls() {
        meta.cls = (meta.cls + 3w1);
    }
    action default_cls() {
        meta.cls = 3w7;
    }
    table route_tbl {
        key = {
            ipv4.ecn : exact @name("vrf");
            ipv4.dscp : lpm @name("dst");
        }
        actions = { rewrite_dscp, set_cls };
        const default_action = NoAction;
        size = 64;
    }
    table acl_tbl {
        key = {
            ipv4.dscp : ternary @name("dscp");
            ipv4.flags : optional @name("flags");
            ipv4.ecn : ternary @name("ecn");
        }
        actions = { set_mark, rewrite_dscp, set_cls, reclassify, bump_cls };
        const default_action = NoAction;
        size = 64;
    }
    table member_tbl {
        key = {
            meta.cls : exact @name("cls");
        }
        actions = { set_cls, reclassify, bump_cls };
        const default_action = default_cls;
        size = 8;
        implementation = action_selector(member_selector, 2, { ipv4.flags });
    }
    table class_tbl {
        key = {
            meta.cls : ternary @name("cls");
            ipv4.ecn : optional @name("ecn");
        }
        actions = { set_mark };
        const default_action = NoAction;
        size = 16;
    }
    apply {
        route_tbl.apply();
        acl_tbl.apply();
        if @label("cls_gate") ((meta.cls != 3w0)) {
            member_tbl.apply();
        }
        class_tbl.apply();
    }
}
"""
# Every input the probe's tables read (11 bits: brute force is cheap).
PROBE_FIELDS = (("ipv4.dscp", 6), ("ipv4.ecn", 2), ("ipv4.flags", 3))
PROFILE = "eth_ipv4"


@pytest.fixture(scope="module")
def probe():
    return parse_program(PROBE_P4)


def _match(name, kind, value, mask):
    if kind is MatchKind.LPM:
        length = bin(mask).count("1")
        return DecodedMatch(name, kind, value & mask, mask, prefix_len=length)
    return DecodedMatch(name, kind, value & mask, mask)


def random_probe_state(seed, routes=24, acls=16):
    """Routes over 4 "VRFs" with nested and repeated prefixes (some
    wildcarding the LPM key), and ACLs with duplicate masks, absent keys and
    tied priorities."""
    rng = random.Random(seed)
    state = {"route_tbl": [], "acl_tbl": []}
    seen = set()
    while len(state["route_tbl"]) < routes:
        length = rng.choice((0, 1, 2, 3, 3, 4, 5, 6))
        mask = (0x3F << (6 - length)) & 0x3F
        matches = [_match("vrf", MatchKind.EXACT, rng.randrange(4), 0x3)]
        if length:
            matches.append(_match("dst", MatchKind.LPM, rng.randrange(64), mask))
        entry = InstalledEntry(
            "route_tbl", tuple(matches),
            DecodedAction("rewrite_dscp", (("dscp", rng.randrange(64)),)),
        )
        if entry.identity() not in seen:
            seen.add(entry.identity())
            state["route_tbl"].append(entry)
    for _ in range(acls):
        matches = []
        if rng.random() < 0.8:
            mask = rng.choice((0x3F, 0x30, 0x0F, 0x21, rng.randrange(1, 64)))
            matches.append(_match("dscp", MatchKind.TERNARY, rng.randrange(64), mask))
        if rng.random() < 0.5:
            matches.append(_match("flags", MatchKind.OPTIONAL, rng.randrange(8), 0x7))
        if rng.random() < 0.5:
            matches.append(_match("ecn", MatchKind.TERNARY, rng.randrange(4), rng.choice((1, 2, 3))))
        action = (
            DecodedAction("set_mark", (("mark", rng.randrange(1, 9)),))
            if rng.random() < 0.7
            else DecodedAction("rewrite_dscp", (("dscp", rng.randrange(64)),))
        )
        state["acl_tbl"].append(
            InstalledEntry("acl_tbl", tuple(matches), action, priority=rng.randint(1, 6))
        )
    return state


def case_probe_state(seed, odd=None):
    """``random_probe_state(seed)`` with about half its routes and ACLs
    writing ``meta.cls`` instead, so two tables write it in sequence; a
    ``member_tbl`` action set of two members for four classes (its miss
    writes ``cls`` too); and ``class_tbl`` entries under random masks.  A few
    ACLs and members take ``odd`` instead of ``set_cls``: ``reclassify``
    writes ``cls`` twice, ``bump_cls`` a value that is not a constant."""
    rng = random.Random(seed)
    state = random_probe_state(seed)

    def write():
        if odd and rng.random() < 0.3:
            return DecodedAction(odd, (("cls", rng.randrange(8)),) if odd == "reclassify" else ())
        return DecodedAction("set_cls", (("cls", rng.randrange(8)),))

    state["route_tbl"] = [
        replace(e, action=DecodedAction("set_cls", (("cls", rng.randrange(8)),)))
        if rng.random() < 0.5 else e
        for e in state["route_tbl"]
    ]
    state["acl_tbl"] = [
        replace(e, action=write()) if rng.random() < 0.5 else e for e in state["acl_tbl"]
    ]
    state["member_tbl"] = [
        InstalledEntry(
            "member_tbl", (_match("cls", MatchKind.EXACT, cls, 0x7),),
            DecodedActionSet(((write(), 1), (write(), 2))),
        )
        for cls in rng.sample(range(1, 8), 4)
    ]
    state["class_tbl"] = []
    for mark in range(1, 9):
        matches = [_match("cls", MatchKind.TERNARY, rng.randrange(8), rng.randrange(1, 8))]
        if rng.random() < 0.3:
            matches.append(_match("ecn", MatchKind.OPTIONAL, rng.randrange(4), 0x3))
        state["class_tbl"].append(
            InstalledEntry(
                "class_tbl", tuple(matches), DecodedAction("set_mark", (("mark", mark),)),
                priority=rng.randint(1, 6),
            )
        )
    return state


def _guards(executor_cls, program, state, profile=None):
    """profile name -> the trace's entry, miss and branch guards."""
    return {
        e.profile.name: {k: g for k, g in e.trace.items() if k[0] in ("entry", "miss", "branch")}
        for e in executor_cls(program, state).execute()
        if profile is None or e.profile.name == profile
    }


def sat_mismatches(program, state):
    """(profile, trace key) of every guard a SAT check tells apart from its
    full-chain twin.  One query per profile asks whether any pair differs;
    only if one does is each pair asked on its own."""
    spec = _guards(FullChainExecutor, program, state)
    bad = []
    for name, guards in _guards(SymbolicExecutor, program, state).items():
        assert guards.keys() == spec[name].keys()
        differ = {k: T.xor(g, spec[name][k]) for k, g in guards.items() if g is not spec[name][k]}
        solver = Solver(simplify_terms=False)
        if differ and solver.check(T.or_(*differ.values())) is Result.SAT:
            bad.extend((name, k) for k, x in differ.items() if solver.check(x) is Result.SAT)
    return bad


def _assignments():
    """Every value of the probe's key fields, as input-variable assignments."""
    total = sum(width for _path, width in PROBE_FIELDS)
    for bits in range(1 << total):
        assignment, shift = {f"{PROFILE}::standard.ingress_port": 1}, 0
        for path, width in PROBE_FIELDS:
            assignment[f"{PROFILE}::{path}"] = (bits >> shift) & ((1 << width) - 1)
            shift += width
        yield assignment


def _selector_rounds(compiled):
    """Action-set selector assignments: every selector true (each set's
    first member fires), then every one false (its second).  With two
    members per set these are the interpreter's ``RoundRobinHash`` rounds 0
    and 1."""
    selectors = [name for name in compiled.variables if name.startswith("select:")]
    return [dict.fromkeys(selectors, 1 - round_index) for round_index in range(2 if selectors else 1)]


def brute_mismatches(program, state):
    """Trace keys whose pruned and full-chain guards differ on some input."""
    pruned = _guards(SymbolicExecutor, program, state, PROFILE)[PROFILE]
    spec = _guards(FullChainExecutor, program, state, PROFILE)[PROFILE]
    assert pruned.keys() == spec.keys()
    compiled = CompiledTerm()
    roots = {k: (compiled.add_root(pruned[k]), compiled.add_root(spec[k])) for k in pruned}
    rounds = _selector_rounds(compiled)
    bad = set()
    for assignment in _assignments():
        for selectors in rounds:
            values = compiled.evaluate_roots({**assignment, **selectors})
            bad.update(k for k, (a, b) in roots.items() if values[a] != values[b])
    return bad


def interpreter_mismatches(program, state):
    """(selector round, packet fields) on which the trace keys that hold
    differ from the entries, misses and branches the interpreter takes."""
    (execution,) = [
        e for e in SymbolicExecutor(program, state).execute() if e.profile.name == PROFILE
    ]
    compiled = CompiledTerm()
    roots = {
        k: compiled.add_root(g)
        for k, g in execution.trace.items()
        if k[0] in ("entry", "miss", "branch")
    }
    rounds = _selector_rounds(compiled)
    interpreter = Interpreter(program, state)
    bad = []
    for assignment in _assignments():
        fields = {path: assignment[f"{PROFILE}::{path}"] for path, _w in PROBE_FIELDS}
        fields["ethernet.ether_type"] = 0x0800
        packet = Packet(fields=fields, valid_headers={"ethernet", "ipv4"})
        for round_index, selectors in enumerate(rounds):
            trace = interpreter.run(packet, 1, RoundRobinHash(round_index)).trace
            expected = {
                ("entry", table, identity) if identity is not None else ("miss", table)
                for table, identity, _action in trace.table_hits
            } | {("branch", label, taken) for label, taken in trace.branches}
            values = compiled.evaluate_roots({**assignment, **selectors})
            if {k for k, root in roots.items() if values[root]} != expected:
                bad.append((round_index, fields))
    return bad


def toy_entries(p4info, total=40, seed=1):
    """The toy router's tables: per-port VRF assignments (one wildcard), the
    VRFs, and routes with nested and repeated prefixes across three VRFs."""
    rng = random.Random(seed)
    b = EntryBuilder(p4info)
    entries = [b.ternary("pre_ingress_tbl", {}, "set_vrf", {"vrf_id": 1}, priority=1)]
    entries += [
        b.ternary("pre_ingress_tbl", {}, "set_vrf", {"vrf_id": port % 3 + 1}, priority=2,
                  optional_keys={"in_port": port})
        for port in (1, 2, 3)
    ]
    entries += [b.exact("vrf_tbl", {"vrf_id": vrf}, "NoAction") for vrf in (1, 2, 3)]
    routes = set()
    while len(routes) < total - len(entries):
        length = rng.choice((8, 16, 16, 24, 32))
        address = 0x0A000000 | rng.getrandbits(26) & 0x0300FF00  # 10.{0..3}.{0..255}.0
        routes.add((rng.randint(1, 3), address & ~((1 << (32 - length)) - 1), length))
    entries += [
        b.lpm("ipv4_tbl", {"vrf_id": vrf}, "ipv4_dst", prefix, length,
              "set_nexthop_id", {"nexthop_id": rng.randint(1, 8)})
        for vrf, prefix, length in sorted(routes)
    ]
    return entries


# ToR and WAN at the benchmark's symbolic_cold size.  Cerberus's nexthop and
# interface keys are read through ite chains over its routes, which makes
# each of its checks ~10x dearer: 40 entries keep it to seconds.
@pytest.mark.parametrize(
    "build, entries",
    [
        (build_toy_program, toy_entries),
        (build_tor_program, lambda p4info: production_like_entries(p4info, total=150, seed=1)),
        (build_wan_program, lambda p4info: production_like_entries(p4info, total=150, seed=1)),
        (build_cerberus_program, lambda p4info: production_like_entries(p4info, total=40, seed=1)),
    ],
    ids=["toy", "tor", "wan", "cerberus"],
)
def test_shipped_models_keep_every_guard(build, entries):
    program = build()
    p4info = build_p4info(program)
    state = decode_state(p4info, entries(p4info))
    assert sat_mismatches(program, state) == []


@pytest.mark.parametrize("seed", range(6))
def test_random_tables_keep_every_guard(probe, seed):
    assert brute_mismatches(probe, random_probe_state(seed)) == set()


def test_pruned_guards_drop_negations(probe):
    """The probe states do exercise pruning: disjoint routes and ACLs lose
    negations the full chain carries."""
    state = random_probe_state(0)
    pruned = _guards(SymbolicExecutor, probe, state, PROFILE)[PROFILE]
    spec = _guards(FullChainExecutor, probe, state, PROFILE)[PROFILE]
    dropped = sum(
        len(spec[k].args) - len(pruned[k].args)
        for k in pruned
        if k[0] == "entry" and spec[k].op == T.OP_AND and pruned[k].op == T.OP_AND
    )
    assert dropped > 0


def test_trace_agrees_with_the_interpreter_when_an_action_writes_its_key(probe):
    """``route_tbl``'s action rewrites the table's own key, and ``acl_tbl``
    reads it afterwards.  Every entry matches against the key as the table
    reads it, so on every packet exactly the entry (or miss) the interpreter
    hits holds in the trace.  (Re-reading the key per entry, after earlier
    entries' ``ite`` writes, would let a disjoint lower entry match the
    rewritten key too, once its guard no longer negates the writer.)"""
    for seed in (0, 1):
        state = random_probe_state(seed)
        (execution,) = [
            e for e in SymbolicExecutor(probe, state).execute() if e.profile.name == PROFILE
        ]
        compiled = CompiledTerm()
        roots = {
            k: compiled.add_root(g) for k, g in execution.trace.items() if k[0] in ("entry", "miss")
        }
        interpreter = Interpreter(probe, state)
        for assignment in _assignments():
            fields = {path: assignment[f"{PROFILE}::{path}"] for path, _w in PROBE_FIELDS}
            fields["ethernet.ether_type"] = 0x0800
            packet = Packet(fields=fields, valid_headers={"ethernet", "ipv4"})
            hits = interpreter.run(packet, 1).trace.table_hits
            expected = {
                ("entry", table, identity) if identity is not None else ("miss", table)
                for table, identity, _action in hits
            }
            values = compiled.evaluate_roots(assignment)
            held = {k for k, root in roots.items() if values[root]}
            assert held == expected, (seed, fields)


# ----------------------------------------------------------------------
# Seeded overlap-search bugs: each must make the check above fail.
# ----------------------------------------------------------------------
_overlaps = executor_module._overlaps


def _ignoring_masks(cubes, fulls):
    """Compares the masked values as if both masks covered every bit."""
    return _overlaps(
        [tuple((v, full if m else 0) for (v, m), full in zip(c, fulls, strict=True)) for c in cubes],
        fulls,
    )


def _wildcard_as_disjoint(cubes, fulls):
    """Treats a key one entry leaves absent and the other sets as disjoint."""
    return [
        [j for j in row if all((a[1] == 0) == (b[1] == 0) for a, b in zip(cubes[i], cubes[j], strict=True))]
        for i, row in enumerate(_overlaps(cubes, fulls))
    ]


def _one_trie_across_exact_keys(cubes, fulls):
    """One prefix -> entry map for the whole table, shared by every VRF (and
    every exact key): a prefix installed under two VRFs keeps one entry."""
    nodes = {c[-1]: i for i, c in enumerate(cubes)}
    keys = range(len(fulls))
    return [
        sorted(j for j in nodes.values() if j < i and executor_module._can_overlap(c, cubes[j], keys))
        for i, c in enumerate(cubes)
    ]


@pytest.mark.parametrize(
    "mutant", [_ignoring_masks, _wildcard_as_disjoint, _one_trie_across_exact_keys],
    ids=lambda m: m.__name__.strip("_"),
)
def test_seeded_overlap_bugs_fail_the_check(probe, monkeypatch, mutant):
    monkeypatch.setattr(executor_module, "_overlaps", mutant)
    caught = [seed for seed in range(6) if brute_mismatches(probe, random_probe_state(seed))]
    assert caught


# ----------------------------------------------------------------------
# Comparisons on table-written fields (``meta.cls`` in the probe): the
# executor compares them by the guards that wrote a matching value.
# ----------------------------------------------------------------------
CASE_STATES = [(0, None), (1, None), (2, "reclassify"), (3, "bump_cls")]


@pytest.mark.parametrize("seed, odd", CASE_STATES)
def test_table_written_fields_keep_every_guard(probe, seed, odd):
    state = case_probe_state(seed, odd)
    assert brute_mismatches(probe, state) == set()
    assert sat_mismatches(probe, state) == []  # every selector value, every profile


@pytest.mark.parametrize("seed, odd", CASE_STATES)
def test_trace_agrees_with_the_interpreter_on_table_written_fields(probe, seed, odd):
    assert interpreter_mismatches(probe, case_probe_state(seed, odd)) == []


def _longest_chain(cases):
    """How many case-split applications one field's history runs through."""

    def length(term):
        n = 0
        while term in cases:
            term, n = cases[term][0], n + 1
        return n

    return max(map(length, cases), default=0)


def test_table_written_fields_are_compared_by_case(probe):
    """The probe states do exercise the cases: routes, then ACLs, then
    members write ``cls`` as a chain of cases, and a field some ACL writes
    twice or with a non-constant is not one."""
    chains = {}
    for seed, odd in CASE_STATES:
        executor = SymbolicExecutor(probe, case_probe_state(seed, odd))
        executor.execute()
        chains[seed] = _longest_chain(executor._cases)
    assert chains == {0: 3, 1: 3, 2: 2, 3: 2}


# ----------------------------------------------------------------------
# Seeded case-comparison bugs: each must make the brute-force check fail.
# ----------------------------------------------------------------------
_case = executor_module._case


def _no_writer_fired_dropped(writes):
    """Leaves out the disjunct for a field no writer of the application set."""
    case = _case(writes)
    return case and (case[0], T.FALSE)


def _non_constant_accepted(writes):
    """Splits the constant writes into cases and forgets the others."""
    return _case([(guard, value) for guard, value in writes if value.is_const])


def _duplicate_guards_accepted(writes):
    """Keeps both values an action writing the field twice gives it."""
    if not all(value.is_const for _guard, value in writes):
        return None
    return writes, T.and_(*[T.not_(guard) for guard, _value in writes])


def _mask_ignored(self, term, mask, value, _equals=SymbolicExecutor._equals):
    """Compares a case-split field in full with the masked constant."""
    return _equals(self, term, (1 << term.width) - 1 if term in self._cases else mask, value)


@pytest.mark.parametrize(
    "mutant",
    [_no_writer_fired_dropped, _non_constant_accepted, _duplicate_guards_accepted, _mask_ignored],
    ids=lambda m: m.__name__.strip("_"),
)
def test_seeded_case_bugs_fail_the_check(probe, monkeypatch, mutant):
    if mutant is _mask_ignored:
        monkeypatch.setattr(SymbolicExecutor, "_equals", mutant)
    else:
        monkeypatch.setattr(executor_module, "_case", mutant)
    caught = [(seed, odd) for seed, odd in CASE_STATES if brute_mismatches(probe, case_probe_state(seed, odd))]
    assert caught
