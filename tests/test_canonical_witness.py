"""Canonical witnesses read off a phase-seeded model.

Every generation check prefers the canonical witness's first choices (the
first masked-equality hint, else the background value, of each input the
formula mentions), and ``PacketGenerator._canonical_witness`` returns the
model as it is when it took all of them — without compiling, evaluating or
checking anything.  These tests hold that shortcut to the full greedy loop,
and hold the packets to their background values now that no solver
assumption pins the fields a goal leaves free.
"""

import random

import pytest

from repro.p4.p4info import build_p4info
from repro.p4.parser import parse_program
from repro.p4.programs import (
    build_cerberus_program,
    build_tor_program,
    build_toy_program,
    build_wan_program,
)
from repro.smt import terms as T
from repro.switch import PinsSwitchStack
from repro.switchv import SwitchVHarness
from repro.symbolic import CoverageMode, PacketGenerator, SymbolicExecutor
from repro.symbolic import packets as packets_module
from repro.symbolic.cache import PacketCache
from repro.symbolic.coverage import CoverageGoal
from repro.symbolic.packets import GenerationStats
from repro.workloads import production_like_entries

from tests.test_guard_pruning import PROBE_P4, case_probe_state, toy_entries
from tests.test_symbolic import decode_state

BACKGROUND = PacketGenerator._BACKGROUND
_took_first_choices = PacketGenerator._took_first_choices


def _shipped(build, entries):
    def state():
        program = build()
        p4info = build_p4info(program)
        return program, decode_state(p4info, entries(p4info))

    return state


def _probe():
    return parse_program(PROBE_P4), case_probe_state(3)


MODELS = {
    "toy": _shipped(build_toy_program, toy_entries),
    "tor80": _shipped(
        build_tor_program, lambda p4info: production_like_entries(p4info, total=80, seed=1)
    ),
    "wan": _shipped(
        build_wan_program, lambda p4info: production_like_entries(p4info, total=80, seed=1)
    ),
    "cerberus": _shipped(
        build_cerberus_program,
        lambda p4info: production_like_entries(p4info, total=40, seed=1),
    ),
    "probe": _probe,
}


def read_off_pairs(monkeypatch, program, state, took=_took_first_choices):
    """(read-off witness, full-loop witness) for every witness of a cold
    generation that ``took`` read off the model.  The full loop runs right
    after the read-off, on the same solver and model, with the read-off
    answering no.  Also returns the number of witnesses found."""
    canonical_witness = PacketGenerator._canonical_witness
    read_off, full_loop, pairs, witnesses = [], [False], [], [0]

    def recording_took(model, first_choice):
        agreed = not full_loop[0] and took(model, first_choice)
        read_off.append(agreed)
        return agreed

    def witness(self, solver, execution, assumptions, prefer, stats):
        witnesses[0] += 1
        read_off.clear()
        got = canonical_witness(self, solver, execution, assumptions, prefer, stats)
        if read_off == [True]:
            full_loop[0] = True
            try:
                full = canonical_witness(
                    self, solver, execution, assumptions, prefer, GenerationStats()
                )
            finally:
                full_loop[0] = False
            pairs.append((got, full))
        return got

    monkeypatch.setattr(PacketGenerator, "_took_first_choices", staticmethod(recording_took))
    monkeypatch.setattr(PacketGenerator, "_canonical_witness", witness)
    PacketGenerator(program, state).generate(CoverageMode.ENTRY)
    return pairs, witnesses[0]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_read_off_witness_is_the_greedy_one(name, monkeypatch):
    program, state = MODELS[name]()
    pairs, witnesses = read_off_pairs(monkeypatch, program, state)
    assert pairs, "no witness was read off the model"
    assert 2 * len(pairs) >= witnesses
    mismatched = [i for i, (got, full) in enumerate(pairs) if got != full]
    assert mismatched == []


def test_a_read_off_that_compares_only_the_first_target_is_caught(monkeypatch):
    def first_only(model, first_choice):
        return _took_first_choices(model, dict(list(first_choice.items())[:1]))

    program, state = MODELS["tor80"]()
    pairs, _witnesses = read_off_pairs(monkeypatch, program, state, took=first_only)
    assert any(got != full for got, full in pairs)


# What the deleted background pins guaranteed, now kept by the packet's
# fill-in: a field no formula of the goal mentions carries its background
# value — all-zero TTLs, DSCPs and ports hide whole bug classes.
NAMED = ("ipv4.ttl", "ipv4.dscp", "ipv4.src_addr",
         "tcp.src_port", "tcp.dst_port", "udp.src_port", "udp.dst_port")


def test_goal_free_fields_carry_their_background_values(monkeypatch):
    program, state = MODELS["tor80"]()
    solved = []
    solve_goal = PacketGenerator._solve_goal

    def recording(self, goal, executions, stats, index=0):
        generated = solve_goal(self, goal, executions, stats, index)
        if generated is not None:
            solved.append((goal, executions, generated))
        return generated

    monkeypatch.setattr(PacketGenerator, "_solve_goal", recording)
    generator = PacketGenerator(program, state)
    # Entry coverage lands on few parser profiles; one goal per profile
    # reaches the TCP and UDP ones too.
    reach = [
        CoverageGoal(f"profile:{name}", lambda e, name=name: T.TRUE if e.profile.name == name else None)
        for name in sorted(e.profile.name for e in generator.executions())
    ]
    generator.generate(CoverageMode.ENTRY, custom_goals=reach)
    checked = dict.fromkeys(NAMED, 0)
    wrong = []
    for goal, executions, generated in solved:
        (execution,) = [e for e in executions if e.profile.name == generated.profile]
        mentioned = T.free_variables(goal.condition(execution))
        for path, value in BACKGROUND.items():
            term = execution.inputs.get(path)
            if term is None or term.is_const or term.name in mentioned:
                continue
            width_mask = (1 << term.width) - 1
            if generated.packet.fields[path] != value & width_mask:
                wrong.append((generated.goal, path, generated.packet.fields[path]))
            checked[path] = checked.get(path, 0) + 1
    assert wrong == []
    assert (BACKGROUND["ipv4.ttl"], BACKGROUND["ipv4.dscp"]) == (64, 10)
    assert BACKGROUND["ipv4.src_addr"] == 0x0A090909  # 10.9.9.9
    assert all(checked[path] for path in NAMED), checked


@pytest.mark.parametrize(
    "build", [build_toy_program, build_tor_program, build_wan_program, build_cerberus_program]
)
def test_no_profile_constraint_mentions_a_background_field(build):
    """Why the pins could go: a background field that no profile constraint
    and no goal condition mentions occurs in no formula a check asks, so
    leaving it to the packet's fill-in cannot change a verdict."""
    program = build()
    executions = SymbolicExecutor(program, {}).execute()
    mentioned = set()
    for execution in executions:
        names = set()
        for constraint in execution.constraints:
            names.update(T.free_variables(constraint))
        mentioned |= {
            path
            for path, term in execution.inputs.items()
            if not term.is_const and term.name in names
        }
    # The constraints do mention inputs (the parser's selectors, the port).
    assert mentioned
    assert mentioned.isdisjoint(BACKGROUND), sorted(mentioned & BACKGROUND.keys())


def test_symbolic_cold_compiles_few_witnesses(monkeypatch):
    """The ``symbolic_cold`` cycle (ToR-150, run seed 1) reads 122 of its
    139 witnesses off the model; each of the other 17 compiles its formula
    (all 139 did while every witness compiled)."""
    program = build_tor_program()
    p4info = build_p4info(program)
    # bench.workloads.sub_seed(1, "entries")
    entries = production_like_entries(
        p4info, total=150, seed=random.Random("1:entries").getrandbits(31)
    )
    compiled, witnesses = [], []
    compile_term = packets_module.compile_term
    canonical_witness = PacketGenerator._canonical_witness

    def counting_compile(term):
        compiled.append(term)
        return compile_term(term)

    def counting_witness(self, *args):
        witnesses.append(1)
        return canonical_witness(self, *args)

    monkeypatch.setattr(packets_module, "compile_term", counting_compile)
    monkeypatch.setattr(PacketGenerator, "_canonical_witness", counting_witness)
    harness = SwitchVHarness(program, PinsSwitchStack(program), cache=PacketCache())
    stats = harness.validate_data_plane(entries).data_plane
    assert stats.solver_queries == 366
    assert (len(witnesses), len(compiled)) == (139, 17)
