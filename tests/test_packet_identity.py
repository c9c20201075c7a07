"""Generated packets are pinned byte for byte.

A change to the symbolic executor, the solver pipeline or the canonical
witness search may change how packets are found, never which packets come
out: every witness is canonical, so the bytes are a function of the model
and the table state alone.  Each digest below hashes, in generation order,
``(goal, profile, deparsed packet, ingress port)`` for every packet of one
cold ``PacketGenerator(program, state).generate()``.  The ToR and WAN values
were recorded before entry guards were pruned to the overlapping
higher-priority entries, the toy and Cerberus ones before fields that tables
write were compared with constants by case; all must hold under any
``PYTHONHASHSEED``.
"""

import hashlib

import pytest

from repro.bmv2.packet import deparse_packet
from repro.p4.p4info import build_p4info
from repro.p4.programs import (
    build_cerberus_program,
    build_tor_program,
    build_toy_program,
    build_wan_program,
)
from repro.symbolic import PacketGenerator
from repro.workloads import production_like_entries

from tests.test_guard_pruning import toy_entries
from tests.test_symbolic import decode_state


def packet_digest(program, state):
    digest = hashlib.sha256()
    for generated in PacketGenerator(program, state).generate().packets:
        digest.update(
            repr(
                (generated.goal, generated.profile, deparse_packet(generated.packet),
                 generated.ingress_port)
            ).encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize(
    "build, seed, expected",
    [
        (build_tor_program, 1, "fd61a2290a2521b1b26357787ab2c799a21aedf5f8412844690a654d45258687"),
        (build_tor_program, 7, "9ad2f94d323ab326021884ebc3715d7ac51f872931edc35a1681e6d573cff60d"),
        (build_tor_program, 13, "ddff5d2ab3fa932c80dbe4bd2a208332c4590c8460a57ea6351e9cd4e4a06123"),
        (build_wan_program, 1, "a891421b9c92edc745f2cc57dd69fab37901be8c11314e52890969191d30acfc"),
    ],
    ids=["tor150-seed1", "tor150-seed7", "tor150-seed13", "wan150-seed1"],
)
def test_generated_packets_are_pinned(build, seed, expected):
    program = build()
    p4info = build_p4info(program)
    state = decode_state(p4info, production_like_entries(p4info, total=150, seed=seed))
    assert packet_digest(program, state) == expected


@pytest.mark.parametrize(
    "build, entries, expected",
    [
        (build_toy_program, toy_entries,
         "ea47a11a3a6ea4b939d01268841d30d4b5afa0f2360f84e5c570a8b37f441358"),
        (build_cerberus_program, lambda p4info: production_like_entries(p4info, total=40, seed=1),
         "4b749c720aa424f31f26215eae8543e35204d2f8bdd862255b9a6f3143e5d5f1"),
    ],
    ids=["toy40-seed1", "cerberus40-seed1"],
)
def test_generated_packets_of_toy_and_cerberus_are_pinned(build, entries, expected):
    program = build()
    p4info = build_p4info(program)
    assert packet_digest(program, decode_state(p4info, entries(p4info))) == expected
