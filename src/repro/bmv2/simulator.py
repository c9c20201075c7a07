"""The user-facing BMv2 simulator: behaviour-set collection.

§5 "Hashing": to judge a switch against a model with black-box hashing,
SwitchV "configures the P4 simulator to use round-robin hashing, and runs
the test packet through it several times (i.e. until the same behavior
occurs twice) to build the set of all possible behaviors, and then checks
that it includes the observed switch behavior."  :meth:`Bmv2Simulator.behaviors`
implements exactly that loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bmv2.entries import InstalledEntry
from repro.bmv2.interpreter import (
    HashProvider,
    Interpreter,
    PacketResult,
    RoundRobinHash,
)
from repro.bmv2.packet import Packet
from repro.p4.ast import P4Program


@dataclass(frozen=True)
class Behavior:
    """One admissible behaviour of the model for a given packet."""

    signature: Tuple
    result: PacketResult


class Bmv2Simulator:
    """Interprets a P4 program; enumerates admissible behaviour sets.

    The table state is frozen at construction (its entry sequences must not
    be mutated afterwards): one interpreter, its lookup indices and every
    behaviour set already computed serve the simulator's whole lifetime.
    """

    def __init__(
        self,
        program: P4Program,
        state: Mapping[str, Sequence[InstalledEntry]],
        max_rounds: int = 64,
        faults=None,
    ) -> None:
        self.program = program
        self.state = dict(state)
        self.max_rounds = max_rounds
        # Seeded simulator bugs (Cerberus found 4 BMv2 bugs, Table 1):
        # consulted from the shared fault registry when one is provided.
        self._fault_enabled = faults.enabled if faults is not None else lambda _name: False
        self._interpreter = Interpreter(program, self.state)
        # (packet signature, ingress port, fault flags) -> behaviour set.
        self._behaviors: Dict[Tuple, List[Behavior]] = {}

    def _fault_flags(self) -> Tuple[bool, bool]:
        enabled = self._fault_enabled
        return enabled("bmv2_optional_zero_match"), enabled("bmv2_lpm_shortest_prefix")

    def run(
        self,
        packet: Packet,
        ingress_port: int,
        hash_provider: Optional[HashProvider] = None,
        tie_break_round: int = 0,
    ) -> PacketResult:
        """A single interpretation (round-robin round 0 by default)."""
        interp = self._interpreter
        interp.optional_absent_matches_zero, interp.lpm_shortest_prefix_wins = self._fault_flags()
        return interp.run(packet, ingress_port, hash_provider or RoundRobinHash(0), tie_break_round)

    def behaviors(self, packet: Packet, ingress_port: int) -> List[Behavior]:
        """All admissible behaviours, via round-robin enumeration.

        Rounds rotate both the hash (WCMP member selection) and the
        equal-priority tie-break index — the P4Runtime specification leaves
        same-priority overlap undefined and switches reorder ties across
        entry modifications.  Enumeration stops after two consecutive
        fruitless rounds (the mixed rotation periods mean a single repeat
        does not prove exhaustion), or at ``max_rounds``.

        Rounds the rotation would only count as repeats are not run: one
        that never consulted the hash provider repeats for every other hash
        round of its row, and a row that never consulted the tie-break round
        repeats, run for run, as the next row.  The set and its order are
        what the full rotation finds; a packet that meets no choice point
        costs one interpretation (DESIGN.md, "Semantics decisions").
        """
        key = (packet.signature(), ingress_port, self._fault_flags())
        known = self._behaviors.get(key)
        if known is not None:
            return list(known)
        seen: Dict[Tuple, Behavior] = {}
        max_tie_rounds = max(2, self.max_rounds // 8)
        for tie_round in range(max_tie_rounds):
            fresh_row = False
            fruitless = 0
            tie_choices = 0
            for hash_round in range(self.max_rounds):
                result = self.run(
                    packet, ingress_port, RoundRobinHash(hash_round), tie_round
                )
                tie_choices += result.trace.tie_choices
                signature = result.behavior_signature()
                if signature in seen:
                    fruitless += 1
                    if fruitless >= 2:
                        break
                else:
                    fruitless = 0
                    fresh_row = True
                    seen[signature] = Behavior(signature=signature, result=result)
                if not result.trace.hash_choices:
                    break
            if (tie_round > 0 and not fresh_row) or not tie_choices:
                break
        known = self._behaviors[key] = list(seen.values())
        return list(known)

    def admits(self, packet: Packet, ingress_port: int, observed_signature: Tuple) -> bool:
        """Whether the observed behaviour is in the model's admissible set."""
        return any(
            b.signature == observed_signature for b in self.behaviors(packet, ingress_port)
        )
