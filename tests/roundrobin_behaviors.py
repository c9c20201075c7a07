"""The rotate-until-two-repeats loop: the executable spec of ``Bmv2Simulator.behaviors``.

§5 "Hashing": run the packet with round-robin hashing "until the same
behavior occurs twice".  This is the loop the simulator ran for every
packet before it learned to stop after a run that consulted no choice
point, verbatim: every round is a full interpretation, nothing is
remembered between calls.  Five runs for a deterministic packet, on
purpose: the tests require the production simulator to return exactly the
signatures this returns, in this order.
"""

from typing import Dict, List, Tuple

from repro.bmv2.interpreter import RoundRobinHash


def behaviors(simulator, packet, ingress_port: int) -> List[Tuple]:
    """Signatures of all admissible behaviours, in discovery order."""
    seen: Dict[Tuple, None] = {}
    max_tie_rounds = max(2, simulator.max_rounds // 8)
    for tie_round in range(max_tie_rounds):
        fresh_row = False
        fruitless = 0
        for hash_round in range(simulator.max_rounds):
            result = simulator.run(
                packet, ingress_port, RoundRobinHash(hash_round), tie_round
            )
            signature = result.behavior_signature()
            if signature in seen:
                fruitless += 1
                if fruitless >= 2:
                    break
            else:
                fruitless = 0
                fresh_row = True
                seen[signature] = None
        if tie_round > 0 and not fresh_row:
            break
    return list(seen)
