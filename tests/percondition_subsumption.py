"""The per-condition loop: the executable spec of ``PacketGenerator.subsume_goal``.

A goal is subsumed by the first prior packet of the first parser profile
(profiles in execution order, packets in generation order) under which its
condition evaluates true, provided the packet gives a value to every
variable the condition mentions.  This is the loop the generator ran before
it kept one multi-root program per profile, verbatim: one single-root
compilation per (goal, profile) and one evaluation of it per prior packet,
nothing remembered between goals.  Wasteful on purpose: the tests require
the production generator to pick exactly the packet this picks.

``subsume_goal`` has the method's signature so a test can install it on
``PacketGenerator`` and compare whole ``generate()`` runs.
"""

from typing import Dict, Optional, Sequence

from repro.smt import terms as T
from repro.smt.compile import CompiledTerm
from repro.symbolic.coverage import CoverageGoal
from repro.symbolic.executor import ProfileExecution
from repro.symbolic.packets import GeneratedPacket


def subsume_goal(
    _generator,
    goal: CoverageGoal,
    executions: Sequence[ProfileExecution],
    packets: Sequence[GeneratedPacket],
) -> Optional[GeneratedPacket]:
    """A prior packet that already witnesses ``goal``, or None."""
    for execution in executions:
        condition = goal.condition(execution)
        if condition is None or condition is T.FALSE:
            continue
        compiled = CompiledTerm(condition)
        needed = compiled.variables
        for prior in packets:
            if prior.profile != execution.profile.name:
                continue
            assignment = packet_assignment(prior, execution)
            # Concrete evaluation is only a proof when every variable
            # the condition mentions has a value from the packet.
            if not needed <= assignment.keys():
                continue
            if compiled.evaluate(assignment):
                return GeneratedPacket(
                    goal=goal.name,
                    profile=prior.profile,
                    packet=prior.packet.copy(),
                    ingress_port=prior.ingress_port,
                )
    return None


def packet_assignment(
    generated: GeneratedPacket, execution: ProfileExecution
) -> Dict[str, int]:
    """The variable assignment a generated packet induces."""
    assignment: Dict[str, int] = {}
    for path, term in execution.inputs.items():
        if term.is_const:
            continue
        if path == "standard.ingress_port":
            assignment[term.name] = generated.ingress_port
        elif path in generated.packet.fields:
            assignment[term.name] = generated.packet.fields[path]
    return assignment
