#!/usr/bin/env python3
"""Quickstart: validate a switch against a P4 model in ~60 lines.

Builds the toy router model (the paper's Figure 2 fragment), programs a
reference switch through P4Runtime, and runs both SwitchV components:
p4-fuzzer against the control-plane API and p4-symbolic against the data
plane.  Then it hands SwitchV a *wrong* model and watches it find the
divergence.

Run:  python examples/quickstart.py
"""

from repro.fuzzer import FuzzerConfig
from repro.p4.p4info import build_p4info
from repro.p4.programs import build_toy_program
from repro.switch import ReferenceSwitch
from repro.switch.model_faults import apply_model_faults
from repro.switchv import SwitchVHarness
from repro.workloads import EntryBuilder


def forwarding_state(p4info):
    """A tiny forwarding state: VRF 1 and two routes."""
    b = EntryBuilder(p4info)
    return [
        b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction"),
        b.ternary("pre_ingress_tbl", {}, "set_vrf", {"vrf_id": 1}, priority=1),
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 8,
              "set_nexthop_id", {"nexthop_id": 3}),
        b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A010000, 16,
              "set_nexthop_id", {"nexthop_id": 7}),
    ]


def main() -> None:
    model = build_toy_program()
    p4info = build_p4info(model)

    print("== 1. Validating a correct switch against the correct model ==")
    switch = ReferenceSwitch(model)
    harness = SwitchVHarness(model, switch)
    report = harness.validate(
        forwarding_state(p4info),
        FuzzerConfig(num_writes=20, updates_per_write=20, seed=1),
    )
    fuzz = report.fuzz
    print(f"p4-fuzzer: {fuzz.updates_sent} updates "
          f"({fuzz.valid_updates} valid / {fuzz.invalid_updates} invalid), "
          f"{fuzz.updates_per_second:.0f} updates/s")
    dp = report.data_plane
    print(f"p4-symbolic: {dp.packets_tested} test packets covering "
          f"{dp.goals_covered}/{dp.goals_total} goals "
          f"(generation {dp.generation_seconds:.2f}s)")
    print(f"incidents: {report.incidents.count} (expected: 0)\n")
    assert report.ok

    print("== 2. Validating the same switch against a WRONG model ==")
    # Hand SwitchV a model whose set_nexthop_id action is mis-specified
    # (it claims everything egresses on port 1).  The switch is unchanged;
    # the divergence is a bug in the *model* — the paper found 18 of those.
    from dataclasses import replace

    from repro.p4.ast import Const

    set_nexthop_port = model.table("ipv4_tbl").actions_by_name["set_nexthop_id"]
    wrong_body = (
        set_nexthop_port.body[0],
        # The wrong model believes set_nexthop_id forwards everything out
        # of port 1 regardless of the argument.
        replace(set_nexthop_port.body[1], value=Const(1, 16)),
    )
    wrong_action = replace(set_nexthop_port, body=wrong_body)

    def swap_action(table):
        from repro.p4.ast import ActionRef

        if table.name != "ipv4_tbl":
            return table
        refs = tuple(
            ActionRef(wrong_action) if ref.action.name == "set_nexthop_id" else ref
            for ref in table.actions
        )
        return replace(table, actions=refs)

    from repro.switch.model_faults import _map_tables

    wrong_model = replace(model, ingress=_map_tables(model.ingress, swap_action))

    harness2 = SwitchVHarness(wrong_model, ReferenceSwitch(model))
    report2 = harness2.validate_data_plane(forwarding_state(p4info))
    print(f"incidents: {report2.incidents.count} (expected: > 0)")
    for incident in list(report2.incidents)[:3]:
        print(f"  - [{incident.source}] {incident.kind.value}: {incident.summary}")
    assert not report2.ok
    print("\nSwitchV found the model/switch divergence. Done.")


if __name__ == "__main__":
    main()
