#!/usr/bin/env python3
"""The P4 text *is* the specification.

The shipped models are P4-16 source files packaged with
``repro.p4.programs`` — the "living documentation" of §3.  This example
reads ``sai_tor.p4`` as package data, parses it, and runs a full
SwitchV validation whose only specification is that text.

Run:  python examples/p4_text_models.py
"""

from importlib import resources

from repro.fuzzer import FuzzerConfig
from repro.p4.p4info import build_p4info
from repro.p4.parser import parse_program
from repro.switch import PinsSwitchStack
from repro.switchv import SwitchVHarness
from repro.workloads import production_like_entries


def main() -> None:
    source = resources.files("repro.p4.programs").joinpath("sai_tor.p4").read_text("utf-8")
    print(f"loaded sai_tor.p4: {len(source.splitlines())} lines of P4")

    model = parse_program(source)
    p4info = build_p4info(model)
    print(f"{model.name} (role {model.role}): {len(model.tables())} tables, "
          f"contract fingerprint {p4info.fingerprint()[:16]}")

    harness = SwitchVHarness(model, PinsSwitchStack(model))
    entries = production_like_entries(p4info, total=80, seed=5)
    report = harness.validate(entries, FuzzerConfig(num_writes=15, updates_per_write=20, seed=5))
    print(f"SwitchV (text-driven): {report.incidents.count} incidents "
          f"across {report.fuzz.updates_sent} updates and "
          f"{report.data_plane.packets_tested} packets")
    assert report.ok


if __name__ == "__main__":
    main()
