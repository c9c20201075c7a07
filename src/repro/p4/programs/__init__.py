"""Role-specific P4 model instantiations (§3 "Role Specific Instantiations").

The paper builds one P4 model per deployment role from a common SAI-shaped
component library.  Each of our models is a P4-16 source file in this
package, in the dialect of :mod:`repro.p4.parser`, and the file *is* the
model: every ``build_*_program()`` call parses it afresh, so callers own the
program object they get.

* ``sai_tor.p4`` — the ToR instantiation ("Inst1" in Table 3): the common L3
  flow (l3_admit → pre-ingress ACL → VRF → IPv4/IPv6 LPM → WCMP → nexthop →
  neighbor → router interface), fixed TTL/broadcast traps, the ToR ingress
  ACL key combination, and mirroring.
* ``sai_wan.p4`` — the WAN instantiation ("Inst2"): the same flow with
  larger route tables, a different ACL key combination and an egress ACL.
* ``cerberus.p4`` — the Cerberus-style pipeline: the same flow plus IPv4
  tunnel encap/decap (§6: "more involved forwarding pipelines and additional
  features such as encapsulation and decapsulation").
* ``toy_router.p4`` — the Figure 2 fragment (vrf_tbl + ipv4_tbl), used by
  unit tests and the quickstart example.

The common flow is written out in each role file; ``python -m repro.analysis
--contract`` fails on any disagreement between same-named tables or actions.
"""

from importlib import resources

from repro.p4.ast import P4Program
from repro.p4.parser import parse_program


def _parse(filename: str) -> P4Program:
    return parse_program(resources.files(__name__).joinpath(filename).read_text("utf-8"))


def build_toy_program() -> P4Program:
    """The Figure 2 toy router (``toy_router.p4``)."""
    return _parse("toy_router.p4")


def build_tor_program() -> P4Program:
    """The ToR model (``sai_tor.p4``)."""
    return _parse("sai_tor.p4")


def build_wan_program() -> P4Program:
    """The WAN model (``sai_wan.p4``)."""
    return _parse("sai_wan.p4")


def build_cerberus_program() -> P4Program:
    """The Cerberus model (``cerberus.p4``)."""
    return _parse("cerberus.p4")


__all__ = [
    "build_cerberus_program",
    "build_tor_program",
    "build_toy_program",
    "build_wan_program",
]
