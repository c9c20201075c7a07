"""Parser profiles: the enumerated shapes a parsed packet can take.

§5 "Limitations": p4-symbolic relies on "semi-hardcoded support for parser
patterns of interest" instead of a generic parser.  A *profile* is one
terminal parser state — a concrete set of valid headers together with the
field constraints that steer the parser there (ether types, IP protocol
numbers).  Header validity is concrete within a profile, so ``isValid()``
conditions never need symbolic booleans; the executor simply runs once per
profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.p4.headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    IP_PROTOCOL_ICMP,
    IP_PROTOCOL_TCP,
    IP_PROTOCOL_UDP,
)

_L4 = ((IP_PROTOCOL_ICMP, "icmp"), (IP_PROTOCOL_TCP, "tcp"), (IP_PROTOCOL_UDP, "udp"))


@dataclass(frozen=True)
class ParserProfile:
    """One terminal parser state."""

    name: str
    valid_headers: FrozenSet[str]
    # Field path -> pinned value (parser select equalities).
    pins: Tuple[Tuple[str, int], ...] = ()
    # Field path -> excluded values (fall-through select arms).
    exclusions: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()

    def pin_map(self) -> Dict[str, int]:
        return dict(self.pins)


def profiles_for_pattern(pattern: str) -> List[ParserProfile]:
    """All terminal states of a registered parser pattern, mirroring
    :func:`repro.bmv2.packet.parse_packet` exactly."""
    if pattern != "ethernet_ipv4_ipv6":
        raise ValueError(f"unknown parser pattern {pattern!r}")
    profiles: List[ParserProfile] = [
        ParserProfile(
            name="eth",
            valid_headers=frozenset({"ethernet"}),
            exclusions=(("ethernet.ether_type", (ETHERTYPE_IPV4, ETHERTYPE_IPV6)),),
        )
    ]
    for ip_header, ether_type, proto_field in (
        ("ipv4", ETHERTYPE_IPV4, "ipv4.protocol"),
        ("ipv6", ETHERTYPE_IPV6, "ipv6.next_header"),
    ):
        profiles.append(
            ParserProfile(
                name=f"eth_{ip_header}",
                valid_headers=frozenset({"ethernet", ip_header}),
                pins=(("ethernet.ether_type", ether_type),),
                exclusions=((proto_field, tuple(p for p, _n in _L4)),),
            )
        )
        profiles.extend(
            ParserProfile(
                name=f"eth_{ip_header}_{l4_header}",
                valid_headers=frozenset({"ethernet", ip_header, l4_header}),
                pins=(
                    ("ethernet.ether_type", ether_type),
                    (proto_field, proto),
                ),
            )
            for proto, l4_header in _L4
        )
    return profiles
