"""Wire-format constants of the modeled parser (§5 "parser patterns of interest").

The packet codec (:mod:`repro.bmv2.packet`) and the symbolic parser
profiles (:mod:`repro.symbolic.profiles`) decode wire bytes with these
definitions, not with a program's own header declarations; every shipped
model declares exactly :data:`STANDARD_HEADERS` (tested).
"""

from __future__ import annotations

from typing import Tuple

from repro.p4.ast import HeaderType

ETHERNET = HeaderType(
    "ethernet",
    (
        ("dst_addr", 48),
        ("src_addr", 48),
        ("ether_type", 16),
    ),
)

IPV4 = HeaderType(
    "ipv4",
    (
        ("version", 4),
        ("ihl", 4),
        ("dscp", 6),
        ("ecn", 2),
        ("total_len", 16),
        ("identification", 16),
        ("flags", 3),
        ("frag_offset", 13),
        ("ttl", 8),
        ("protocol", 8),
        ("header_checksum", 16),
        ("src_addr", 32),
        ("dst_addr", 32),
    ),
)

IPV6 = HeaderType(
    "ipv6",
    (
        ("version", 4),
        ("dscp", 6),
        ("ecn", 2),
        ("flow_label", 20),
        ("payload_length", 16),
        ("next_header", 8),
        ("hop_limit", 8),
        ("src_addr", 128),
        ("dst_addr", 128),
    ),
)

ICMP = HeaderType(
    "icmp",
    (
        ("type", 8),
        ("code", 8),
        ("checksum", 16),
    ),
)

TCP = HeaderType(
    "tcp",
    (
        ("src_port", 16),
        ("dst_port", 16),
        ("seq_no", 32),
        ("ack_no", 32),
        ("data_offset", 4),
        ("res", 4),
        ("flags", 8),
        ("window", 16),
        ("checksum", 16),
        ("urgent_ptr", 16),
    ),
)

UDP = HeaderType(
    "udp",
    (
        ("src_port", 16),
        ("dst_port", 16),
        ("hdr_length", 16),
        ("checksum", 16),
    ),
)

STANDARD_HEADERS: Tuple[HeaderType, ...] = (ETHERNET, IPV4, IPV6, ICMP, TCP, UDP)

# Ether types used by the parsers and models.
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
IP_PROTOCOL_ICMP = 1
IP_PROTOCOL_TCP = 6
IP_PROTOCOL_UDP = 17
