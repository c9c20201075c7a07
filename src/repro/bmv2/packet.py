"""Concrete packets: field maps with wire encode/decode.

A :class:`Packet` is a mapping from dotted field paths (``"ipv4.dst_addr"``)
to unsigned integers, plus the set of valid headers and an opaque payload.
The parser patterns here are the "semi-hardcoded parser patterns of
interest" from §5: Ethernet, then IPv4 or IPv6 by ether type, then
ICMP/TCP/UDP by protocol.

The same encode/decode is used by the switch under test, the BMv2
simulator, and packet-io (PacketIn/PacketOut payloads), so a disagreement
between switch and simulator is never a serialization artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from repro.p4.headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    IP_PROTOCOL_ICMP,
    IP_PROTOCOL_TCP,
    IP_PROTOCOL_UDP,
    STANDARD_HEADERS,
)


class PacketError(ValueError):
    """Raised for malformed packets (truncated headers, bad versions)."""


@dataclass
class Packet:
    """A concrete packet: header fields, validity, and payload."""

    fields: Dict[str, int] = field(default_factory=dict)
    valid_headers: Set[str] = field(default_factory=set)
    payload: bytes = b""

    def get(self, path: str, default: int = 0) -> int:
        return self.fields.get(path, default)

    def set(self, path: str, value: int) -> None:
        self.fields[path] = value

    def is_valid(self, header: str) -> bool:
        return header in self.valid_headers

    def copy(self) -> "Packet":
        return Packet(
            fields=dict(self.fields),
            valid_headers=set(self.valid_headers),
            payload=self.payload,
        )

    def signature(self) -> Tuple:
        """A hashable identity of header contents (for behaviour comparison)."""
        return (
            tuple(sorted(self.valid_headers)),
            tuple(sorted(self.fields.items())),
            self.payload,
        )

    def __repr__(self) -> str:
        hdrs = "/".join(sorted(self.valid_headers)) or "raw"
        return f"Packet({hdrs}, {len(self.payload)}B payload)"


# ----------------------------------------------------------------------
# Header layouts: one big-endian integer per header
# ----------------------------------------------------------------------


class _HeaderLayout:
    """A header's fields as (path, shift, mask, width) within one ``bits``-wide int."""

    def __init__(self, header) -> None:
        self.name = header.name
        self.bits = header.bit_width
        fields = []
        shift = self.bits
        for fname, width in header.fields:
            shift -= width
            fields.append((f"{header.name}.{fname}", shift, (1 << width) - 1, width))
        self.fields: Tuple[Tuple[str, int, int, int], ...] = tuple(fields)

    def read(self, data: bytes, bitpos: int, packet: Packet) -> int:
        """Decode this header at ``bitpos``; returns the position after it."""
        end = bitpos + self.bits
        have = len(data) * 8 - bitpos
        if self.bits > have:
            for _path, _shift, _mask, width in self.fields:  # name the first field cut short
                if width > have:
                    raise PacketError(f"truncated packet: wanted {width} bits, have {have}")
                have -= width
        last = (end + 7) // 8
        word = int.from_bytes(data[bitpos // 8 : last], "big") >> (last * 8 - end)
        fields = packet.fields
        for path, shift, mask, _width in self.fields:
            fields[path] = (word >> shift) & mask
        packet.valid_headers.add(self.name)
        return end

    def pack(self, packet: Packet) -> int:
        """This header's fields (truncated to their widths) as one integer."""
        get = packet.fields.get
        word = 0
        for path, shift, mask, _width in self.fields:
            word |= (get(path, 0) & mask) << shift
        return word


_LAYOUTS = {h.name: _HeaderLayout(h) for h in STANDARD_HEADERS}
_L4 = {IP_PROTOCOL_ICMP: "icmp", IP_PROTOCOL_TCP: "tcp", IP_PROTOCOL_UDP: "udp"}
# header -> (the field that names what follows it, value -> next header)
_DEMUX = {
    "ethernet": ("ethernet.ether_type", {ETHERTYPE_IPV4: "ipv4", ETHERTYPE_IPV6: "ipv6"}),
    "ipv4": ("ipv4.protocol", _L4),
    "ipv6": ("ipv6.next_header", _L4),
}

# ----------------------------------------------------------------------
# Parser patterns (§5 "Limitations": semi-hardcoded parsers)
# ----------------------------------------------------------------------


def parse_packet(data: bytes, pattern: str = "ethernet_ipv4_ipv6") -> Packet:
    """Parse wire bytes into a :class:`Packet` using a registered pattern."""
    if pattern != "ethernet_ipv4_ipv6":
        raise PacketError(f"unknown parser pattern {pattern!r}")
    packet = Packet()
    pos, header = 0, "ethernet"
    while header is not None:
        pos = _LAYOUTS[header].read(data, pos, packet)
        selector, following = _DEMUX.get(header, (None, {}))
        header = following.get(packet.fields.get(selector))
    if pos % 8 != 0:
        raise PacketError("header stack not byte aligned")
    packet.payload = data[pos // 8 :]
    return packet


_DEPARSE_ORDER = tuple(
    _LAYOUTS[name] for name in ("ethernet", "ipv4", "ipv6", "icmp", "tcp", "udp")
)


def deparse_packet(packet: Packet) -> bytes:
    """Serialize a packet back to wire bytes (valid headers in order)."""
    word = bits = 0
    for layout in _DEPARSE_ORDER:
        if layout.name in packet.valid_headers:
            word = (word << layout.bits) | layout.pack(packet)
            bits += layout.bits
    if bits % 8 != 0:
        raise PacketError("header stack not byte aligned")
    return word.to_bytes(bits // 8, "big") + packet.payload


# ----------------------------------------------------------------------
# Packet construction helpers
# ----------------------------------------------------------------------


def make_ipv4_packet(
    dst_addr: int,
    src_addr: int = 0x0A000001,
    ttl: int = 64,
    protocol: int = IP_PROTOCOL_UDP,
    dst_mac: int = 0x00AABBCCDDEE,
    src_mac: int = 0x001122334455,
    dscp: int = 0,
    l4_dst_port: int = 443,
    payload: bytes = b"payload",
) -> Packet:
    """A well-formed IPv4/UDP (or TCP/ICMP) packet for tests and examples."""
    packet = Packet(payload=payload)
    packet.valid_headers.add("ethernet")
    packet.fields.update(
        {
            "ethernet.dst_addr": dst_mac,
            "ethernet.src_addr": src_mac,
            "ethernet.ether_type": ETHERTYPE_IPV4,
        }
    )
    packet.valid_headers.add("ipv4")
    packet.fields.update(
        {
            "ipv4.version": 4,
            "ipv4.ihl": 5,
            "ipv4.dscp": dscp,
            "ipv4.ecn": 0,
            "ipv4.total_len": 20 + len(payload),
            "ipv4.identification": 0,
            "ipv4.flags": 0,
            "ipv4.frag_offset": 0,
            "ipv4.ttl": ttl,
            "ipv4.protocol": protocol,
            "ipv4.header_checksum": 0,
            "ipv4.src_addr": src_addr,
            "ipv4.dst_addr": dst_addr,
        }
    )
    if protocol == IP_PROTOCOL_UDP:
        packet.valid_headers.add("udp")
        packet.fields.update(
            {
                "udp.src_port": 10000,
                "udp.dst_port": l4_dst_port,
                "udp.hdr_length": 8 + len(payload),
                "udp.checksum": 0,
            }
        )
    elif protocol == IP_PROTOCOL_TCP:
        packet.valid_headers.add("tcp")
        packet.fields.update(
            {
                "tcp.src_port": 10000,
                "tcp.dst_port": l4_dst_port,
                "tcp.seq_no": 0,
                "tcp.ack_no": 0,
                "tcp.data_offset": 5,
                "tcp.res": 0,
                "tcp.flags": 0x02,
                "tcp.window": 0xFFFF,
                "tcp.checksum": 0,
                "tcp.urgent_ptr": 0,
            }
        )
    elif protocol == IP_PROTOCOL_ICMP:
        packet.valid_headers.add("icmp")
        packet.fields.update({"icmp.type": 8, "icmp.code": 0, "icmp.checksum": 0})
    return packet


def make_ipv6_packet(
    dst_addr: int,
    src_addr: int = 0x20010DB8_00000000_00000000_00000001,
    hop_limit: int = 64,
    next_header: int = IP_PROTOCOL_UDP,
    dst_mac: int = 0x00AABBCCDDEE,
    src_mac: int = 0x001122334455,
    payload: bytes = b"payload",
) -> Packet:
    packet = Packet(payload=payload)
    packet.valid_headers.add("ethernet")
    packet.fields.update(
        {
            "ethernet.dst_addr": dst_mac,
            "ethernet.src_addr": src_mac,
            "ethernet.ether_type": ETHERTYPE_IPV6,
        }
    )
    packet.valid_headers.add("ipv6")
    packet.fields.update(
        {
            "ipv6.version": 6,
            "ipv6.dscp": 0,
            "ipv6.ecn": 0,
            "ipv6.flow_label": 0,
            "ipv6.payload_length": len(payload),
            "ipv6.next_header": next_header,
            "ipv6.hop_limit": hop_limit,
            "ipv6.src_addr": src_addr,
            "ipv6.dst_addr": dst_addr,
        }
    )
    if next_header == IP_PROTOCOL_UDP:
        packet.valid_headers.add("udp")
        packet.fields.update(
            {
                "udp.src_port": 10000,
                "udp.dst_port": 443,
                "udp.hdr_length": 8 + len(payload),
                "udp.checksum": 0,
            }
        )
    return packet
