"""The bit-at-a-time packet codec: the executable spec of ``repro.bmv2.packet``.

This is the reader/writer the production module used before it moved to one
``int.from_bytes`` / ``int.to_bytes`` per header, verbatim: a Python loop
iteration per bit, field by field, so there is nothing to get wrong about
shifts or alignment.  Slow on purpose; the tests require the production
codec to produce the same packets, the same bytes and the same errors.
"""

from typing import List, Optional

from repro.bmv2.packet import Packet, PacketError
from repro.p4.headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    IP_PROTOCOL_ICMP,
    IP_PROTOCOL_TCP,
    IP_PROTOCOL_UDP,
    STANDARD_HEADERS,
)

_HEADERS_BY_NAME = {h.name: h for h in STANDARD_HEADERS}


class BitReader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._bitpos = 0

    @property
    def remaining_bits(self) -> int:
        return len(self._data) * 8 - self._bitpos

    def read(self, width: int) -> int:
        if width > self.remaining_bits:
            raise PacketError(f"truncated packet: wanted {width} bits, have {self.remaining_bits}")
        value = 0
        for _ in range(width):
            byte = self._data[self._bitpos // 8]
            bit = (byte >> (7 - (self._bitpos % 8))) & 1
            value = (value << 1) | bit
            self._bitpos += 1
        return value

    def rest(self) -> bytes:
        if self._bitpos % 8 != 0:
            raise PacketError("header stack not byte aligned")
        return self._data[self._bitpos // 8 :]


class BitWriter:
    def __init__(self) -> None:
        self._bits: List[int] = []

    def write(self, value: int, width: int) -> None:
        self._bits.extend((value >> i) & 1 for i in range(width - 1, -1, -1))

    def finish(self) -> bytes:
        if len(self._bits) % 8 != 0:
            raise PacketError("header stack not byte aligned")
        out = bytearray()
        for i in range(0, len(self._bits), 8):
            byte = 0
            for bit in self._bits[i : i + 8]:
                byte = (byte << 1) | bit
            out.append(byte)
        return bytes(out)


def read_header(reader: BitReader, packet: Packet, header) -> None:
    for fname, width in header.fields:
        packet.fields[f"{header.name}.{fname}"] = reader.read(width)
    packet.valid_headers.add(header.name)


def write_header(writer: BitWriter, packet: Packet, header) -> None:
    for fname, width in header.fields:
        writer.write(packet.get(f"{header.name}.{fname}"), width)


def parse_packet(data: bytes, pattern: str = "ethernet_ipv4_ipv6") -> Packet:
    if pattern != "ethernet_ipv4_ipv6":
        raise PacketError(f"unknown parser pattern {pattern!r}")
    packet = Packet()
    reader = BitReader(data)
    read_header(reader, packet, _HEADERS_BY_NAME["ethernet"])
    ether_type = packet.get("ethernet.ether_type")
    protocol: Optional[int] = None
    if ether_type == ETHERTYPE_IPV4:
        read_header(reader, packet, _HEADERS_BY_NAME["ipv4"])
        protocol = packet.get("ipv4.protocol")
    elif ether_type == ETHERTYPE_IPV6:
        read_header(reader, packet, _HEADERS_BY_NAME["ipv6"])
        protocol = packet.get("ipv6.next_header")
    if protocol == IP_PROTOCOL_ICMP:
        read_header(reader, packet, _HEADERS_BY_NAME["icmp"])
    elif protocol == IP_PROTOCOL_TCP:
        read_header(reader, packet, _HEADERS_BY_NAME["tcp"])
    elif protocol == IP_PROTOCOL_UDP:
        read_header(reader, packet, _HEADERS_BY_NAME["udp"])
    packet.payload = reader.rest()
    return packet


_DEPARSE_ORDER = ("ethernet", "ipv4", "ipv6", "icmp", "tcp", "udp")


def deparse_packet(packet: Packet) -> bytes:
    writer = BitWriter()
    for header in _DEPARSE_ORDER:
        if packet.is_valid(header):
            write_header(writer, packet, _HEADERS_BY_NAME[header])
    return writer.finish() + packet.payload
