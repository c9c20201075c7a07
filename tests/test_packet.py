"""Tests for concrete packets: wire encode/decode and parser patterns."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bmv2 import packet as packet_module
from repro.bmv2.packet import (
    Packet,
    PacketError,
    deparse_packet,
    make_ipv4_packet,
    make_ipv6_packet,
    parse_packet,
)
from repro.p4.ast import HeaderType
from repro.p4.headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    IP_PROTOCOL_ICMP,
    IP_PROTOCOL_TCP,
    IP_PROTOCOL_UDP,
    STANDARD_HEADERS,
)
from tests import bitloop_codec


class TestConstruction:
    def test_ipv4_udp_packet(self):
        pkt = make_ipv4_packet(dst_addr=0x0A000001)
        assert pkt.valid_headers == {"ethernet", "ipv4", "udp"}
        assert pkt.get("ipv4.dst_addr") == 0x0A000001
        assert pkt.get("ethernet.ether_type") == ETHERTYPE_IPV4

    def test_ipv4_tcp_and_icmp(self):
        tcp = make_ipv4_packet(0x0A000001, protocol=IP_PROTOCOL_TCP)
        assert "tcp" in tcp.valid_headers
        icmp = make_ipv4_packet(0x0A000001, protocol=IP_PROTOCOL_ICMP)
        assert "icmp" in icmp.valid_headers

    def test_ipv6_packet(self):
        pkt = make_ipv6_packet(dst_addr=0x20010DB8 << 96)
        assert pkt.valid_headers == {"ethernet", "ipv6", "udp"}
        assert pkt.get("ethernet.ether_type") == ETHERTYPE_IPV6

    def test_copy_is_deep_for_fields(self):
        pkt = make_ipv4_packet(0x0A000001)
        clone = pkt.copy()
        clone.set("ipv4.ttl", 1)
        assert pkt.get("ipv4.ttl") != 1


class TestWireFormat:
    def test_roundtrip_ipv4(self):
        pkt = make_ipv4_packet(0x0A010203, ttl=7, payload=b"hello!")
        data = deparse_packet(pkt)
        # 14 (eth) + 20 (ipv4) + 8 (udp) + payload
        assert len(data) == 14 + 20 + 8 + 6
        parsed = parse_packet(data)
        assert parsed.signature() == pkt.signature()

    def test_roundtrip_ipv6(self):
        pkt = make_ipv6_packet(0x1234 << 96)
        parsed = parse_packet(deparse_packet(pkt))
        assert parsed.signature() == pkt.signature()

    def test_unknown_ethertype_leaves_payload(self):
        pkt = Packet()
        pkt.valid_headers.add("ethernet")
        pkt.fields.update(
            {
                "ethernet.dst_addr": 1,
                "ethernet.src_addr": 2,
                "ethernet.ether_type": 0x88CC,  # LLDP
            }
        )
        pkt.payload = b"tlvs"
        parsed = parse_packet(deparse_packet(pkt))
        assert parsed.valid_headers == {"ethernet"}
        assert parsed.payload == b"tlvs"

    def test_unknown_ip_protocol_stops_at_l3(self):
        pkt = make_ipv4_packet(0x0A000001, protocol=89)  # OSPF
        pkt.valid_headers.discard("udp")
        for name in list(pkt.fields):
            if name.startswith("udp."):
                del pkt.fields[name]
        parsed = parse_packet(deparse_packet(pkt))
        assert parsed.valid_headers == {"ethernet", "ipv4"}

    def test_truncated_packet_rejected(self):
        with pytest.raises(PacketError):
            parse_packet(b"\x00" * 10)  # shorter than an ethernet header

    def test_truncated_l3_rejected(self):
        header = (1).to_bytes(6, "big") + (2).to_bytes(6, "big") + ETHERTYPE_IPV4.to_bytes(2, "big")
        with pytest.raises(PacketError):
            parse_packet(header + b"\x00" * 8)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(PacketError):
            parse_packet(b"\x00" * 64, pattern="nonsense")


class TestWireProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 255),
        st.sampled_from([IP_PROTOCOL_UDP, IP_PROTOCOL_TCP, IP_PROTOCOL_ICMP, 50]),
        st.binary(max_size=64),
    )
    def test_ipv4_roundtrip_property(self, dst, src, ttl, protocol, payload):
        pkt = make_ipv4_packet(
            dst_addr=dst, src_addr=src, ttl=ttl, protocol=protocol, payload=payload
        )
        if protocol == 50:
            # make_ipv4_packet adds no L4 header for unknown protocols.
            pkt.valid_headers -= {"udp", "tcp", "icmp"}
        parsed = parse_packet(deparse_packet(pkt))
        assert parsed.signature() == pkt.signature()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**128 - 1), st.integers(0, 255))
    def test_ipv6_roundtrip_property(self, dst, hop_limit):
        pkt = make_ipv6_packet(dst_addr=dst, hop_limit=hop_limit)
        parsed = parse_packet(deparse_packet(pkt))
        assert parsed.signature() == pkt.signature()


# ----------------------------------------------------------------------
# The header-at-a-time codec against its bit-at-a-time spec
# ----------------------------------------------------------------------

_L3 = {"ipv4": (ETHERTYPE_IPV4, "ipv4.protocol"), "ipv6": (ETHERTYPE_IPV6, "ipv6.next_header")}
_L4 = {"icmp": IP_PROTOCOL_ICMP, "tcp": IP_PROTOCOL_TCP, "udp": IP_PROTOCOL_UDP}
HEADER_STACKS = [("ethernet",)] + [
    ("ethernet", l3, *l4) for l3 in _L3 for l4 in [(), *((name,) for name in _L4)]
]
_HEADERS = {h.name: h for h in STANDARD_HEADERS}


@st.composite
def stack_packets(draw, in_range):
    """A packet over one of the nine parseable header stacks.  In range:
    every field fits its width and the demux fields name the next header,
    so the packet survives a round trip.  Otherwise field values are
    anything, over-wide and negative included."""
    stack = draw(st.sampled_from(HEADER_STACKS))
    packet = Packet(valid_headers=set(stack), payload=draw(st.binary(max_size=24)))
    for name in stack:
        for fname, width in _HEADERS[name].fields:
            bound = (0, 2**width - 1) if in_range else (-(2 ** (width + 2)), 2 ** (width + 3))
            packet.fields[f"{name}.{fname}"] = draw(st.integers(*bound))
    if in_range:
        l3 = stack[1] if len(stack) > 1 else None
        packet.fields["ethernet.ether_type"] = _L3[l3][0] if l3 else 0x88CC
        if l3:
            packet.fields[_L3[l3][1]] = _L4[stack[2]] if len(stack) > 2 else 89
    return packet


def _outcome(decode, *args):
    try:
        return decode(*args)
    except PacketError as exc:
        return str(exc)


class TestAgainstBitLoopSpec:
    def test_the_strategy_reaches_every_header_stack(self):
        assert len(HEADER_STACKS) == 9
        assert {s[-1] for s in HEADER_STACKS} == {"ethernet", *_L3, *_L4}

    @settings(max_examples=150, deadline=None)
    @given(stack_packets(in_range=True))
    def test_round_trip_and_byte_equality(self, packet):
        data = deparse_packet(packet)
        assert data == bitloop_codec.deparse_packet(packet)
        assert parse_packet(data) == packet

    @settings(max_examples=150, deadline=None)
    @given(stack_packets(in_range=False))
    def test_over_wide_and_negative_values_truncate_like_the_spec(self, packet):
        data = deparse_packet(packet)
        assert data == bitloop_codec.deparse_packet(packet)
        assert _outcome(parse_packet, data) == _outcome(bitloop_codec.parse_packet, data)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=100))
    def test_arbitrary_bytes_give_a_packet_or_packet_error(self, data):
        # Any other exception escapes _outcome and fails the test.
        assert _outcome(parse_packet, data) == _outcome(bitloop_codec.parse_packet, data)

    @settings(max_examples=150, deadline=None)
    @given(stack_packets(in_range=True), st.data())
    def test_truncated_packets_give_the_spec_error(self, packet, data):
        wire = deparse_packet(packet)
        cut = wire[: data.draw(st.integers(0, len(wire)))]
        got = _outcome(parse_packet, cut)
        assert got == _outcome(bitloop_codec.parse_packet, cut)
        if len(cut) < len(wire) - len(packet.payload):
            assert isinstance(got, str) and got.startswith("truncated packet")

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 70), min_size=1, max_size=6),
        st.binary(max_size=60),
        st.integers(0, 17),
        st.data(),
    )
    def test_odd_field_widths_at_odd_offsets(self, widths, wire, bitpos, data):
        header = HeaderType("odd", tuple((f"f{i}", w) for i, w in enumerate(widths)))
        layout = packet_module._HeaderLayout(header)
        assert layout.bits == sum(widths)

        start = min(bitpos, len(wire) * 8)

        def spec_read():
            reader = bitloop_codec.BitReader(wire)
            reader.read(start)
            packet = Packet()
            bitloop_codec.read_header(reader, packet, header)
            return packet

        def layout_read():
            packet = Packet()
            assert layout.read(wire, start, packet) == start + layout.bits
            return packet

        assert _outcome(layout_read) == _outcome(spec_read)

        packet = Packet(
            fields={
                f"odd.f{i}": data.draw(st.integers(-(2 ** (w + 1)), 2 ** (w + 2)))
                for i, w in enumerate(widths)
                if data.draw(st.booleans())  # absent fields encode as zero
            }
        )
        pad = -layout.bits % 8
        writer = bitloop_codec.BitWriter()
        bitloop_codec.write_header(writer, packet, header)
        writer.write(0, pad)
        assert (layout.pack(packet) << pad).to_bytes((layout.bits + pad) // 8, "big") == (
            writer.finish()
        )

    def test_unaligned_stack_still_raises(self, monkeypatch):
        odd = HeaderType("ethernet", _HEADERS["ethernet"].fields + (("pad", 3),))
        layout = packet_module._HeaderLayout(odd)
        monkeypatch.setitem(packet_module._LAYOUTS, "ethernet", layout)
        monkeypatch.setattr(packet_module, "_DEPARSE_ORDER", (layout,))
        with pytest.raises(PacketError, match="not byte aligned"):
            parse_packet(b"\x00" * 40)
        with pytest.raises(PacketError, match="not byte aligned"):
            deparse_packet(Packet(valid_headers={"ethernet"}))
