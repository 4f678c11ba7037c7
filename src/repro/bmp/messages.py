"""Structured BMP messages and their body codecs (RFC 7854).

Every message starts with the 6-byte common header (version, total length,
type); the per-peer message types then carry the 42-byte per-peer header.
``encode_body`` / ``decode_body`` implement the wire layout of each type;
the framing layer (common-header scan, corruption signalling) lives in
:mod:`repro.bmp.codec`, mirroring the :mod:`repro.mrt` records/parser
split.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.bgp.message import (
    BGPDecodeError,
    BGPOpen,
    BGPUpdate,
    decode_update,
    message_length,
)
from repro.bmp.constants import (
    BMP_VERSION,
    BMPMessageType,
    BMPPeerType,
    BMPStatType,
    BMPTerminationTLVType,
    PEER_FLAG_IPV6,
    PER_PEER_HEADER_LEN,
    stat_width,
)


def _pack_addr16(address: str) -> bytes:
    """Pack an address into a 16-byte field (IPv4 in the lowest 4 bytes)."""
    addr = ipaddress.ip_address(address)
    if addr.version == 6:
        return addr.packed
    return b"\x00" * 12 + addr.packed


def _unpack_addr16(data: bytes, ipv6: bool) -> str:
    """Read a 16-byte address field as IPv6, or IPv4 from the lowest 4 bytes."""
    # bytes() also accepts the memoryview slices the zero-copy scan hands in
    # (ipaddress constructors do not).
    if ipv6:
        return str(ipaddress.IPv6Address(bytes(data)))
    return str(ipaddress.IPv4Address(bytes(data[12:16])))


@dataclass(frozen=True, slots=True)
class BMPPeerHeader:
    """The 42-byte per-peer header (RFC 7854 §4.2).

    ``peer_flags`` carries the raw flags byte; the V (IPv6) bit is kept
    consistent with ``address`` on encode.  The timestamp is split into
    seconds and microseconds exactly as on the wire, so sub-second message
    times survive a round trip.
    """

    peer_type: BMPPeerType = BMPPeerType.GLOBAL_INSTANCE
    peer_flags: int = 0
    distinguisher: int = 0
    address: str = "0.0.0.0"
    asn: int = 0
    bgp_id: str = "0.0.0.0"
    timestamp_sec: int = 0
    timestamp_usec: int = 0

    @property
    def version(self) -> int:
        return ipaddress.ip_address(self.address).version

    @property
    def timestamp(self) -> float:
        """The peer-header timestamp as float seconds."""
        return self.timestamp_sec + self.timestamp_usec / 1_000_000

    def encode(self) -> bytes:
        flags = self.peer_flags & ~PEER_FLAG_IPV6
        if self.version == 6:
            flags |= PEER_FLAG_IPV6
        return (
            struct.pack("!BBQ", int(self.peer_type), flags, self.distinguisher)
            + _pack_addr16(self.address)
            + struct.pack("!I", self.asn)
            + ipaddress.IPv4Address(self.bgp_id).packed
            + struct.pack("!II", self.timestamp_sec, self.timestamp_usec)
        )

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> "BMPPeerHeader":
        if offset + PER_PEER_HEADER_LEN > len(data):
            raise ValueError("truncated BMP per-peer header")
        peer_type, flags, distinguisher = struct.unpack_from("!BBQ", data, offset)
        address = _unpack_addr16(
            data[offset + 10 : offset + 26], bool(flags & PEER_FLAG_IPV6)
        )
        asn, = struct.unpack_from("!I", data, offset + 26)
        bgp_id = str(ipaddress.IPv4Address(bytes(data[offset + 30 : offset + 34])))
        sec, usec = struct.unpack_from("!II", data, offset + 34)
        return cls(
            BMPPeerType(peer_type), flags, distinguisher, address, asn, bgp_id, sec, usec
        )


@dataclass(slots=True)
class BMPInfoTLV:
    """One Information TLV (Initiation/Termination/Peer Up, §4.4)."""

    tlv_type: int
    value: bytes

    @property
    def text(self) -> str:
        """The value as UTF-8 text (Information TLVs carry free-form strings)."""
        return self.value.decode("utf-8", errors="replace")

    def encode(self) -> bytes:
        return struct.pack("!HH", self.tlv_type, len(self.value)) + self.value


def _decode_tlvs(data: bytes, offset: int = 0) -> List[BMPInfoTLV]:
    tlvs: List[BMPInfoTLV] = []
    while offset < len(data):
        if offset + 4 > len(data):
            raise ValueError("truncated information TLV header")
        tlv_type, length = struct.unpack_from("!HH", data, offset)
        offset += 4
        if offset + length > len(data):
            raise ValueError("truncated information TLV value")
        tlvs.append(BMPInfoTLV(tlv_type, bytes(data[offset : offset + length])))
        offset += length
    return tlvs


@dataclass(slots=True)
class InitiationMessage:
    """The Initiation message a monitored router opens its feed with (§4.3)."""

    tlvs: List[BMPInfoTLV] = field(default_factory=list)

    def encode_body(self) -> bytes:
        return b"".join(tlv.encode() for tlv in self.tlvs)

    @classmethod
    def decode_body(cls, data: bytes) -> "InitiationMessage":
        return cls(_decode_tlvs(data))


@dataclass(slots=True)
class TerminationMessage:
    """The Termination message closing a feed (§4.5)."""

    tlvs: List[BMPInfoTLV] = field(default_factory=list)

    @property
    def reason(self) -> Optional[int]:
        """The 2-byte reason code, if a REASON TLV is present."""
        for tlv in self.tlvs:
            if tlv.tlv_type == BMPTerminationTLVType.REASON and len(tlv.value) == 2:
                return struct.unpack("!H", tlv.value)[0]
        return None

    def encode_body(self) -> bytes:
        return b"".join(tlv.encode() for tlv in self.tlvs)

    @classmethod
    def decode_body(cls, data: bytes) -> "TerminationMessage":
        return cls(_decode_tlvs(data))


@dataclass(slots=True)
class RouteMonitoringMessage:
    """Route Monitoring: one BGP UPDATE as seen from a peer (§4.6)."""

    peer: BMPPeerHeader
    update: BGPUpdate

    def encode_body(self) -> bytes:
        return self.peer.encode() + self.update.encode()

    @classmethod
    def decode_body(cls, data: bytes) -> "RouteMonitoringMessage":
        peer = BMPPeerHeader.decode(data)
        update = decode_update(data[PER_PEER_HEADER_LEN:])
        return cls(peer, update)


@dataclass(slots=True)
class BMPStat:
    """One Statistics Report counter TLV (§4.8).

    Known stat types carry an integer whose wire width (4-byte counter vs
    8-byte gauge) is a function of the type.  Unknown types (per-AFI/SAFI
    gauges, vendor extensions) are length-delimited on the wire, so their
    payload is kept as raw bytes: a well-formed report from a real feed
    round-trips instead of being flagged corrupt.
    """

    stat_type: int
    value: Union[int, bytes]

    def encode(self) -> bytes:
        if isinstance(self.value, int):
            width = stat_width(self.stat_type)
            payload = self.value.to_bytes(width, "big")
        else:
            payload = self.value
        return struct.pack("!HH", self.stat_type, len(payload)) + payload

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple:
        if offset + 4 > len(data):
            raise ValueError("truncated stats TLV header")
        stat_type, length = struct.unpack_from("!HH", data, offset)
        offset += 4
        if offset + length > len(data):
            raise ValueError("truncated stats TLV value")
        payload = data[offset : offset + length]
        try:
            known = BMPStatType(stat_type)
        except ValueError:
            return cls(stat_type, bytes(payload)), offset + length
        if length != stat_width(known):
            raise ValueError(f"stat type {stat_type} has implausible length {length}")
        return cls(stat_type, int.from_bytes(payload, "big")), offset + length


@dataclass(slots=True)
class StatisticsReport:
    """Statistics Report: periodic per-peer counters (§4.8)."""

    peer: BMPPeerHeader
    stats: List[BMPStat] = field(default_factory=list)

    def encode_body(self) -> bytes:
        out = bytearray(self.peer.encode())
        out += struct.pack("!I", len(self.stats))
        for stat in self.stats:
            out += stat.encode()
        return bytes(out)

    @classmethod
    def decode_body(cls, data: bytes) -> "StatisticsReport":
        peer = BMPPeerHeader.decode(data)
        (count,) = struct.unpack_from("!I", data, PER_PEER_HEADER_LEN)
        offset = PER_PEER_HEADER_LEN + 4
        stats: List[BMPStat] = []
        for _ in range(count):
            stat, offset = BMPStat.decode(data, offset)
            stats.append(stat)
        if offset != len(data):
            raise ValueError("trailing bytes after stats TLVs")
        return cls(peer, stats)


@dataclass(slots=True)
class PeerUpNotification:
    """Peer Up: a monitored session reached Established (§4.10)."""

    peer: BMPPeerHeader
    local_address: str = "0.0.0.0"
    local_port: int = 0
    remote_port: int = 0
    sent_open: BGPOpen = field(default_factory=BGPOpen)
    received_open: BGPOpen = field(default_factory=BGPOpen)
    information: List[BMPInfoTLV] = field(default_factory=list)

    def encode_body(self) -> bytes:
        out = bytearray(self.peer.encode())
        out += _pack_addr16(self.local_address)
        out += struct.pack("!HH", self.local_port, self.remote_port)
        out += self.sent_open.encode()
        out += self.received_open.encode()
        for tlv in self.information:
            out += tlv.encode()
        return bytes(out)

    @classmethod
    def decode_body(cls, data: bytes) -> "PeerUpNotification":
        peer = BMPPeerHeader.decode(data)
        offset = PER_PEER_HEADER_LEN
        if offset + 20 > len(data):
            raise ValueError("truncated Peer Up body")
        # The local-address family is independent of the peer's V flag (an
        # IPv4 session can be monitored from an IPv6 local address and vice
        # versa); the wire carries no flag for it, so infer from content:
        # IPv4 sits in the lowest-order 4 bytes with the upper 12 zeroed.
        # (IPv6 addresses inside ::/96 are indistinguishable from IPv4.)
        local_bytes = data[offset : offset + 16]
        local_address = _unpack_addr16(local_bytes, any(local_bytes[:12]))
        local_port, remote_port = struct.unpack_from("!HH", data, offset + 16)
        offset += 20
        try:
            sent_len = message_length(data, offset)
            sent_open = BGPOpen.decode(data[offset : offset + sent_len])
            offset += sent_len
            received_len = message_length(data, offset)
            received_open = BGPOpen.decode(data[offset : offset + received_len])
            offset += received_len
        except BGPDecodeError as exc:
            raise ValueError(f"bad OPEN inside Peer Up: {exc}") from exc
        information = _decode_tlvs(data, offset)
        return cls(
            peer, local_address, local_port, remote_port, sent_open, received_open, information
        )


@dataclass(slots=True)
class PeerDownNotification:
    """Peer Down: a monitored session went away (§4.9).

    ``data`` carries the reason-specific payload verbatim (a NOTIFICATION
    message for reasons 1/3, a 2-byte FSM event code for reason 2, nothing
    for reasons 4/5).
    """

    peer: BMPPeerHeader
    reason: int
    data: bytes = b""

    @property
    def fsm_code(self) -> Optional[int]:
        if len(self.data) == 2:
            return struct.unpack("!H", self.data)[0]
        return None

    def encode_body(self) -> bytes:
        return self.peer.encode() + bytes([self.reason]) + self.data

    @classmethod
    def decode_body(cls, data: bytes) -> "PeerDownNotification":
        peer = BMPPeerHeader.decode(data)
        if len(data) < PER_PEER_HEADER_LEN + 1:
            raise ValueError("truncated Peer Down body")
        reason = data[PER_PEER_HEADER_LEN]
        return cls(peer, reason, bytes(data[PER_PEER_HEADER_LEN + 1 :]))


@dataclass(slots=True)
class CorruptBMPMessage:
    """Placeholder body for a message whose payload could not be decoded."""

    reason: str
    raw: bytes = b""


#: Any decoded BMP body.
BMPBody = Union[
    RouteMonitoringMessage,
    StatisticsReport,
    PeerDownNotification,
    PeerUpNotification,
    InitiationMessage,
    TerminationMessage,
    CorruptBMPMessage,
]

#: Message type -> body class, used by the codec dispatch.
_BODY_CLASSES = {
    BMPMessageType.ROUTE_MONITORING: RouteMonitoringMessage,
    BMPMessageType.STATISTICS_REPORT: StatisticsReport,
    BMPMessageType.PEER_DOWN_NOTIFICATION: PeerDownNotification,
    BMPMessageType.PEER_UP_NOTIFICATION: PeerUpNotification,
    BMPMessageType.INITIATION: InitiationMessage,
    BMPMessageType.TERMINATION: TerminationMessage,
}


@dataclass(slots=True)
class BMPMessage:
    """A full BMP message: common header plus a decoded (or corrupt) body.

    ``msg_type`` is ``None`` when the common header itself was corrupt (the
    type could not be determined).
    """

    msg_type: Optional[BMPMessageType]
    body: BMPBody
    version: int = BMP_VERSION

    @property
    def is_valid(self) -> bool:
        return not isinstance(self.body, CorruptBMPMessage)

    @property
    def peer(self) -> Optional[BMPPeerHeader]:
        """The per-peer header, for the message types that carry one."""
        return getattr(self.body, "peer", None)

    def encode(self) -> bytes:
        """Encode common header + body to wire bytes (valid messages only)."""
        if isinstance(self.body, CorruptBMPMessage):
            body_bytes = self.body.raw
        else:
            body_bytes = self.body.encode_body()
        if self.msg_type is None:
            raise ValueError("cannot encode a message with an unknown type")
        total = 6 + len(body_bytes)
        return struct.pack("!BIB", self.version, total, int(self.msg_type)) + body_bytes

    # -- constructors ------------------------------------------------------

    @classmethod
    def route_monitoring(cls, peer: BMPPeerHeader, update: BGPUpdate) -> "BMPMessage":
        return cls(BMPMessageType.ROUTE_MONITORING, RouteMonitoringMessage(peer, update))

    @classmethod
    def peer_up(cls, peer: BMPPeerHeader, **kwargs) -> "BMPMessage":
        return cls(BMPMessageType.PEER_UP_NOTIFICATION, PeerUpNotification(peer, **kwargs))

    @classmethod
    def peer_down(cls, peer: BMPPeerHeader, reason: int, data: bytes = b"") -> "BMPMessage":
        return cls(
            BMPMessageType.PEER_DOWN_NOTIFICATION, PeerDownNotification(peer, reason, data)
        )

    @classmethod
    def stats_report(cls, peer: BMPPeerHeader, stats: List[BMPStat]) -> "BMPMessage":
        return cls(BMPMessageType.STATISTICS_REPORT, StatisticsReport(peer, stats))

    @classmethod
    def initiation(cls, tlvs: List[BMPInfoTLV]) -> "BMPMessage":
        return cls(BMPMessageType.INITIATION, InitiationMessage(tlvs))

    @classmethod
    def termination(cls, tlvs: List[BMPInfoTLV]) -> "BMPMessage":
        return cls(BMPMessageType.TERMINATION, TerminationMessage(tlvs))


def decode_message_body(msg_type: BMPMessageType, body: bytes) -> BMPBody:
    """Decode the body bytes of one message according to its type.

    Returns a :class:`CorruptBMPMessage` (never raises) when the body cannot
    be parsed, so the framing scan can keep walking the byte stream — the
    same discipline as :func:`repro.mrt.records.decode_record_body`.

    ``body`` may be a ``memoryview`` slice of the frame buffer (the
    zero-copy scan passes one).
    """
    body_cls = _BODY_CLASSES.get(msg_type)
    if body_cls is None:
        return CorruptBMPMessage(f"unsupported BMP message type {msg_type}", bytes(body))
    try:
        return body_cls.decode_body(body)
    except (ValueError, struct.error, IndexError, BGPDecodeError) as exc:
        return CorruptBMPMessage(f"decode error: {exc}", bytes(body))
