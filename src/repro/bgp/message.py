"""BGP UPDATE message wire encoding and decoding (RFC 4271 §4.3).

MRT BGP4MP_MESSAGE records embed a complete BGP message (including the
16-byte marker header); TABLE_DUMP_V2 RIB entries embed only the attribute
block.  This module provides the full-message codec used by the collector
simulation when writing Updates dumps and by the MRT parser when reading
them back.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List

from repro.bgp.attributes import PathAttributes, decode_attributes
from repro.bgp.prefix import Prefix

#: The BGP message marker: 16 bytes of 0xFF (RFC 4271 §4.1).
MARKER = b"\xff" * 16

#: Fixed BGP header size (marker + length + type).
HEADER_LEN = 19

#: Maximum BGP message size.
MAX_MESSAGE_LEN = 4096


class MessageType(IntEnum):
    """The BGP message type codes of RFC 4271 §4.1."""

    OPEN = 1
    UPDATE = 2
    NOTIFICATION = 3
    KEEPALIVE = 4


class BGPDecodeError(ValueError):
    """Raised when a BGP message cannot be decoded (corrupt or truncated)."""


@dataclass(slots=True)
class BGPUpdate:
    """A decoded BGP UPDATE message.

    ``withdrawn`` and ``announced`` carry IPv4 prefixes from the classic
    NLRI fields; IPv6 prefixes travel inside ``attributes.mp_reach_nlri``
    and ``attributes.mp_unreach_nlri``.
    """

    withdrawn: List[Prefix] = field(default_factory=list)
    announced: List[Prefix] = field(default_factory=list)
    attributes: PathAttributes = field(default_factory=PathAttributes)

    @property
    def all_announced(self) -> List[Prefix]:
        """IPv4 and IPv6 prefixes announced by this message."""
        return list(self.announced) + list(self.attributes.mp_reach_nlri)

    @property
    def all_withdrawn(self) -> List[Prefix]:
        """IPv4 and IPv6 prefixes withdrawn by this message."""
        return list(self.withdrawn) + list(self.attributes.mp_unreach_nlri)

    def encode(self) -> bytes:
        """Encode as a complete BGP message (with marker header)."""
        withdrawn_block = b"".join(p.encode() for p in self.withdrawn)
        has_mp = self.attributes.mp_reach_nlri or self.attributes.mp_unreach_nlri
        attr_block = self.attributes.encode() if (self.announced or has_mp) else b""
        nlri_block = b"".join(p.encode() for p in self.announced)
        body = (
            struct.pack("!H", len(withdrawn_block))
            + withdrawn_block
            + struct.pack("!H", len(attr_block))
            + attr_block
            + nlri_block
        )
        total = HEADER_LEN + len(body)
        if total > MAX_MESSAGE_LEN:
            raise ValueError(f"BGP message too large ({total} bytes)")
        header = MARKER + struct.pack("!HB", total, int(MessageType.UPDATE))
        return header + body


@dataclass(slots=True)
class BGPOpen:
    """A BGP OPEN message (RFC 4271 §4.2).

    Carried verbatim inside BMP Peer Up notifications (the sent and received
    OPENs of the monitored session).  ``asn`` is the 2-byte My-AS field;
    4-byte AS speakers put AS_TRANS (23456) here and negotiate the real ASN
    through a capability, which travels opaquely in ``opt_params``.
    """

    version: int = 4
    asn: int = 0
    hold_time: int = 180
    bgp_id: str = "0.0.0.0"
    opt_params: bytes = b""

    def encode(self) -> bytes:
        """Encode as a complete BGP message (with marker header)."""
        body = (
            struct.pack("!BHH", self.version, self.asn, self.hold_time)
            + ipaddress.IPv4Address(self.bgp_id).packed
            + bytes([len(self.opt_params)])
            + self.opt_params
        )
        total = HEADER_LEN + len(body)
        header = MARKER + struct.pack("!HB", total, int(MessageType.OPEN))
        return header + body

    @classmethod
    def decode(cls, data: bytes) -> "BGPOpen":
        """Decode a complete OPEN message; raises :class:`BGPDecodeError`."""
        body = _decode_header(data, MessageType.OPEN)
        if len(body) < 10:
            raise BGPDecodeError("OPEN body too short")
        version, asn, hold_time = struct.unpack_from("!BHH", body, 0)
        bgp_id = str(ipaddress.IPv4Address(bytes(body[5:9])))
        opt_len = body[9]
        if 10 + opt_len != len(body):
            raise BGPDecodeError("OPEN optional-parameters length mismatch")
        return cls(version, asn, hold_time, bgp_id, bytes(body[10 : 10 + opt_len]))


def _decode_header(data: bytes, expected_type: "MessageType") -> bytes:
    """Validate the marker header of one complete message; return the body.

    Raises :class:`BGPDecodeError` on a short buffer, bad marker, length
    mismatch, or unexpected message type.
    """
    if len(data) < HEADER_LEN:
        raise BGPDecodeError("message shorter than BGP header")
    if data[:16] != MARKER:
        raise BGPDecodeError("bad BGP marker")
    (length, msg_type) = struct.unpack_from("!HB", data, 16)
    if length != len(data):
        raise BGPDecodeError(f"length field {length} does not match data size {len(data)}")
    if msg_type != expected_type:
        raise BGPDecodeError(f"not an {expected_type.name} message (type {msg_type})")
    return data[HEADER_LEN:]


def message_length(data: bytes, offset: int = 0) -> int:
    """The total length of the BGP message starting at ``offset``.

    Used to split back-to-back BGP messages (a BMP Peer Up carries two OPENs
    head to tail).  Raises :class:`BGPDecodeError` on a bad header.
    """
    if offset + HEADER_LEN > len(data):
        raise BGPDecodeError("message shorter than BGP header")
    if data[offset : offset + 16] != MARKER:
        raise BGPDecodeError("bad BGP marker")
    (length,) = struct.unpack_from("!H", data, offset + 16)
    if length < HEADER_LEN:
        raise BGPDecodeError(f"implausible BGP message length {length}")
    return length


def encode_update(update: BGPUpdate) -> bytes:
    """Functional alias for :meth:`BGPUpdate.encode`."""
    return update.encode()


def decode_update(data: bytes) -> BGPUpdate:
    """Decode a complete BGP UPDATE message (with marker header).

    Raises :class:`BGPDecodeError` on any structural problem; the MRT layer
    converts that into a corrupted-record signal, exactly as the extended
    libBGPdump in the paper signals corrupted reads to libBGPStream.

    ``data`` may be a ``memoryview`` (the zero-copy readers pass views of
    the dump/frame buffer straight through).  The attribute block is kept
    as zero-copy slices and value construction is deferred to first read;
    structural corruption still raises here.
    """
    body = _decode_header(data, MessageType.UPDATE)
    try:
        return _decode_update_body(body)
    except (ValueError, struct.error) as exc:
        raise BGPDecodeError(str(exc)) from exc


def _decode_update_body(body: bytes) -> BGPUpdate:
    if len(body) < 4:
        raise BGPDecodeError("UPDATE body too short")
    (withdrawn_len,) = struct.unpack_from("!H", body, 0)
    offset = 2
    withdrawn_end = offset + withdrawn_len
    if withdrawn_end + 2 > len(body):
        raise BGPDecodeError("withdrawn routes overrun message")
    withdrawn: List[Prefix] = []
    while offset < withdrawn_end:
        prefix, offset = Prefix.decode(body, offset, version=4)
        withdrawn.append(prefix)

    (attr_len,) = struct.unpack_from("!H", body, withdrawn_end)
    offset = withdrawn_end + 2
    attr_end = offset + attr_len
    if attr_end > len(body):
        raise BGPDecodeError("path attributes overrun message")
    attributes = decode_attributes(body[offset:attr_end]) if attr_len else PathAttributes()

    announced: List[Prefix] = []
    offset = attr_end
    while offset < len(body):
        prefix, offset = Prefix.decode(body, offset, version=4)
        announced.append(prefix)
    return BGPUpdate(withdrawn=withdrawn, announced=announced, attributes=attributes)
