"""Structured MRT records and their binary codecs.

Every record type carries a :class:`MRTHeader` (timestamp, type, subtype)
plus a type-specific body.  ``encode_body`` / ``decode_body`` implement the
RFC 6396 wire layout; the high-level dump reader/writer live in
:mod:`repro.mrt.parser` and :mod:`repro.mrt.writer`.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, field
from typing import List, Tuple, Union

from repro.bgp.attributes import PathAttributes, decode_attributes
from repro.bgp.fsm import SessionState
from repro.bgp.message import BGPUpdate, decode_update
from repro.bgp.prefix import Prefix
from repro.bgp.wirecache import address_str
from repro.mrt.constants import (
    AFI_IPV4,
    AFI_IPV6,
    BGP4MPSubtype,
    MRTType,
    PEER_TYPE_AS4,
    PEER_TYPE_IPV6,
    TableDumpV2Subtype,
)


@dataclass(frozen=True, slots=True)
class MRTHeader:
    """The 12-byte MRT common header."""

    timestamp: int
    mrt_type: MRTType
    subtype: int

    def encode(self, body_length: int, microseconds: int | None = None) -> bytes:
        header = struct.pack(
            "!IHHI", self.timestamp, int(self.mrt_type), int(self.subtype), body_length
        )
        return header

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> Tuple["MRTHeader", int, int]:
        """Decode a header; returns (header, body_length, new_offset)."""
        if offset + 12 > len(data):
            raise ValueError("truncated MRT header")
        timestamp, mrt_type, subtype, length = struct.unpack_from("!IHHI", data, offset)
        return cls(timestamp, MRTType(mrt_type), subtype), length, offset + 12


# ---------------------------------------------------------------------------
# TABLE_DUMP_V2
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PeerEntry:
    """One peer (vantage point) entry of the PEER_INDEX_TABLE."""

    bgp_id: str
    address: str
    asn: int

    @property
    def version(self) -> int:
        return ipaddress.ip_address(self.address).version

    def encode(self) -> bytes:
        addr = ipaddress.ip_address(self.address)
        peer_type = PEER_TYPE_AS4
        if addr.version == 6:
            peer_type |= PEER_TYPE_IPV6
        return (
            bytes([peer_type])
            + ipaddress.IPv4Address(self.bgp_id).packed
            + addr.packed
            + struct.pack("!I", self.asn)
        )

    @classmethod
    def decode(cls, data: bytes, offset: int) -> Tuple["PeerEntry", int]:
        peer_type = data[offset]
        offset += 1
        bgp_id = address_str(bytes(data[offset : offset + 4]))
        offset += 4
        if peer_type & PEER_TYPE_IPV6:
            address = address_str(bytes(data[offset : offset + 16]))
            offset += 16
        else:
            address = address_str(bytes(data[offset : offset + 4]))
            offset += 4
        if peer_type & PEER_TYPE_AS4:
            (asn,) = struct.unpack_from("!I", data, offset)
            offset += 4
        else:
            (asn,) = struct.unpack_from("!H", data, offset)
            offset += 2
        return cls(bgp_id, address, asn), offset


@dataclass(slots=True)
class PeerIndexTable:
    """The PEER_INDEX_TABLE record that opens every TABLE_DUMP_V2 RIB dump."""

    collector_bgp_id: str
    view_name: str
    peers: List[PeerEntry] = field(default_factory=list)

    def encode_body(self) -> bytes:
        view = self.view_name.encode()
        out = bytearray(ipaddress.IPv4Address(self.collector_bgp_id).packed)
        out += struct.pack("!H", len(view)) + view
        out += struct.pack("!H", len(self.peers))
        for peer in self.peers:
            out += peer.encode()
        return bytes(out)

    @classmethod
    def decode_body(cls, data: bytes) -> "PeerIndexTable":
        collector_id = address_str(bytes(data[0:4]))
        (view_len,) = struct.unpack_from("!H", data, 4)
        offset = 6
        view_name = bytes(data[offset : offset + view_len]).decode(errors="replace")
        offset += view_len
        (peer_count,) = struct.unpack_from("!H", data, offset)
        offset += 2
        peers: List[PeerEntry] = []
        for _ in range(peer_count):
            peer, offset = PeerEntry.decode(data, offset)
            peers.append(peer)
        return cls(collector_id, view_name, peers)


@dataclass(slots=True)
class RIBEntry:
    """One route inside a RIB prefix record: which peer, when, which attributes."""

    peer_index: int
    originated_time: int
    attributes: PathAttributes

    def encode(self) -> bytes:
        attr_bytes = self.attributes.encode()
        return (
            struct.pack("!HIH", self.peer_index, self.originated_time, len(attr_bytes))
            + attr_bytes
        )

    @classmethod
    def decode(cls, data: bytes, offset: int) -> Tuple["RIBEntry", int]:
        peer_index, originated, attr_len = struct.unpack_from("!HIH", data, offset)
        offset += 8
        attrs = decode_attributes(data[offset : offset + attr_len])
        return cls(peer_index, originated, attrs), offset + attr_len


@dataclass(slots=True)
class RIBPrefixRecord:
    """A RIB_IPV4_UNICAST / RIB_IPV6_UNICAST record: one prefix, many entries."""

    sequence: int
    prefix: Prefix
    entries: List[RIBEntry] = field(default_factory=list)

    @property
    def subtype(self) -> TableDumpV2Subtype:
        if self.prefix.version == 6:
            return TableDumpV2Subtype.RIB_IPV6_UNICAST
        return TableDumpV2Subtype.RIB_IPV4_UNICAST

    def encode_body(self) -> bytes:
        out = bytearray(struct.pack("!I", self.sequence))
        out += self.prefix.encode()
        out += struct.pack("!H", len(self.entries))
        for entry in self.entries:
            out += entry.encode()
        return bytes(out)

    @classmethod
    def decode_body(cls, data: bytes, version: int) -> "RIBPrefixRecord":
        (sequence,) = struct.unpack_from("!I", data, 0)
        prefix, offset = Prefix.decode(data, 4, version=version)
        (entry_count,) = struct.unpack_from("!H", data, offset)
        offset += 2
        entries: List[RIBEntry] = []
        for _ in range(entry_count):
            entry, offset = RIBEntry.decode(data, offset)
            entries.append(entry)
        return cls(sequence, prefix, entries)


# ---------------------------------------------------------------------------
# BGP4MP
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class BGP4MPMessage:
    """A BGP4MP_MESSAGE_AS4 record: one BGP UPDATE seen from a peer."""

    peer_asn: int
    local_asn: int
    peer_address: str
    local_address: str
    update: BGPUpdate

    @property
    def afi(self) -> int:
        return AFI_IPV6 if ipaddress.ip_address(self.peer_address).version == 6 else AFI_IPV4

    def encode_body(self) -> bytes:
        peer = ipaddress.ip_address(self.peer_address)
        local = ipaddress.ip_address(self.local_address)
        out = bytearray(struct.pack("!IIHH", self.peer_asn, self.local_asn, 0, self.afi))
        out += peer.packed + local.packed
        out += self.update.encode()
        return bytes(out)

    @classmethod
    def decode_body(cls, data: bytes) -> "BGP4MPMessage":
        peer_asn, local_asn, _ifidx, afi = struct.unpack_from("!IIHH", data, 0)
        offset = 12
        addr_len = 16 if afi == AFI_IPV6 else 4
        peer_address = address_str(bytes(data[offset : offset + addr_len]))
        offset += addr_len
        local_address = address_str(bytes(data[offset : offset + addr_len]))
        offset += addr_len
        update = decode_update(data[offset:])
        return cls(peer_asn, local_asn, peer_address, local_address, update)


@dataclass(slots=True)
class BGP4MPStateChange:
    """A BGP4MP_STATE_CHANGE_AS4 record: the session FSM moved state."""

    peer_asn: int
    local_asn: int
    peer_address: str
    local_address: str
    old_state: SessionState
    new_state: SessionState

    @property
    def afi(self) -> int:
        return AFI_IPV6 if ipaddress.ip_address(self.peer_address).version == 6 else AFI_IPV4

    def encode_body(self) -> bytes:
        peer = ipaddress.ip_address(self.peer_address)
        local = ipaddress.ip_address(self.local_address)
        out = bytearray(struct.pack("!IIHH", self.peer_asn, self.local_asn, 0, self.afi))
        out += peer.packed + local.packed
        out += struct.pack("!HH", int(self.old_state), int(self.new_state))
        return bytes(out)

    @classmethod
    def decode_body(cls, data: bytes) -> "BGP4MPStateChange":
        peer_asn, local_asn, _ifidx, afi = struct.unpack_from("!IIHH", data, 0)
        offset = 12
        addr_len = 16 if afi == AFI_IPV6 else 4
        peer_address = address_str(bytes(data[offset : offset + addr_len]))
        offset += addr_len
        local_address = address_str(bytes(data[offset : offset + addr_len]))
        offset += addr_len
        old_state, new_state = struct.unpack_from("!HH", data, offset)
        return cls(
            peer_asn,
            local_asn,
            peer_address,
            local_address,
            SessionState(old_state),
            SessionState(new_state),
        )


@dataclass(slots=True)
class CorruptRecord:
    """Placeholder body for a record whose payload could not be decoded."""

    reason: str
    raw: bytes = b""


#: Any decoded MRT body.
MRTBody = Union[
    PeerIndexTable, RIBPrefixRecord, BGP4MPMessage, BGP4MPStateChange, CorruptRecord
]


@dataclass(slots=True)
class MRTRecord:
    """A full MRT record: common header plus a decoded (or corrupt) body."""

    header: MRTHeader
    body: MRTBody

    @property
    def timestamp(self) -> int:
        return self.header.timestamp

    @property
    def is_valid(self) -> bool:
        return not isinstance(self.body, CorruptRecord)

    def encode(self) -> bytes:
        """Encode header + body to wire bytes (valid records only)."""
        if isinstance(self.body, CorruptRecord):
            body_bytes = self.body.raw
        elif isinstance(self.body, RIBPrefixRecord):
            body_bytes = self.body.encode_body()
        else:
            body_bytes = self.body.encode_body()
        return self.header.encode(len(body_bytes)) + body_bytes

    # -- constructors used by the collector simulation ---------------------

    @classmethod
    def peer_index_table(cls, timestamp: int, table: PeerIndexTable) -> "MRTRecord":
        header = MRTHeader(
            timestamp, MRTType.TABLE_DUMP_V2, TableDumpV2Subtype.PEER_INDEX_TABLE
        )
        return cls(header, table)

    @classmethod
    def rib_prefix(cls, timestamp: int, record: RIBPrefixRecord) -> "MRTRecord":
        header = MRTHeader(timestamp, MRTType.TABLE_DUMP_V2, record.subtype)
        return cls(header, record)

    @classmethod
    def bgp4mp_message(cls, timestamp: int, message: BGP4MPMessage) -> "MRTRecord":
        header = MRTHeader(timestamp, MRTType.BGP4MP, BGP4MPSubtype.MESSAGE_AS4)
        return cls(header, message)

    @classmethod
    def bgp4mp_state_change(
        cls, timestamp: int, change: BGP4MPStateChange
    ) -> "MRTRecord":
        header = MRTHeader(timestamp, MRTType.BGP4MP, BGP4MPSubtype.STATE_CHANGE_AS4)
        return cls(header, change)


def decode_record_body(header: MRTHeader, subtype: int, body: bytes) -> MRTBody:
    """Decode the body bytes of a record according to its type and subtype.

    Returns a :class:`CorruptRecord` (never raises) when the body cannot be
    parsed, so the caller can propagate the not-valid status the way
    libBGPStream does.

    Prefixes and address strings come out canonical (the wire caches of
    :mod:`repro.bgp.wirecache`); path-attribute value construction is
    deferred to first read, which is also where AS paths and community sets
    are interned (:class:`~repro.bgp.attributes.LazyPathAttributes`).
    """
    try:
        if header.mrt_type == MRTType.TABLE_DUMP_V2:
            td_subtype = TableDumpV2Subtype(subtype)
            if td_subtype == TableDumpV2Subtype.PEER_INDEX_TABLE:
                return PeerIndexTable.decode_body(body)
            if td_subtype == TableDumpV2Subtype.RIB_IPV4_UNICAST:
                return RIBPrefixRecord.decode_body(body, version=4)
            if td_subtype == TableDumpV2Subtype.RIB_IPV6_UNICAST:
                return RIBPrefixRecord.decode_body(body, version=6)
            return CorruptRecord(
                f"unsupported TABLE_DUMP_V2 subtype {subtype}", bytes(body)
            )
        if header.mrt_type in (MRTType.BGP4MP, MRTType.BGP4MP_ET):
            bgp_subtype = BGP4MPSubtype(subtype)
            if bgp_subtype in (BGP4MPSubtype.MESSAGE, BGP4MPSubtype.MESSAGE_AS4):
                return BGP4MPMessage.decode_body(body)
            if bgp_subtype in (
                BGP4MPSubtype.STATE_CHANGE,
                BGP4MPSubtype.STATE_CHANGE_AS4,
            ):
                return BGP4MPStateChange.decode_body(body)
            return CorruptRecord(f"unsupported BGP4MP subtype {subtype}", bytes(body))
        return CorruptRecord(f"unsupported MRT type {header.mrt_type}", bytes(body))
    except (ValueError, struct.error, IndexError) as exc:
        return CorruptRecord(f"decode error: {exc}", bytes(body))
