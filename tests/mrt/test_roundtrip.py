"""Golden round-trip tests for MRT I/O: writer → parser → equality.

Records written with :mod:`repro.mrt.writer` must re-parse with
:mod:`repro.mrt.parser` into *equal* record objects (header and decoded
body), truncated tails must surface as a single :class:`CorruptRecord`
signal, and the parser's header-index cache must never change what a re-read
returns.
"""

from __future__ import annotations

import os

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.fsm import SessionState
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.mrt import parser as mrt_parser
from repro.mrt.parser import read_dump
from repro.mrt.records import (
    BGP4MPMessage,
    BGP4MPStateChange,
    CorruptRecord,
    MRTRecord,
    PeerEntry,
    PeerIndexTable,
    RIBEntry,
    RIBPrefixRecord,
)
from repro.mrt.writer import MRTDumpWriter, corrupt_file


def _attrs(asns):
    return PathAttributes(as_path=ASPath.from_asns(asns), next_hop="10.0.0.1")


def _golden_records():
    """A dump exercising every record type the writer can produce."""
    peers = [
        PeerEntry("10.0.0.1", "10.0.0.1", 64500),
        PeerEntry("10.0.0.2", "2001:db8::2", 64501),
    ]
    index = PeerIndexTable("198.51.100.1", "default", peers)
    rib = RIBPrefixRecord(
        0,
        Prefix.from_string("192.0.2.0/24"),
        [RIBEntry(0, 900, _attrs([64500, 3356, 15169])), RIBEntry(1, 910, _attrs([64501, 15169]))],
    )
    message = BGP4MPMessage(
        64500,
        65000,
        "10.0.0.1",
        "10.0.0.254",
        BGPUpdate(
            announced=[Prefix.from_string("198.51.100.0/24")],
            withdrawn=[Prefix.from_string("203.0.113.0/24")],
            attributes=_attrs([64500, 1299]),
        ),
    )
    change = BGP4MPStateChange(
        64500, 65000, "10.0.0.1", "10.0.0.254", SessionState.ESTABLISHED, SessionState.IDLE
    )
    return [
        MRTRecord.peer_index_table(1000, index),
        MRTRecord.rib_prefix(1000, rib),
        MRTRecord.bgp4mp_message(1010, message),
        MRTRecord.bgp4mp_state_change(1020, change),
    ]


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_golden_round_trip_record_equality(tmp_path, compress):
    path = str(tmp_path / ("golden.mrt" + (".gz" if compress else "")))
    written = _golden_records()
    with MRTDumpWriter(path, compress=compress) as writer:
        writer.write_all(written)
    reread = read_dump(path)
    assert reread == written  # full dataclass equality: headers and bodies


def test_round_trip_is_byte_stable(tmp_path):
    """encode(decode(bytes)) == bytes for a whole dump."""
    path = str(tmp_path / "golden.mrt")
    with MRTDumpWriter(path) as writer:
        writer.write_all(_golden_records())
    with open(path, "rb") as handle:
        original = handle.read()
    assert b"".join(r.encode() for r in read_dump(path)) == original


def test_truncated_tail_signals_one_corrupt_record(tmp_path):
    path = str(tmp_path / "updates.mrt")
    written = _golden_records()
    with MRTDumpWriter(path) as writer:
        writer.write_all(written)
    size = os.path.getsize(path)
    last_len = len(written[-1].encode())
    # Truncate inside the last record's body: every earlier record survives
    # byte-identically, the tail becomes exactly one CorruptRecord signal.
    corrupt_file(path, truncate_at=size - last_len + 14)
    reread = read_dump(path)
    assert reread[:-1] == written[:-1]
    assert isinstance(reread[-1].body, CorruptRecord)
    assert not reread[-1].is_valid
    assert reread[-1].body.reason == "truncated record body"


@pytest.mark.parametrize("cut", [1, 5, 11])
def test_truncation_inside_a_header(tmp_path, cut):
    path = str(tmp_path / "updates.mrt")
    written = _golden_records()
    with MRTDumpWriter(path) as writer:
        writer.write_all(written)
    first_len = len(written[0].encode())
    corrupt_file(path, truncate_at=first_len + cut)
    reread = read_dump(path)
    assert reread[0] == written[0]
    assert len(reread) == 2
    assert isinstance(reread[1].body, CorruptRecord)
    assert "truncated MRT header" in reread[1].body.reason


def test_mid_file_undecodable_body_does_not_stop_the_read(tmp_path):
    """A record with intact framing but garbage payload is signalled and
    skipped; later records still parse (libBGPdump extension, §3.3.3)."""
    path = str(tmp_path / "updates.mrt")
    first, last = _golden_records()[2], _golden_records()[3]
    bad_body = b"\xff" * 10
    bad = bytearray(first.encode()[:12])
    bad[8:12] = len(bad_body).to_bytes(4, "big")
    with open(path, "wb") as handle:
        handle.write(first.encode() + bytes(bad) + bad_body + last.encode())
    reread = read_dump(path)
    assert len(reread) == 3
    assert reread[0] == first
    assert not reread[1].is_valid
    assert reread[2] == last


class TestHeaderIndexCache:
    def setup_method(self):
        mrt_parser.clear_index_cache()

    def test_reread_hits_cache_and_is_identical(self, tmp_path):
        path = str(tmp_path / "golden.mrt")
        with MRTDumpWriter(path) as writer:
            writer.write_all(_golden_records())
        first = read_dump(path)
        assert mrt_parser.cached_index(path) is not None
        assert len(mrt_parser.cached_index(path).entries) == len(first)
        second = read_dump(path)
        assert second == first

    def test_cache_invalidated_when_file_changes(self, tmp_path):
        path = str(tmp_path / "golden.mrt")
        written = _golden_records()
        with MRTDumpWriter(path) as writer:
            writer.write_all(written)
        read_dump(path)
        assert mrt_parser.cached_index(path) is not None
        # Rewrite with fewer records: the stale index must not be used.
        with MRTDumpWriter(path) as writer:
            writer.write_all(written[:2])
        assert mrt_parser.cached_index(path) is None
        assert read_dump(path) == written[:2]

    def test_corrupt_dump_is_never_cached(self, tmp_path):
        path = str(tmp_path / "golden.mrt")
        with MRTDumpWriter(path) as writer:
            writer.write_all(_golden_records())
        corrupt_file(path, truncate_at=os.path.getsize(path) - 3)
        read_dump(path)
        assert mrt_parser.cached_index(path) is None

    def test_compressed_dumps_are_indexed_too(self, tmp_path):
        """The index is built over the decompressed buffer of gzip dumps."""
        path = str(tmp_path / "golden.mrt.gz")
        with MRTDumpWriter(path, compress=True) as writer:
            writer.write_all(_golden_records())
        assert read_dump(path) == _golden_records()
        index = mrt_parser.cached_index(path)
        assert index is not None
        assert len(index.entries) == len(_golden_records())
        assert read_dump(path) == _golden_records()

    def test_corrupt_gzip_stream_falls_back_to_streaming_semantics(self, tmp_path):
        path = str(tmp_path / "golden.mrt.gz")
        with MRTDumpWriter(path, compress=True) as writer:
            writer.write_all(_golden_records())
        corrupt_file(path, truncate_at=os.path.getsize(path) - 4)  # clip CRC/size trailer
        records = read_dump(path)
        assert records, "a damaged gzip dump must still signal, not vanish"
        assert not records[-1].is_valid
        assert mrt_parser.cached_index(path) is None

    def test_mid_stream_gzip_corruption_signals_instead_of_raising(self, tmp_path):
        """A flipped byte inside the deflate stream must yield a read-error
        signal through the streaming fallback, never an exception."""
        path = str(tmp_path / "golden.mrt.gz")
        with MRTDumpWriter(path, compress=True) as writer:
            writer.write_all(_golden_records())
        data = bytearray(open(path, "rb").read())
        # Flip a byte mid-file: inside the deflate payload, past the variable
        # gzip header (which embeds the filename), before the CRC trailer.
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(data)
        records = read_dump(path)  # must not raise
        assert records
        assert not records[-1].is_valid
        assert mrt_parser.cached_index(path) is None

    def test_oversized_decompressed_gzip_streams_instead_of_ballooning(
        self, tmp_path, monkeypatch
    ):
        """The bulk-scan gate bounds the *decompressed* size of gzip dumps."""
        path = str(tmp_path / "golden.mrt.gz")
        with MRTDumpWriter(path, compress=True) as writer:
            for _ in range(50):  # highly compressible: decompressed >> on-disk
                writer.write_all(_golden_records())
        expected = read_dump(path)
        assert len(expected) == 50 * len(_golden_records())
        mrt_parser.clear_index_cache()
        decompressed = len(b"".join(r.encode() for r in expected))
        assert os.path.getsize(path) < decompressed
        monkeypatch.setattr(mrt_parser, "BULK_SCAN_MAX", decompressed - 1)
        assert read_dump(path) == expected  # served by the streaming scan
        assert mrt_parser.cached_index(path) is None

    def test_record_cache_round_trip(self, tmp_path):
        path = str(tmp_path / "golden.mrt")
        with MRTDumpWriter(path) as writer:
            writer.write_all(_golden_records())
        first = read_dump(path)
        index = mrt_parser.cached_index(path)
        assert index is not None and len(index.entries) == len(first)
        # The header index serves re-reads (bodies are decoded afresh: no
        # decoded-record objects are shared between reads)...
        second = read_dump(path)
        assert second == first
        assert second[0] is not first[0]
        # ...and invalidates when the file changes.
        with MRTDumpWriter(path) as writer:
            writer.write_all(_golden_records()[:1])
        assert read_dump(path) == _golden_records()[:1]

    def test_use_index_false_bypasses_the_cache(self, tmp_path):
        path = str(tmp_path / "golden.mrt")
        with MRTDumpWriter(path) as writer:
            writer.write_all(_golden_records())
        assert read_dump(path, use_index=False) == _golden_records()
        assert mrt_parser.cached_index(path) is None

    def test_cache_is_bounded(self, tmp_path):
        records = _golden_records()[:1]
        limit = mrt_parser._INDEX_CACHE_MAX
        for i in range(limit + 20):
            path = str(tmp_path / f"d{i}.mrt")
            with MRTDumpWriter(path) as writer:
                writer.write_all(records)
            read_dump(path)
        assert mrt_parser.index_cache_size() <= limit
