"""Golden round-trip tests for MRT I/O: writer → parser → equality.

Records written with :mod:`repro.mrt.writer` must re-parse with
:mod:`repro.mrt.parser` into *equal* record objects (header and decoded
body), truncated tails must surface as a single :class:`CorruptRecord`
signal, and the bulk scan and its streaming fallback must return the same
records.
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
from repro.mrt.parser import MRTDumpReader, read_dump
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


class TestBulkScan:
    """The one-buffer scan and its streaming fallback: nothing outlives a
    read, damage is signalled, and the size gate bounds memory."""

    def test_reread_is_identical_and_shares_no_records(self, tmp_path):
        path = str(tmp_path / "golden.mrt")
        with MRTDumpWriter(path) as writer:
            writer.write_all(_golden_records())
        first = read_dump(path)
        second = read_dump(path)
        assert second == first == _golden_records()
        assert second[0] is not first[0]
        # A damaged dump signals the same way every time it is read.
        corrupt_file(path, truncate_at=os.path.getsize(path) - 3)
        damaged = read_dump(path)
        assert not damaged[-1].is_valid
        assert read_dump(path) == damaged

    def test_file_rewritten_in_place_returns_the_new_content(self, tmp_path):
        path = str(tmp_path / "golden.mrt")
        written = _golden_records()
        with MRTDumpWriter(path) as writer:
            writer.write_all(written)
        assert read_dump(path) == written
        # Rewrite with fewer records: nothing of the first read may survive.
        with MRTDumpWriter(path) as writer:
            writer.write_all(written[:2])
        assert read_dump(path) == written[:2]

    def test_compressed_and_uncompressed_dumps_read_the_same(self, tmp_path):
        """Gzip dumps are scanned from their decompressed buffer."""
        plain = str(tmp_path / "golden.mrt")
        compressed = str(tmp_path / "golden.mrt.gz")
        for path in (plain, compressed):
            with MRTDumpWriter(path, compress=path.endswith(".gz")) as writer:
                writer.write_all(_golden_records())
        assert open(compressed, "rb").read(2) == b"\x1f\x8b"
        assert read_dump(compressed) == read_dump(plain) == _golden_records()

    def test_corrupt_gzip_stream_falls_back_to_streaming_semantics(self, tmp_path):
        path = str(tmp_path / "golden.mrt.gz")
        with MRTDumpWriter(path, compress=True) as writer:
            writer.write_all(_golden_records())
        corrupt_file(path, truncate_at=os.path.getsize(path) - 4)  # clip CRC/size trailer
        records = read_dump(path)
        assert records, "a damaged gzip dump must still signal, not vanish"
        assert not records[-1].is_valid

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

    def test_oversized_decompressed_gzip_streams_instead_of_bloating(
        self, tmp_path, monkeypatch
    ):
        """The bulk-scan gate bounds the *decompressed* size of gzip dumps."""
        path = str(tmp_path / "golden.mrt.gz")
        with MRTDumpWriter(path, compress=True) as writer:
            for _ in range(50):  # highly compressible: decompressed >> on-disk
                writer.write_all(_golden_records())
        expected = read_dump(path)
        assert len(expected) == 50 * len(_golden_records())
        decompressed = len(b"".join(r.encode() for r in expected))
        assert os.path.getsize(path) < decompressed
        monkeypatch.setattr(mrt_parser, "BULK_SCAN_MAX", decompressed - 1)
        monkeypatch.setattr(MRTDumpReader, "_iter_buffer", _must_not_run)
        assert read_dump(path) == expected  # served by the streaming scan

    def test_gate_is_sized_from_the_open_file_not_the_path(self, tmp_path, monkeypatch):
        """A dump rotated away between open() and the scan (§3.2: archives
        change under the reader) is still bulk-scanned from its descriptor;
        if even the descriptor cannot be stat'ed, the streaming scan serves."""
        path = str(tmp_path / "golden.mrt")
        with MRTDumpWriter(path) as writer:
            writer.write_all(_golden_records())
        with monkeypatch.context() as patch:
            patch.setattr(MRTDumpReader, "_iter_streaming", _must_not_run)
            with MRTDumpReader(path) as reader:
                os.unlink(path)
                assert list(reader) == _golden_records()

        with MRTDumpWriter(path) as writer:
            writer.write_all(_golden_records())

        def no_fstat(fd):
            raise OSError("fstat refused")

        monkeypatch.setattr(mrt_parser.os, "fstat", no_fstat)
        monkeypatch.setattr(MRTDumpReader, "_iter_buffer", _must_not_run)
        assert read_dump(path) == _golden_records()

    def test_retired_index_names_are_inert_shims(self, tmp_path):
        """The header index is gone; the two names the frozen ledger still
        uses (``ledger/hist.py``) work and do nothing."""
        path = str(tmp_path / "golden.mrt")
        with MRTDumpWriter(path) as writer:
            writer.write_all(_golden_records())
        assert mrt_parser.clear_index_cache() is None
        with MRTDumpReader(path, use_index=False) as reader:
            assert list(reader) == _golden_records()
        assert not hasattr(reader, "use_index")
        for name in ("cached_index", "store_index", "index_cache_size", "IndexEntry", "DumpIndex"):
            assert not hasattr(mrt_parser, name), name
        with pytest.raises(TypeError):
            read_dump(path, use_index=False)


def _must_not_run(*args, **kwargs):
    raise AssertionError("the wrong scan served this read")
