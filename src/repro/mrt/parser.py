"""Reading MRT dump files.

The reader mirrors the behaviour the paper describes for its extended
libBGPdump (§3.3.3): it can read many files from a single process, it
auto-detects gzip compression, and it *signals* corruption — a record whose
header or body cannot be decoded is returned with a :class:`CorruptRecord`
body (``record.is_valid`` is False) instead of aborting the whole dump.  A
file that cannot be opened at all raises :class:`MRTParseError`; the stream
layer converts that into a not-valid BGPStream record.

Two throughput features:

* a precompiled :class:`struct.Struct` fast path for the 12-byte common
  header, used by both the streaming scan and the bulk scan; and
* a **bulk scan**: a dump of plausible size is read (and, for gzip dumps,
  decompressed) into one in-memory buffer with a single read and parsed with
  zero per-record I/O.  A gzip stream that does not decompress cleanly falls
  back to the classic streaming scan over the same bytes, preserving
  corruption-signalling behaviour exactly.

Nothing is kept once a file has been read: the reader holds no more than
the open files, and reuse across runs is the persistent
:class:`repro.broker.segments.SegmentCache`'s job.
"""

from __future__ import annotations

import gzip
import io
import os
import struct
import zlib
from typing import IO, Iterator, List, Optional, Tuple

from repro.core import metrics
from repro.mrt.constants import MRT_HEADER_LEN, MRTType
from repro.mrt.records import CorruptRecord, MRTHeader, MRTRecord, decode_record_body

#: gzip magic bytes, used to auto-detect compressed dumps.
_GZIP_MAGIC = b"\x1f\x8b"

#: An upper bound on a plausible MRT record body; larger lengths are treated
#: as corruption (a single TABLE_DUMP_V2 record never remotely approaches
#: this in practice).
MAX_RECORD_LEN = 64 * 1024 * 1024

#: Precompiled codec for the MRT common header: timestamp, type, subtype, length.
_HEADER_STRUCT = struct.Struct("!IHHI")

# Decode-tier series, bound once; counted only while metrics are enabled.
_records_scanned = metrics.decode_records_scanned.labels()
_bytes_viewed = metrics.decode_bytes.labels("viewed")
_bytes_copied = metrics.decode_bytes.labels("copied")

#: Files up to this on-disk size are scanned from one in-memory buffer (one
#: read call, zero per-record I/O); larger files use the streaming scan.
BULK_SCAN_MAX = 128 * 1024 * 1024


class MRTParseError(Exception):
    """Raised when a dump file cannot be opened or read at all."""


def file_signature(path: str) -> Optional[Tuple[int, int]]:
    """The ``(st_size, st_mtime_ns)`` identity of a dump file's content.

    The persistent decoded-segment cache (:mod:`repro.broker.segments`) keys
    on this: a file whose signature changed is a different file, and
    anything cached under the old signature must miss.  Returns None when
    the file cannot be stat'ed.
    """
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_size, stat.st_mtime_ns)


def clear_index_cache() -> None:
    """No-op: the header index is gone.  Kept importable only because the
    frozen ledger calls it by name (``ledger/hist.py:293``)."""


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


class MRTDumpReader:
    """Iterate the MRT records of one dump file.

    Iteration yields :class:`MRTRecord` objects.  A corrupt tail (truncated
    header or body) yields one final record flagged as invalid and then
    stops, matching the "signal a corrupted read" extension of libBGPdump.

    ``use_index`` is accepted and ignored: the header index is gone and the
    argument survives only because the frozen ledger passes it
    (``ledger/hist.py:440``).

    The bulk scan hands zero-copy ``memoryview`` slices of the dump buffer
    to the decode layer, so path attributes are parsed only when an elem
    consumer actually reads them (records pin their dump buffer until their
    deferred attributes materialise).
    """

    def __init__(self, path: str, use_index: bool = True) -> None:
        self.path = path
        self._raw: Optional[IO[bytes]] = None
        self._handle: Optional[IO[bytes]] = None
        self._compressed = False

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        if not os.path.exists(self.path):
            raise MRTParseError(f"dump file does not exist: {self.path}")
        try:
            raw = open(self.path, "rb")
            magic = raw.read(2)
            raw.seek(0)
            self._raw = raw
            if magic == _GZIP_MAGIC:
                self._handle = gzip.open(raw)
                self._compressed = True
            else:
                self._handle = raw
                self._compressed = False
        except OSError as exc:
            raise MRTParseError(f"cannot open dump file {self.path}: {exc}") from exc

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._raw is not None:
            self._raw.close()
            self._raw = None

    def __enter__(self) -> "MRTDumpReader":
        self.open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- iteration ---------------------------------------------------------

    def __iter__(self) -> Iterator[MRTRecord]:
        if self._handle is None:
            self.open()
        assert self._handle is not None and self._raw is not None
        # Size the gate from the open descriptor, not the path: when a
        # collector rotates the file after open(), the gate and the bytes
        # read below still belong to the same inode.
        try:
            bulk = os.fstat(self._raw.fileno()).st_size <= BULK_SCAN_MAX
        except OSError:
            bulk = False
        if bulk:
            try:
                self._raw.seek(0)
                blob = self._raw.read()
            except OSError as exc:
                yield _corrupt(f"read error: {exc}")
                return
            if self._compressed:
                data = _decompress_bounded(blob, BULK_SCAN_MAX)
                if data is None:
                    # Corrupt, truncated, multi-member or implausibly large
                    # gzip streams keep the classic streaming behaviour
                    # (records until the failure point, then a read-error
                    # signal; bounded memory) over the same bytes.
                    yield from self._iter_streaming(gzip.open(io.BytesIO(blob)))
                    return
            else:
                data = blob
            yield from self._iter_buffer(data)
            return

        yield from self._iter_streaming(self._handle)

    # The streaming scan: one header read + one body read per record.  Used
    # for implausibly large files and corrupt gzip streams.
    def _iter_streaming(self, handle: IO[bytes]) -> Iterator[MRTRecord]:
        unpack = _HEADER_STRUCT.unpack
        counting = metrics.enabled
        while True:
            try:
                header_bytes = handle.read(MRT_HEADER_LEN)
            except (OSError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
                yield _corrupt(f"read error: {exc}")
                return
            if not header_bytes:
                return  # clean end of file
            if len(header_bytes) < MRT_HEADER_LEN:
                yield _corrupt("truncated MRT header at end of file", header_bytes)
                return
            timestamp, raw_type, subtype, body_length = unpack(header_bytes)
            try:
                header = MRTHeader(timestamp, MRTType(raw_type), subtype)
            except ValueError as exc:
                yield _corrupt(f"bad MRT header: {exc}", header_bytes)
                return
            if body_length > MAX_RECORD_LEN:
                yield _corrupt(f"implausible record length {body_length}", header_bytes)
                return
            try:
                body_bytes = handle.read(body_length)
            except (OSError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
                yield _corrupt(f"read error in record body: {exc}", header_bytes)
                return
            if len(body_bytes) < body_length:
                yield MRTRecord(header, CorruptRecord("truncated record body", body_bytes))
                return
            if counting:
                _records_scanned.inc()
                _bytes_copied.inc(MRT_HEADER_LEN + body_length)
            body = decode_record_body(header, header.subtype, body_bytes)
            yield MRTRecord(header, body)

    # The bulk scan: the whole (decompressed) dump parsed from one buffer.
    def _iter_buffer(self, data: bytes) -> Iterator[MRTRecord]:
        # One memoryview over the whole buffer: every header peek, body
        # extraction and deferred attribute slice below is a zero-copy view
        # of this one allocation.
        view = memoryview(data)
        counting = metrics.enabled
        unpack_from = _HEADER_STRUCT.unpack_from
        size = len(data)
        offset = 0
        scanned = 0
        while offset < size:
            if offset + MRT_HEADER_LEN > size:
                yield _corrupt("truncated MRT header at end of file", data[offset:])
                break
            timestamp, raw_type, subtype, body_length = unpack_from(data, offset)
            try:
                header = MRTHeader(timestamp, MRTType(raw_type), subtype)
            except ValueError as exc:
                header_bytes = data[offset : offset + MRT_HEADER_LEN]
                yield _corrupt(f"bad MRT header: {exc}", header_bytes)
                break
            if body_length > MAX_RECORD_LEN:
                header_bytes = data[offset : offset + MRT_HEADER_LEN]
                yield _corrupt(f"implausible record length {body_length}", header_bytes)
                break
            body_offset = offset + MRT_HEADER_LEN
            if body_offset + body_length > size:
                body_bytes = data[body_offset:]
                yield MRTRecord(header, CorruptRecord("truncated record body", body_bytes))
                break
            body_view = view[body_offset : body_offset + body_length]
            scanned += 1
            yield MRTRecord(header, decode_record_body(header, subtype, body_view))
            offset = body_offset + body_length
        if counting:
            _records_scanned.inc(scanned)
            _bytes_viewed.inc(offset)


def _decompress_bounded(blob: bytes, limit: int) -> Optional[bytes]:
    """Fully decompress a single-member gzip blob, or None if it cannot be
    done safely: corrupt/truncated stream, trailing or multi-member data, or
    decompressed size beyond ``limit`` (decompression-bomb guard)."""
    try:
        decompressor = zlib.decompressobj(wbits=31)  # gzip container
        data = decompressor.decompress(blob, limit + 1)
        if len(data) > limit or not decompressor.eof or decompressor.unused_data:
            return None
        return data
    except zlib.error:
        return None


def read_dump(path: str) -> List[MRTRecord]:
    """Read an entire dump file into a list of records."""
    with MRTDumpReader(path) as reader:
        return list(reader)


def _corrupt(reason: str, raw: bytes = b"") -> MRTRecord:
    header = MRTHeader(0, MRTType.BGP4MP, 0)
    return MRTRecord(header, CorruptRecord(reason, raw))
