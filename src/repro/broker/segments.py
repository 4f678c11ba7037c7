"""The persistent decoded-segment cache: repeated analyses skip wire decode.

The MRT parser keeps nothing once a file has been read.  This tier, the
only cache on the read path, persists the *decoded* form of each dump file
as a **segment** on disk, so the second analysis of a window — tomorrow, or
in another process — never touches the MRT wire format at all: it unpickles
ready-made :class:`~repro.core.record.BGPStreamRecord` lists instead of
decompressing, scanning and decoding dumps.

Design points:

* **Keyed by the file signature.**  A segment belongs to one dump file
  *content*: the key is the file path plus its ``(st_size, st_mtime_ns)``
  signature (:func:`repro.mrt.parser.file_signature`).  A rewritten dump
  silently misses and re-decodes; a stale segment can never be served.
* **Columnar layout.**  A segment stores the per-record header fields as
  packed arrays (timestamps, MRT types/subtypes, statuses, positions) and
  the decoded bodies as one pickled list — cheaper to write and to load
  than a million tiny per-record pickles, and the record wrappers are
  rebuilt in one tight loop on load.
* **Dedup for free.**  Decoded values are born canonical — one object per
  distinct prefix, address, AS path and community set
  (:mod:`repro.bgp.wirecache`, :mod:`repro.core.intern`) — so pickle's
  identity memo stores each exactly once per segment with no pass of ours.
  On load the three value classes restore *through* the same wire cache /
  intern pool (their ``__reduce__``), so a value read from a segment is the
  object a fresh decode would return and values stay shared across segment
  files; only address strings are shared per segment rather than per
  process.
* **Size-bounded LRU.**  A small SQLite manifest next to the segment files
  tracks byte sizes and a monotonic use counter; storing beyond
  ``max_bytes`` evicts the least-recently-used segments.  Segment files are
  written atomically (temp file + rename) and a segment that fails to load
  (torn write, foreign bytes) is **quarantined** — renamed to
  ``<segment>.corrupt`` (mirroring the broker-db recovery discipline),
  counted, dropped from the manifest and treated as a miss — the wire
  decode path is always there as the fallback, and the preserved bytes are
  there for a post-mortem.
* **Observable.**  Hit/miss/store/eviction counters are kept per cache
  handle (:meth:`SegmentCache.stats`) and counted process-wide in
  ``repro_segment_cache_events_total``, which ``--decode-stats`` reads, so
  a warm replay visibly reports where its records came from.

Processes share a cache by *path*: each one opens ``SegmentCache(root)``
on the same directory and SQLite's locking arbitrates concurrent access.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import threading
from array import array
from typing import List, Optional, Sequence, Tuple

from repro.core import metrics
from repro.core.record import BGPStreamRecord, DumpPosition, RecordStatus
from repro.mrt.constants import MRTType
from repro.mrt.parser import file_signature
from repro.mrt.records import MRTHeader, MRTRecord

#: Default on-disk budget for segment payloads (bytes).
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Bump when the segment payload layout changes (the pickled form of a
#: value class counts).  The version is part of the segment key, so segments
#: of another layout are never opened: they miss, and age out by LRU.
#: 2: ``Prefix`` / ``ASPath`` / ``CommunitySet`` pickle through ``__reduce__``.
SEGMENT_VERSION = 2

_STATUSES: Tuple[RecordStatus, ...] = tuple(RecordStatus)
_STATUS_CODE = {status: code for code, status in enumerate(_STATUSES)}
_POSITIONS: Tuple[DumpPosition, ...] = tuple(DumpPosition)
_POSITION_CODE = {position: code for code, position in enumerate(_POSITIONS)}

#: Telemetry (see docs/OBSERVABILITY.md): one labeled counter covering the
#: cache's whole event vocabulary, summed across every SegmentCache handle
#: in the process.  Updated only while ``repro.core.metrics.enabled``.
_cache_events = metrics.counter(
    "repro_segment_cache_events_total",
    "Segment-cache outcomes across all cache handles "
    "(hit, miss, store, evict, corrupt).",
    labelnames=("event",),
)

_MANIFEST_SCHEMA = """
CREATE TABLE IF NOT EXISTS segments (
    key TEXT PRIMARY KEY,
    filename TEXT NOT NULL,
    size_bytes INTEGER NOT NULL,
    records INTEGER NOT NULL,
    use_seq INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_segments_lru ON segments (use_seq);
"""


class SegmentCache:
    """A size-bounded, persistent cache of decoded dump-file segments."""

    def __init__(self, root: str, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = self._open_manifest()
        #: Introspection counters for this handle (see also stats()).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0

    # -- lifecycle ---------------------------------------------------------

    def _open_manifest(self) -> sqlite3.Connection:
        path = os.path.join(self.root, "segments.db")
        conn = sqlite3.connect(path, check_same_thread=False, timeout=30.0)
        try:
            conn.executescript(_MANIFEST_SCHEMA)
            conn.commit()
        except sqlite3.DatabaseError:
            # A corrupt manifest forfeits the cached segments (they are a
            # cache — the decode path regenerates them) but never the run.
            conn.close()
            os.replace(path, path + ".corrupt")
            conn = sqlite3.connect(path, check_same_thread=False, timeout=30.0)
            conn.executescript(_MANIFEST_SCHEMA)
            conn.commit()
        # The manifest is LRU bookkeeping for a regenerable cache: losing a
        # use_seq bump (or even a whole row) to a crash only costs a future
        # cache miss, so per-commit fsyncs buy nothing but latency on the
        # hot load path.
        conn.execute("PRAGMA synchronous = OFF")
        return conn

    def close(self) -> None:
        self._conn.close()

    def __repr__(self) -> str:
        return f"SegmentCache(root={self.root!r}, max_bytes={self.max_bytes})"

    # -- keys --------------------------------------------------------------

    @staticmethod
    def key_for(path: str, signature: Tuple[int, int]) -> str:
        """The segment key of one dump-file content under this layout."""
        digest = hashlib.sha1(os.path.abspath(path).encode("utf-8")).hexdigest()[:16]
        return f"{digest}-{signature[0]}-{signature[1]}-v{SEGMENT_VERSION}"

    # -- the cache API -----------------------------------------------------

    def load(self, spec) -> Optional[List[BGPStreamRecord]]:
        """The cached records of ``spec``'s dump file, or None on a miss.

        ``spec`` is a :class:`~repro.core.interfaces.DumpFileSpec` (anything
        with ``path``/``project``/``collector``/``dump_type``/``timestamp``
        duck-types).  A hit is only possible while the on-disk file still
        matches the signature the segment was stored under.
        """
        signature = file_signature(spec.path)
        if signature is None:
            return self._miss()
        key = self.key_for(spec.path, signature)
        with self._lock:
            row = self._conn.execute(
                "SELECT filename FROM segments WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return self._miss()
        filename = os.path.join(self.root, row[0])
        try:
            with open(filename, "rb") as handle:
                payload = pickle.load(handle)
            records = _rebuild_records(payload, spec)
        except Exception:
            # Torn write or foreign bytes (another layout version never gets
            # here — its key differs): quarantine the segment (preserve the
            # bytes as `.corrupt` for a post-mortem, like the broker-db
            # recovery discipline), count it, and fall back to the decode path.
            self._quarantine(key, filename)
            return self._miss()
        self._touch(key)
        self.hits += 1
        if metrics.enabled:
            _cache_events.inc(event="hit")
        return records

    def store(
        self,
        spec,
        records: Sequence[BGPStreamRecord],
        signature: Optional[Tuple[int, int]] = None,
    ) -> bool:
        """Persist the decoded records of one dump file; returns success.

        ``signature`` should be the file signature read *before* the file
        was parsed (so a dump replaced mid-read is never stored under the
        new content's key); it defaults to the signature at call time.
        """
        if signature is None:
            signature = file_signature(spec.path)
        if signature is None:
            return False
        key = self.key_for(spec.path, signature)
        payload = _build_payload(spec, records)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if len(blob) > self.max_bytes:
            return False
        filename = key + ".seg"
        final_path = os.path.join(self.root, filename)
        tmp_path = final_path + f".tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, final_path)
        except OSError:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            return False
        with self._lock:
            seq = self._next_seq_locked()
            self._conn.execute(
                "INSERT INTO segments (key, filename, size_bytes, records, use_seq) "
                "VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET filename = excluded.filename, "
                "size_bytes = excluded.size_bytes, records = excluded.records, "
                "use_seq = excluded.use_seq",
                (key, filename, len(blob), len(records), seq),
            )
            self._conn.commit()
            self._evict_locked(keep_key=key)
        self.stores += 1
        if metrics.enabled:
            _cache_events.inc(event="store")
        return True

    def clear(self) -> None:
        """Drop every segment and reset the manifest."""
        with self._lock:
            rows = self._conn.execute("SELECT filename FROM segments").fetchall()
            self._conn.execute("DELETE FROM segments")
            self._conn.commit()
        for (filename,) in rows:
            try:
                os.remove(os.path.join(self.root, filename))
            except OSError:
                pass

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Counters plus the manifest's current size/segment totals."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size_bytes), 0), "
                "COALESCE(SUM(records), 0) FROM segments"
            ).fetchone()
        return {
            "segments": row[0],
            "bytes_used": row[1],
            "records_cached": row[2],
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }

    # -- internals ---------------------------------------------------------

    def _miss(self) -> None:
        self.misses += 1
        if metrics.enabled:
            _cache_events.inc(event="miss")
        return None

    def _touch(self, key: str) -> None:
        with self._lock:
            seq = self._next_seq_locked()
            self._conn.execute(
                "UPDATE segments SET use_seq = ? WHERE key = ?", (seq, key)
            )
            self._conn.commit()

    def _quarantine(self, key: str, filename: str) -> None:
        """Preserve an unreadable segment as ``.corrupt`` and drop its row."""
        with self._lock:
            self._conn.execute("DELETE FROM segments WHERE key = ?", (key,))
            self._conn.commit()
        try:
            os.replace(filename, filename + ".corrupt")
        except OSError:
            pass
        self.corrupt += 1
        if metrics.enabled:
            _cache_events.inc(event="corrupt")

    def _next_seq_locked(self) -> int:
        row = self._conn.execute("SELECT COALESCE(MAX(use_seq), 0) FROM segments").fetchone()
        return row[0] + 1

    def _evict_locked(self, keep_key: str) -> None:
        while True:
            total = self._conn.execute(
                "SELECT COALESCE(SUM(size_bytes), 0) FROM segments"
            ).fetchone()[0]
            if total <= self.max_bytes:
                return
            victim = self._conn.execute(
                "SELECT key, filename FROM segments WHERE key != ? "
                "ORDER BY use_seq LIMIT 1",
                (keep_key,),
            ).fetchone()
            if victim is None:
                return
            self._conn.execute("DELETE FROM segments WHERE key = ?", (victim[0],))
            self._conn.commit()
            try:
                os.remove(os.path.join(self.root, victim[1]))
            except OSError:
                pass
            self.evictions += 1
            if metrics.enabled:
                _cache_events.inc(event="evict")


# ---------------------------------------------------------------------------
# Columnar (de)serialisation
# ---------------------------------------------------------------------------


def _build_payload(spec, records: Sequence[BGPStreamRecord]) -> dict:
    """Flatten a record list into the columnar segment payload."""
    timestamps = array("q")
    mrt_types = array("H")
    subtypes = array("H")
    statuses = bytearray()
    positions = bytearray()
    peer_refs = array("l")
    bodies: List[object] = []
    peer_tables: List[object] = []
    peer_table_index: dict = {}
    routers: List[str] = []
    for record in records:
        statuses.append(_STATUS_CODE[record.status])
        positions.append(_POSITION_CODE[record.dump_position])
        routers.append(record.router)
        if record.mrt is not None:
            header = record.mrt.header
            timestamps.append(header.timestamp)
            mrt_types.append(int(header.mrt_type))
            subtypes.append(int(header.subtype))
            bodies.append(record.mrt.body)
        else:
            timestamps.append(-1)
            mrt_types.append(0)
            subtypes.append(0)
            bodies.append(None)
        table = record.peer_table
        if table is None:
            peer_refs.append(-1)
        else:
            # Unique tables only; the pickle memo makes a table that is also
            # one of the bodies (the PEER_INDEX_TABLE record) free to store.
            ref = peer_table_index.get(id(table))
            if ref is None:
                ref = len(peer_tables)
                peer_tables.append(table)
                peer_table_index[id(table)] = ref
            peer_refs.append(ref)
    return {
        "version": SEGMENT_VERSION,
        "path": spec.path,
        "timestamps": timestamps,
        "mrt_types": mrt_types,
        "subtypes": subtypes,
        "statuses": bytes(statuses),
        "positions": bytes(positions),
        "peer_refs": peer_refs,
        "peer_tables": peer_tables,
        "bodies": bodies,
        # Archive replay never sets routers; drop the column entirely then.
        "routers": routers if any(routers) else None,
    }


def _rebuild_records(payload: dict, spec) -> List[BGPStreamRecord]:
    """Reinflate the record wrappers of one segment payload."""
    if payload.get("version") != SEGMENT_VERSION:
        raise ValueError(f"unsupported segment version {payload.get('version')!r}")
    # Nothing to canonicalise here: unpickling already restored every prefix,
    # AS path and community set through the wire cache / intern pool.
    bodies = payload["bodies"]
    timestamps = payload["timestamps"]
    mrt_types = payload["mrt_types"]
    subtypes = payload["subtypes"]
    statuses = payload["statuses"]
    positions = payload["positions"]
    peer_refs = payload["peer_refs"]
    peer_tables = payload["peer_tables"]
    routers = payload["routers"]
    records: List[BGPStreamRecord] = []
    for index, body in enumerate(bodies):
        mrt = None
        if body is not None:
            header = MRTHeader(
                timestamps[index], MRTType(mrt_types[index]), subtypes[index]
            )
            mrt = MRTRecord(header, body)
        peer_ref = peer_refs[index]
        records.append(
            BGPStreamRecord(
                project=spec.project,
                collector=spec.collector,
                dump_type=spec.dump_type,
                dump_time=spec.timestamp,
                status=_STATUSES[statuses[index]],
                dump_position=_POSITIONS[positions[index]],
                mrt=mrt,
                peer_table=peer_tables[peer_ref] if peer_ref >= 0 else None,
                router=routers[index] if routers is not None else "",
            )
        )
    return records
