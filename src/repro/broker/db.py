"""The Broker's SQL meta-data store.

The real Broker keeps its index in an SQL database; we use SQLite (file or
in-memory), which keeps the data model identical — one row per dump file
with its project, collector, type, nominal time interval, location and
publication time — without requiring a database server.

Production-tier features on top of the plain index:

* **keyset pagination** (:meth:`MetadataDB.query_page`): rows are served in
  the stable total order ``(timestamp, id)``, and a page resumes strictly
  *after* the previous page's last sort key.
  Because ``id`` is an append-only autoincrement, concurrent archive growth
  never shifts, repeats or skips rows in an in-flight pagination.
* **crawl state** (:meth:`get_crawl_state` / :meth:`apply_crawl_batch`):
  per-archive high-water marks persisted transactionally *with* the batch
  of rows they cover, so an interrupted crawl resumes from its last
  committed batch without losing or re-indexing files.
* **corruption tolerance**: a database file that SQLite rejects is moved
  aside and recreated empty; :attr:`MetadataDB.recovered_from_corruption`
  tells the crawler to fall back to a full re-crawl (duplicate inserts are
  absorbed by the ``path`` unique constraint, so a re-crawl is always
  safe).
"""

from __future__ import annotations

import os
import sqlite3
import threading
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class DumpFileRecord:
    """One indexed dump file."""

    project: str
    collector: str
    dump_type: str
    timestamp: int
    duration: int
    path: str
    available_at: float
    #: Database row id (the pagination tie-breaker); None when the record
    #: has not been through the database yet.
    file_id: Optional[int] = None

    @property
    def interval_end(self) -> int:
        return self.timestamp + self.duration


@dataclass(frozen=True)
class CrawlState:
    """The persisted progress of one archive's incremental crawl."""

    archive_id: str
    #: Index entries before this position have all been processed; a resumed
    #: crawl starts scanning here.
    position: int
    #: Highest publication time committed so far (introspection/metrics).
    last_available: float
    #: Total files this archive has contributed to the index.
    files_indexed: int


_SCHEMA = """
CREATE TABLE IF NOT EXISTS dump_files (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    project TEXT NOT NULL,
    collector TEXT NOT NULL,
    dump_type TEXT NOT NULL,
    timestamp INTEGER NOT NULL,
    duration INTEGER NOT NULL,
    path TEXT NOT NULL UNIQUE,
    available_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_dump_time ON dump_files (timestamp, id);
CREATE INDEX IF NOT EXISTS idx_dump_coll ON dump_files (project, collector, dump_type);
CREATE INDEX IF NOT EXISTS idx_dump_avail ON dump_files (available_at, id);
CREATE TABLE IF NOT EXISTS crawl_state (
    archive_id TEXT PRIMARY KEY,
    position INTEGER NOT NULL,
    last_available REAL NOT NULL,
    files_indexed INTEGER NOT NULL,
    updated_at REAL NOT NULL DEFAULT 0
);
"""

_ROW_COLUMNS = (
    "project, collector, dump_type, timestamp, duration, path, available_at, id"
)


class MetadataDB:
    """SQLite-backed index of dump-file meta-data."""

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        #: True when the on-disk database was unreadable and had to be
        #: rebuilt empty (the crawler reacts with a full re-crawl).
        self.recovered_from_corruption = False
        if path != ":memory:":
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = self._open(path)

    def _open(self, path: str) -> sqlite3.Connection:
        conn = sqlite3.connect(path, check_same_thread=False, timeout=30.0)
        try:
            conn.executescript(_SCHEMA)
            conn.commit()
            return conn
        except sqlite3.DatabaseError:
            conn.close()
            if path == ":memory:":
                raise
            # The file exists but SQLite cannot use it: move the damaged
            # file aside (never silently destroy data) and start fresh.
            backup = path + ".corrupt"
            if os.path.exists(backup):
                os.remove(backup)
            os.replace(path, backup)
            self.recovered_from_corruption = True
            conn = sqlite3.connect(path, check_same_thread=False, timeout=30.0)
            conn.executescript(_SCHEMA)
            conn.commit()
            return conn

    def close(self) -> None:
        self._conn.close()

    # -- writes ---------------------------------------------------------------

    def insert(self, record: DumpFileRecord) -> bool:
        """Insert one record; returns False if the path was already indexed."""
        with self._lock:
            try:
                self._conn.execute(
                    "INSERT INTO dump_files "
                    "(project, collector, dump_type, timestamp, duration, path, available_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    _insert_params(record),
                )
                self._conn.commit()
                return True
            except sqlite3.IntegrityError:
                return False

    def insert_many(self, records: Iterable[DumpFileRecord]) -> int:
        return sum(1 for record in records if self.insert(record))

    def apply_crawl_batch(
        self,
        archive_id: str,
        records: Sequence[DumpFileRecord],
        position: int,
        last_available: float,
        updated_at: float = 0.0,
    ) -> int:
        """Atomically insert one crawl batch and advance the high-water mark.

        The rows and the crawl-state update commit in a single transaction:
        a crawler killed mid-crawl either has the whole batch (and the mark
        covering it) or neither, so a restart re-scans from a consistent
        position and the ``path`` unique constraint absorbs any overlap.
        Returns the number of rows actually inserted (duplicates ignored).
        """
        with self._lock:
            cur = self._conn.cursor()
            try:
                before = self._conn.total_changes
                cur.executemany(
                    "INSERT OR IGNORE INTO dump_files "
                    "(project, collector, dump_type, timestamp, duration, path, available_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    [_insert_params(r) for r in records],
                )
                inserted = self._conn.total_changes - before
                cur.execute(
                    "INSERT INTO crawl_state "
                    "(archive_id, position, last_available, files_indexed, updated_at) "
                    "VALUES (?, ?, ?, ?, ?) "
                    "ON CONFLICT(archive_id) DO UPDATE SET "
                    "position = excluded.position, "
                    "last_available = MAX(last_available, excluded.last_available), "
                    "files_indexed = files_indexed + excluded.files_indexed, "
                    "updated_at = excluded.updated_at",
                    (archive_id, position, last_available, inserted, updated_at),
                )
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
            return inserted

    # -- crawl state -----------------------------------------------------------

    def get_crawl_state(self, archive_id: str) -> Optional[CrawlState]:
        with self._lock:
            row = self._conn.execute(
                "SELECT archive_id, position, last_available, files_indexed "
                "FROM crawl_state WHERE archive_id = ?",
                (archive_id,),
            ).fetchone()
        return CrawlState(*row) if row else None

    def crawl_states(self) -> List[CrawlState]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT archive_id, position, last_available, files_indexed "
                "FROM crawl_state ORDER BY archive_id"
            ).fetchall()
        return [CrawlState(*row) for row in rows]

    def clear_crawl_state(self, archive_id: Optional[str] = None) -> None:
        """Forget crawl progress (all archives, or one), forcing a re-crawl."""
        with self._lock:
            if archive_id is None:
                self._conn.execute("DELETE FROM crawl_state")
            else:
                self._conn.execute(
                    "DELETE FROM crawl_state WHERE archive_id = ?", (archive_id,)
                )
            self._conn.commit()

    def known_paths(self) -> set:
        with self._lock:
            rows = self._conn.execute("SELECT path FROM dump_files").fetchall()
        return {row[0] for row in rows}

    # -- queries ---------------------------------------------------------------

    def query(
        self,
        projects: Optional[Sequence[str]] = None,
        collectors: Optional[Sequence[str]] = None,
        dump_types: Optional[Sequence[str]] = None,
        interval_start: Optional[int] = None,
        interval_end: Optional[int] = None,
        visible_at: Optional[float] = None,
    ) -> List[DumpFileRecord]:
        """Dump files whose data interval intersects ``[interval_start, interval_end]``.

        All filters are optional; ``visible_at`` hides files not yet
        published at that instant (live-mode semantics).
        """
        clauses, params = self._filter_clauses(
            projects, collectors, dump_types, interval_start, interval_end, visible_at
        )
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = (
            f"SELECT {_ROW_COLUMNS} FROM dump_files {where} "
            "ORDER BY timestamp, project, collector, dump_type"
        )
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [DumpFileRecord(*row) for row in rows]

    def query_page(
        self,
        projects: Optional[Sequence[str]] = None,
        collectors: Optional[Sequence[str]] = None,
        dump_types: Optional[Sequence[str]] = None,
        interval_start: Optional[int] = None,
        interval_end: Optional[int] = None,
        visible_at: Optional[float] = None,
        after: Optional[Tuple[float, int]] = None,
        limit: Optional[int] = None,
    ) -> List[DumpFileRecord]:
        """One keyset page of :meth:`query` results, ordered by ``(timestamp, id)``.

        ``after`` is the last ``(timestamp, id)`` of the previous page —
        rows at or before it are excluded, which is what keeps pagination
        stable while the crawler keeps appending rows.  ``limit`` bounds
        the page (None = no bound).
        """
        clauses, params = self._filter_clauses(
            projects, collectors, dump_types, interval_start, interval_end, visible_at
        )
        if after is not None:
            after_ts, after_id = after
            clauses.append("(timestamp > ? OR (timestamp = ? AND id > ?))")
            params.extend([after_ts, after_ts, after_id])
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = f"SELECT {_ROW_COLUMNS} FROM dump_files {where} ORDER BY timestamp, id"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [DumpFileRecord(*row) for row in rows]

    @staticmethod
    def _filter_clauses(
        projects, collectors, dump_types, interval_start, interval_end, visible_at
    ) -> Tuple[List[str], List[object]]:
        clauses: List[str] = []
        params: List[object] = []
        if projects:
            clauses.append(f"project IN ({','.join('?' * len(projects))})")
            params.extend(projects)
        if collectors:
            clauses.append(f"collector IN ({','.join('?' * len(collectors))})")
            params.extend(collectors)
        if dump_types:
            clauses.append(f"dump_type IN ({','.join('?' * len(dump_types))})")
            params.extend(dump_types)
        if interval_end is not None:
            clauses.append("timestamp <= ?")
            params.append(interval_end)
        if interval_start is not None:
            clauses.append("timestamp + duration >= ?")
            params.append(interval_start)
        if visible_at is not None:
            clauses.append("available_at <= ?")
            params.append(visible_at)
        return clauses, params

    def latest_available_time(self, visible_at: Optional[float] = None) -> Optional[int]:
        """The end of the newest visible data interval (None if empty)."""
        sql = "SELECT MAX(timestamp + duration) FROM dump_files"
        params: Tuple[object, ...] = ()
        if visible_at is not None:
            sql += " WHERE available_at <= ?"
            params = (visible_at,)
        with self._lock:
            row = self._conn.execute(sql, params).fetchone()
        return row[0] if row and row[0] is not None else None

    def count(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM dump_files").fetchone()[0]

    def collectors(self) -> List[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT collector FROM dump_files ORDER BY collector"
            ).fetchall()
        return [row[0] for row in rows]


def _insert_params(record: DumpFileRecord) -> Tuple:
    return (
        record.project,
        record.collector,
        record.dump_type,
        record.timestamp,
        record.duration,
        record.path,
        record.available_at,
    )
