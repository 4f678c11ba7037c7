"""Tests for cursor pagination: DB keyset pages and Broker page cursors."""

from __future__ import annotations

import pytest

from repro.broker.broker import Broker, BrokerQuery, MAX_PAGE_SIZE
from repro.broker.cursor import CursorError, encode_cursor
from repro.broker.db import DumpFileRecord, MetadataDB


def _record(timestamp, collector="rrc0", project="ris", dump_type="updates",
            duration=900, available_at=None, path=None):
    path = path or f"/a/{project}/{collector}/{dump_type}/{timestamp}.mrt.gz"
    if available_at is None:
        available_at = timestamp + duration + 60
    return DumpFileRecord(project, collector, dump_type, timestamp, duration, path, available_at)


def _filled_db(n=20, step=900):
    db = MetadataDB()
    for i in range(n):
        db.insert(_record(i * step))
    return db


class TestQueryPage:
    def test_pages_cover_everything_once(self):
        db = _filled_db(20)
        seen = []
        after = None
        while True:
            page = db.query_page(after=after, limit=7)
            if not page:
                break
            seen.extend(page)
            last = page[-1]
            after = (last.timestamp, last.file_id)
        assert [r.path for r in seen] == [r.path for r in db.query()]
        assert len({r.path for r in seen}) == 20

    def test_rows_carry_file_ids(self):
        db = _filled_db(3)
        ids = [r.file_id for r in db.query_page()]
        assert all(isinstance(i, int) for i in ids)
        assert ids == sorted(ids)

    def test_pagination_stable_under_concurrent_growth(self):
        # New rows appended mid-pagination must neither shift nor repeat
        # rows already served: the (key, id) keyset makes pages stable.
        db = _filled_db(10)
        first = db.query_page(after=None, limit=5)
        # The archive grows while the client holds a cursor: files appear
        # both before and after the cursor position.
        db.insert(_record(0, collector="rrc1"))
        db.insert(_record(100 * 900, collector="rrc1"))
        last = first[-1]
        rest = db.query_page(after=(last.timestamp, last.file_id))
        paths = [r.path for r in first + rest]
        assert len(paths) == len(set(paths))  # no repeats
        # Everything at-or-after the cursor key is still served, including
        # the late rrc1 row whose timestamp sorts after the cursor.
        assert any(r.collector == "rrc1" and r.timestamp == 100 * 900 for r in rest)


class TestBrokerWindowPagination:
    def _broker(self, n=30, window_span=7200):
        db = _filled_db(n)
        return Broker(db=db, window_span=window_span)

    def test_paginated_equals_unpaginated(self):
        broker = self._broker(30)
        query = BrokerQuery(interval_start=0, interval_end=30 * 900)
        plain = [f.path for r in broker.iter_windows(query) for f in r]
        paged = [f.path for r in broker.iter_windows(query, page_size=3) for f in r]
        assert paged == plain

    def test_page_size_bounds_every_response(self):
        broker = self._broker(30)
        query = BrokerQuery(interval_start=0, interval_end=30 * 900)
        for response in broker.iter_windows(query, page_size=3):
            assert len(response) <= 3

    def test_page_size_capped_at_max(self):
        broker = self._broker(5)
        query = BrokerQuery(interval_start=0, interval_end=5 * 900)
        response = broker.get_window(query, page_size=MAX_PAGE_SIZE * 10)
        assert len(response) == 5  # no error, cap simply applies

    def test_cursor_resumes_exactly(self):
        broker = self._broker(30)
        query = BrokerQuery(interval_start=0, interval_end=30 * 900)
        first = broker.get_window(query, page_size=4)
        resumed = broker.get_window(query, cursor=first.next_cursor, page_size=4)
        all_paths = [f.path for f in first] + [f.path for f in resumed]
        assert len(all_paths) == len(set(all_paths)) == 8

    def test_cursor_from_other_query_rejected(self):
        broker = self._broker(10)
        query = BrokerQuery(interval_start=0, interval_end=10 * 900)
        other = BrokerQuery(projects=("ris",), interval_start=0, interval_end=10 * 900)
        cursor = broker.get_window(query, page_size=2).next_cursor
        with pytest.raises(CursorError):
            broker.get_window(other, cursor=cursor, page_size=2)

    def test_publication_cursor_rejected_as_window_cursor(self):
        # Publication-ordered pages are gone, but a cursor one of them
        # handed out (a {"pub", "id"} payload) must still be refused.
        broker = self._broker(10)
        bounded = BrokerQuery(interval_start=0, interval_end=10 * 900)
        pub = encode_cursor({"pub": 1000.0, "id": 2}, bounded.fingerprint())
        with pytest.raises(CursorError, match="not a window cursor"):
            broker.get_window(bounded, cursor=pub)

    def test_first_window_overlap_survives_pagination(self):
        # A file starting before the interval but reaching into it must be
        # served by the first window even when it lands on page 2+.
        db = MetadataDB()
        db.insert(_record(0, duration=7200, collector="early"))  # reaches into [3600, ...)
        for i in range(6):
            db.insert(_record(3600 + i * 900, collector=f"c{i}"))
        broker = Broker(db=db, window_span=7200)
        query = BrokerQuery(interval_start=3600, interval_end=3600 + 7200)
        files = [f.path for r in broker.iter_windows(query, page_size=2) for f in r]
        assert any("early" in p for p in files)
        assert len(files) == len(set(files)) == 7

    def test_invalid_page_size_rejected(self):
        broker = self._broker(5)
        query = BrokerQuery(interval_start=0, interval_end=5 * 900)
        with pytest.raises(ValueError):
            broker.get_window(query, page_size=0)
