"""Tests for the BGPStream API: historical mode, live mode, data interfaces."""

from __future__ import annotations

import csv
import pickle

import pytest

from repro.broker.broker import Broker
from repro.broker.db import MetadataDB
from repro.collectors.archive import Archive
from repro.core.elem import ElemType
from repro.core.filters import FilterSet
from repro.core.interfaces import (
    BrokerDataInterface,
    CSVFileDataInterface,
    SingleFileDataInterface,
    SQLiteDataInterface,
)
from repro.core.record import RecordStatus
from repro.core.stream import BGPStream
from repro.utils.timeutil import SimulatedClock

from tests.core.conftest import make_stream


class TestStreamConfiguration:
    def test_start_requires_interface(self):
        with pytest.raises(RuntimeError):
            BGPStream().start()

    def test_no_reconfiguration_after_start(self, core_archive, core_scenario):
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        stream.start()
        with pytest.raises(RuntimeError):
            stream.add_filter("project", "ris")
        with pytest.raises(RuntimeError):
            stream.add_interval_filter(0, 1)
        with pytest.raises(RuntimeError):
            stream.set_data_interface(None)

    def test_get_next_record_autostarts(self, core_archive, core_scenario):
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        assert stream.get_next_record() is not None


def _record_key(record):
    return (record.time, record.collector, str(record.status), str(record.dump_position))


def _first_announced_prefix(core_archive, core_scenario) -> str:
    stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
    for _, elem in stream.elems():
        if elem.elem_type == ElemType.ANNOUNCEMENT:
            return str(elem.prefix)
    raise AssertionError("scenario has no announcements")


class TestOneRecordCursor:
    """``records()`` is the iterator ``get_next_record()`` advances."""

    def test_records_match_the_sequential_reference(self, core_archive, core_scenario):
        reference_stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        reference = [_record_key(r) for r in iter(reference_stream.get_next_record, None)]
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        assert [_record_key(r) for r in stream.records()] == reference
        assert stream.records_read == len(reference) + stream.records_filtered

    def test_records_is_the_cursor(self, core_archive, core_scenario):
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        assert stream.records() is stream.records()
        assert iter(stream) is stream.records()

    def test_interleaving_the_two_apis_yields_one_sequence(self, core_archive, core_scenario):
        # A sub-interval, so the meta-data filter drops some records too.
        start = core_scenario.start + 1800
        end = core_scenario.start + 5400
        reference = [_record_key(r) for r in make_stream(core_archive, start, end).records()]
        stream = make_stream(core_archive, start, end)
        delivered = []
        records = stream.records()
        while True:
            record = stream.get_next_record()
            if record is None:
                break
            delivered.append(_record_key(record))
            for count, record in enumerate(stream.records()):
                delivered.append(_record_key(record))
                if count == 2:
                    break
            record = next(records, None)
            if record is not None:
                delivered.append(_record_key(record))
        assert delivered == reference
        assert stream.records_filtered > 0
        assert stream.records_read == len(delivered) + stream.records_filtered

    def test_records_without_interface_raises_on_the_call(self):
        with pytest.raises(RuntimeError):
            BGPStream().records()


class TestElemFilterHome:
    """Elem filters apply wherever elems are pulled from a delivered record."""

    def test_listing1_cursor_yields_the_filtered_elems(self, core_archive, core_scenario):
        prefix = _first_announced_prefix(core_archive, core_scenario)
        twin = make_stream(core_archive, core_scenario.start, core_scenario.end)
        twin.add_filter("prefix-exact", prefix)
        expected = [elem for _, elem in twin.elems()]
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        stream.add_filter("prefix-exact", prefix)
        stream.start()
        seen = []
        while (rec := stream.get_next_record()) is not None:
            elem = rec.get_next_elem()
            while elem:
                seen.append(elem)
                elem = rec.get_next_elem()
        assert expected
        assert seen == expected
        assert {str(elem.prefix) for elem in seen} == {prefix}

    def test_filtered_elems_is_the_stream_filter_and_elems_stays_whole(
        self, core_archive, core_scenario
    ):
        vp_asn = core_scenario.collectors[0].vps[0].asn
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        stream.add_filter("peer-asn", str(vp_asn))
        whole = filtered = 0
        for record in stream.records():
            elems = list(record.elems())
            kept = list(record.filtered_elems())
            assert kept == [e for e in elems if stream.filters.match_elem(e)]
            whole += len(elems)
            filtered += len(kept)
        assert 0 < filtered < whole

    def test_no_elem_terms_means_no_match_elem_calls(
        self, core_archive, core_scenario, monkeypatch
    ):
        calls = []
        original = FilterSet.match_elem

        def counting(self, elem):
            calls.append(elem)
            return original(self, elem)

        monkeypatch.setattr(FilterSet, "match_elem", counting)
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        stream.add_filter("record-type", "updates")
        assert sum(1 for _ in stream.elems()) > 0
        assert calls == []
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        stream.add_filter("elem-type", "announcements")
        assert sum(1 for _ in stream.elems()) > 0
        assert calls

    def test_the_filter_link_is_not_pickled(self, core_archive, core_scenario):
        vp_asn = core_scenario.collectors[0].vps[0].asn
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        stream.add_filter("peer-asn", str(vp_asn))
        record = next(
            r
            for r in stream.records()
            if 0 < len(list(r.filtered_elems())) < len(list(r.elems()))
        )
        assert len(record.__getstate__()) == 9
        clone = pickle.loads(pickle.dumps(record))
        assert list(clone.filtered_elems()) == list(clone.elems()) == list(record.elems())


class TestHistoricalStream:
    def test_records_are_time_sorted(self, core_stream):
        times = [r.time for r in core_stream.records() if r.status == RecordStatus.VALID]
        assert times
        assert times == sorted(times)

    def test_stream_ends(self, core_stream):
        for _ in core_stream.records():
            pass
        assert core_stream.get_next_record() is None

    def test_project_filter(self, core_archive, core_scenario):
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        stream.add_filter("project", "ris")
        projects = {r.project for r in stream.records() if r.status == RecordStatus.VALID}
        assert projects == {"ris"}

    def test_record_type_filter(self, core_archive, core_scenario):
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        stream.add_filter("record-type", "ribs")
        types = {r.dump_type for r in stream.records() if r.status == RecordStatus.VALID}
        assert types == {"ribs"}

    def test_collector_filter(self, core_archive, core_scenario):
        collector = core_scenario.collectors[0].name
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        stream.add_filter("collector", collector)
        seen = {r.collector for r in stream.records() if r.status == RecordStatus.VALID}
        assert seen == {collector}

    def test_elems_respect_elem_filters(self, core_archive, core_scenario):
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        stream.add_filter("elem-type", "withdrawals")
        kinds = {elem.elem_type for _, elem in stream.elems()}
        assert kinds <= {ElemType.WITHDRAWAL}

    def test_peer_asn_filter_restricts_elems(self, core_archive, core_scenario):
        vp_asn = core_scenario.collectors[0].vps[0].asn
        stream = make_stream(core_archive, core_scenario.start, core_scenario.end)
        stream.add_filter("peer-asn", str(vp_asn))
        peers = {elem.peer_asn for _, elem in stream.elems()}
        assert peers == {vp_asn}

    def test_sub_interval_restricts_records(self, core_archive, core_scenario):
        half = core_scenario.start + core_scenario.config.duration // 2
        stream = make_stream(core_archive, core_scenario.start, half)
        for record in stream.records():
            if record.status == RecordStatus.VALID:
                assert record.time <= half

    def test_same_stream_config_is_reproducible(self, core_archive, core_scenario):
        first = make_stream(core_archive, core_scenario.start, core_scenario.end)
        second = make_stream(core_archive, core_scenario.start, core_scenario.end)
        a = [(r.time, r.collector, r.dump_type) for r in first.records()]
        b = [(r.time, r.collector, r.dump_type) for r in second.records()]
        assert a == b


class TestLiveStream:
    def test_live_stream_sees_data_as_it_is_published(self, tmp_path, core_scenario):
        """Live mode: the stream blocks/polls and picks up newly published dumps."""
        # Build a tiny dedicated archive whose files become available over time.
        source_archive = Archive(str(tmp_path / "src"))
        scenario = core_scenario
        files = scenario.generate(source_archive)
        # Re-publish into a fresh archive with controlled availability times.
        live_archive = Archive(str(tmp_path / "live"))
        for index, entry in enumerate(sorted(files, key=lambda f: f.timestamp)):
            live_archive.publish(
                entry.project,
                entry.collector,
                entry.dump_type,
                entry.timestamp,
                entry.duration,
                entry.path,
                available_at=scenario.start + 600 * (index + 1),
            )
        clock = SimulatedClock(scenario.start)
        broker = Broker(archives=[live_archive])
        interface = BrokerDataInterface(
            broker, clock=clock, poll_interval=300, max_empty_polls=200
        )
        stream = BGPStream(data_interface=interface)
        stream.add_interval_filter(scenario.start, None)  # live mode
        count = sum(1 for _ in stream.records())
        reference = sum(
            1
            for _ in make_stream(
                Archive(str(tmp_path / "src")), scenario.start, scenario.end
            ).records()
        )
        assert count >= reference  # live never loses data (it may re-see boundary files)
        assert clock.now() > scenario.start  # it actually had to wait for publications

    def test_live_poll_gives_up_after_max_empty_polls(self, tmp_path):
        archive = Archive(str(tmp_path))
        clock = SimulatedClock(0)
        interface = BrokerDataInterface(
            Broker(archives=[archive]), clock=clock, poll_interval=10, max_empty_polls=3
        )
        stream = BGPStream(data_interface=interface)
        stream.add_interval_filter(0, None)
        assert list(stream.records()) == []
        assert clock.now() == pytest.approx(20)


class TestLocalDataInterfaces:
    def test_single_file_interface(self, core_archive):
        entry = next(e for e in core_archive.entries() if e.dump_type == "updates")
        interface = SingleFileDataInterface(
            entry.path, dump_type="updates", collector=entry.collector, timestamp=entry.timestamp
        )
        stream = BGPStream(data_interface=interface)
        records = list(stream.records())
        assert records
        assert all(r.collector == entry.collector for r in records)

    def test_csv_interface(self, core_archive, core_scenario, tmp_path):
        csv_path = str(tmp_path / "files.csv")
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["# project", "collector", "type", "timestamp", "duration", "path"])
            for entry in core_archive.entries():
                writer.writerow(
                    [
                        entry.project,
                        entry.collector,
                        entry.dump_type,
                        entry.timestamp,
                        entry.duration,
                        entry.path,
                    ]
                )
        stream = BGPStream(data_interface=CSVFileDataInterface(csv_path))
        stream.add_interval_filter(core_scenario.start, core_scenario.end)
        stream.add_filter("record-type", "ribs")
        records = [r for r in stream.records() if r.status == RecordStatus.VALID]
        assert records
        assert {r.dump_type for r in records} == {"ribs"}

    def test_sqlite_interface(self, core_archive, core_scenario, tmp_path):
        db_path = str(tmp_path / "broker.sqlite")
        db = MetadataDB(db_path)
        broker = Broker(archives=[core_archive], db=db)
        broker.crawler.crawl()
        db.close()
        stream = BGPStream(data_interface=SQLiteDataInterface(db_path))
        stream.add_interval_filter(core_scenario.start, core_scenario.end)
        count = sum(1 for _ in stream.records())
        reference = sum(
            1 for _ in make_stream(core_archive, core_scenario.start, core_scenario.end).records()
        )
        assert count == reference
