"""Filter handling of the local-file data interfaces (ISSUE 5 satellite).

``CSVFileDataInterface`` and ``SQLiteDataInterface`` prune dump files before
the stream ever opens them — collector/project/type filters and the time
window must be applied at the meta-data level (via ``_spec_matches`` for the
CSV flavour, via the SQL query for SQLite).  Also covers the named-interface
registry.
"""

from __future__ import annotations

import pytest

from repro.broker.db import DumpFileRecord, MetadataDB
from repro.core.filters import FilterSet
from repro.core.interfaces import (
    BrokerDataInterface,
    CSVFileDataInterface,
    DumpFileSpec,
    LiveDataInterface,
    SingleFileDataInterface,
    SQLiteDataInterface,
    _spec_matches,
    make_data_interface,
)

FILES = [
    # project, collector, dump_type, timestamp, duration, path
    ("ris", "rrc00", "ribs", 900, 0, "/dumps/rrc00.ribs.900"),
    ("ris", "rrc00", "updates", 1000, 300, "/dumps/rrc00.updates.1000"),
    ("ris", "rrc01", "updates", 1300, 300, "/dumps/rrc01.updates.1300"),
    ("routeviews", "route-views2", "updates", 1600, 300, "/dumps/rv2.updates.1600"),
]


def filter_set(collectors=(), projects=(), types=(), start=None, end=None):
    filters = FilterSet()
    for collector in collectors:
        filters.add("collector", collector)
    for project in projects:
        filters.add("project", project)
    for dump_type in types:
        filters.add("record-type", dump_type)
    filters.interval_start = start
    filters.interval_end = end
    return filters


@pytest.fixture()
def csv_interface(tmp_path):
    path = tmp_path / "index.csv"
    lines = ["# project,collector,dump_type,timestamp,duration,path"]
    lines += [",".join(str(v) for v in row) for row in FILES]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return CSVFileDataInterface(str(path))


@pytest.fixture()
def sqlite_interface(tmp_path):
    path = str(tmp_path / "broker.db")
    db = MetadataDB(path)
    db.insert_many(DumpFileRecord(*row, available_at=0.0) for row in FILES)
    db.close()
    return SQLiteDataInterface(path)


def paths(interface, filters):
    return [spec.path for batch in interface.batches(filters) for spec in batch]


@pytest.mark.parametrize("fixture", ["csv_interface", "sqlite_interface"])
class TestFileInterfaceFiltering:
    def test_no_filters_returns_everything_time_sorted(self, fixture, request):
        interface = request.getfixturevalue(fixture)
        assert paths(interface, FilterSet()) == [row[5] for row in FILES]

    def test_collector_pruning(self, fixture, request):
        interface = request.getfixturevalue(fixture)
        assert paths(interface, filter_set(collectors=["rrc01"])) == [
            "/dumps/rrc01.updates.1300"
        ]

    def test_project_pruning(self, fixture, request):
        interface = request.getfixturevalue(fixture)
        assert paths(interface, filter_set(projects=["routeviews"])) == [
            "/dumps/rv2.updates.1600"
        ]

    def test_record_type_pruning(self, fixture, request):
        interface = request.getfixturevalue(fixture)
        assert paths(interface, filter_set(types=["ribs"])) == ["/dumps/rrc00.ribs.900"]

    def test_time_window_pruning(self, fixture, request):
        interface = request.getfixturevalue(fixture)
        # A file overlaps the window when its [timestamp, timestamp+duration]
        # interval does: the rrc00 updates file (1000..1300) still overlaps a
        # window starting at 1200; the ribs file (ending at 900) and the rv2
        # file (starting 1600) are out.
        assert paths(interface, filter_set(start=1200, end=1500)) == [
            "/dumps/rrc00.updates.1000",
            "/dumps/rrc01.updates.1300",
        ]
        assert paths(interface, filter_set(start=1301, end=None)) == [
            "/dumps/rrc01.updates.1300",
            "/dumps/rv2.updates.1600",
        ]

    def test_combined_filters(self, fixture, request):
        interface = request.getfixturevalue(fixture)
        filters = filter_set(collectors=["rrc00"], types=["updates"], start=900, end=1100)
        assert paths(interface, filters) == ["/dumps/rrc00.updates.1000"]

    def test_nothing_matching_yields_no_batches(self, fixture, request):
        interface = request.getfixturevalue(fixture)
        assert list(interface.batches(filter_set(collectors=["nope"]))) == []


class TestCSVParsing:
    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text(
            "# header comment\n"
            "\n"
            "ris,rrc00,updates,1000,300,/dumps/a\n",
            encoding="utf-8",
        )
        interface = CSVFileDataInterface(str(path))
        assert paths(interface, FilterSet()) == ["/dumps/a"]

    def test_rows_are_sorted_by_time(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text(
            "ris,rrc00,updates,2000,300,/dumps/late\n"
            "ris,rrc00,updates,1000,300,/dumps/early\n",
            encoding="utf-8",
        )
        interface = CSVFileDataInterface(str(path))
        assert paths(interface, FilterSet()) == ["/dumps/early", "/dumps/late"]


class TestSpecMatches:
    SPEC = DumpFileSpec(
        path="/d/x",
        project="ris",
        collector="rrc00",
        dump_type="updates",
        timestamp=1000,
        duration=300,
    )

    def test_empty_filters_match(self):
        assert _spec_matches(self.SPEC, FilterSet())

    def test_window_edges_are_inclusive(self):
        # ends exactly at the window start / starts exactly at the window end
        assert _spec_matches(self.SPEC, filter_set(start=1300, end=None))
        assert _spec_matches(self.SPEC, filter_set(start=None, end=1000))
        assert not _spec_matches(self.SPEC, filter_set(start=1301, end=None))
        assert not _spec_matches(self.SPEC, filter_set(start=None, end=999))


class TestRegistry:
    def test_singlefile_factory(self, tmp_path):
        interface = make_data_interface(
            "singlefile", path=str(tmp_path / "f.mrt"), dump_type="ribs"
        )
        assert isinstance(interface, SingleFileDataInterface)
        assert interface.spec.dump_type == "ribs"

    def test_csv_and_sqlite_factories(self, tmp_path):
        assert isinstance(
            make_data_interface("csvfile", path=str(tmp_path / "i.csv")),
            CSVFileDataInterface,
        )
        assert isinstance(
            make_data_interface("sqlite", path=str(tmp_path / "b.db")),
            SQLiteDataInterface,
        )

    def test_broker_factory_from_archive(self, tmp_path):
        interface = make_data_interface("broker", archive=str(tmp_path))
        assert isinstance(interface, BrokerDataInterface)

    def test_factories_require_their_path(self):
        for name in ("csvfile", "sqlite", "singlefile"):
            with pytest.raises(ValueError, match="needs"):
                make_data_interface(name)
        with pytest.raises(ValueError, match="needs"):
            make_data_interface("broker")

    def test_instances_pass_through(self, tmp_path):
        instance = CSVFileDataInterface(str(tmp_path / "i.csv"))
        assert make_data_interface(instance) is instance
        with pytest.raises(ValueError, match="registry name"):
            make_data_interface(instance, path="x")

    def test_kafka_name_builds_live_interface(self):
        from repro.kafka.broker import MessageBroker

        interface = make_data_interface("kafka", broker=MessageBroker())
        assert isinstance(interface, LiveDataInterface)
