"""Degraded dump sources surfaced end-to-end, through every record API.

The paper's error-checking extension (§3.3.3) requires that unreadable,
empty and corrupted dumps are *signalled* to the user rather than silently
dropped or fatally raised.  These tests drive all three degradations through
the full :class:`repro.core.stream.BGPStream` facade and the PyBGPStream
Listing-1 idiom, through ``records()``, ``get_next_record()`` and the two
mixed on one stream.
"""

from __future__ import annotations

import csv
import os

import pytest

import repro.pybgpstream as pybgpstream
from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.core.interfaces import CSVFileDataInterface
from repro.core.record import RecordStatus
from repro.core.stream import BGPStream
from repro.mrt.records import BGP4MPMessage
from repro.mrt.writer import corrupt_file, write_updates_dump


def _write_updates(path, timestamps, peer_asn=64500):
    prefix = Prefix.from_string("192.0.2.0/24")
    attrs = PathAttributes(as_path=ASPath.from_asns([peer_asn, 15169]), next_hop="10.0.0.1")
    write_updates_dump(
        path,
        [
            (
                ts,
                BGP4MPMessage(
                    peer_asn, 65000, "10.0.0.1", "10.0.0.2",
                    BGPUpdate(announced=[prefix], attributes=attrs),
                ),
            )
            for ts in timestamps
        ],
    )


@pytest.fixture()
def degraded_csv(tmp_path):
    """A CSV index over one good, one empty, one truncated and one missing dump."""
    good = str(tmp_path / "good.mrt")
    _write_updates(good, [100, 150, 190])
    empty = str(tmp_path / "empty.mrt")
    write_updates_dump(empty, [])
    truncated = str(tmp_path / "truncated.mrt")
    _write_updates(truncated, [110, 160, 195], peer_asn=64501)
    corrupt_file(truncated, truncate_at=os.path.getsize(truncated) - 7)
    missing = str(tmp_path / "missing.mrt")

    index = str(tmp_path / "index.csv")
    with open(index, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for collector, path in [
            ("good", good), ("empty", empty), ("trunc", truncated), ("gone", missing),
        ]:
            writer.writerow(["ris", collector, "updates", 100, 100, path])
    return index


def _expected_statuses(records):
    by_status = {}
    for record in records:
        by_status.setdefault(record.status, []).append(record)
    return by_status


def test_all_degradations_surface_through_the_stream(degraded_csv):
    stream = BGPStream(data_interface=CSVFileDataInterface(degraded_csv))
    records = list(stream.records())
    by_status = _expected_statuses(records)

    assert len(by_status[RecordStatus.CORRUPTED_SOURCE]) == 1
    assert by_status[RecordStatus.CORRUPTED_SOURCE][0].collector == "gone"
    assert len(by_status[RecordStatus.EMPTY_SOURCE]) == 1
    assert by_status[RecordStatus.EMPTY_SOURCE][0].collector == "empty"
    assert len(by_status[RecordStatus.CORRUPTED_RECORD]) == 1
    assert by_status[RecordStatus.CORRUPTED_RECORD][0].collector == "trunc"
    # Valid records from the good and (pre-truncation) damaged dumps.
    assert len(by_status[RecordStatus.VALID]) == 5
    assert stream.records_read == len(records)
    # Degraded records carry no elems but remain visible.
    for status in (
        RecordStatus.CORRUPTED_SOURCE, RecordStatus.EMPTY_SOURCE, RecordStatus.CORRUPTED_RECORD
    ):
        assert all(list(r.elems()) == [] for r in by_status[status])


def test_mixed_record_apis_surface_degradations(degraded_csv):
    def key(record):
        return (record.time, record.collector, str(record.status), str(record.dump_position))

    stream = BGPStream(data_interface=CSVFileDataInterface(degraded_csv))
    delivered = []
    while (record := stream.get_next_record()) is not None:
        delivered.append(record)
        delivered.extend(r for _, r in zip(range(2), stream.records()))
    assert {r.status for r in delivered} == {
        RecordStatus.VALID,
        RecordStatus.CORRUPTED_SOURCE,
        RecordStatus.EMPTY_SOURCE,
        RecordStatus.CORRUPTED_RECORD,
    }
    # ...and mixing the APIs delivers them exactly where records() does.
    reference = BGPStream(data_interface=CSVFileDataInterface(degraded_csv)).records()
    assert [key(r) for r in delivered] == [key(r) for r in reference]
    assert stream.records_read == len(delivered)


def test_listing1_idiom_sees_degraded_statuses(degraded_csv):
    """The paper's Listing-1 loop observes every degradation status."""
    pybgpstream.set_default_data_interface(CSVFileDataInterface(degraded_csv))
    try:
        stream = pybgpstream.BGPStream()
        stream.add_interval_filter(0, 1000)
        stream.start()
        rec = pybgpstream.BGPRecord()
        seen_statuses = set()
        elems = 0
        while stream.get_next_record(rec):
            seen_statuses.add(rec.status)
            elem = rec.get_next_elem()
            while elem:
                elems += 1
                elem = rec.get_next_elem()
        assert seen_statuses == {
            "valid", "corrupted-source", "empty-source", "corrupted-record"
        }
        assert elems == 5  # one announcement per valid update record
    finally:
        pybgpstream.set_default_data_interface(None)
