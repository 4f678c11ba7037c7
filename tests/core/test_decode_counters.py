"""The decode tier counts into the telemetry registry, under one switch.

``metrics.enable()`` alone makes every decode site count; ``--decode-stats``
on ``bgpreader`` is a rendering of those registry series plus the intern
pool's own tallies, and each run of it is a fresh window.  The rendered
text is pinned byte for byte: scripts parse these lines.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
import threading

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import CommunitySet
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.core import metrics, profiling, reader
from repro.core.interfaces import SingleFileDataInterface
from repro.core.intern import reset_default_pool
from repro.core.stream import BGPStream
from repro.mrt.records import BGP4MPMessage
from repro.mrt.writer import write_updates_dump

from test_lazy_equivalence import _build_archive

UPDATES = 400
PREFIXES_PER_UPDATE = 2


def _write_dump(path):
    """``UPDATES`` announcements of two prefixes each, no withdrawals."""
    paths = [ASPath.from_asns([65001, 3356, 64500 + i]) for i in range(7)]
    communities = [CommunitySet.from_pairs([(65001, i), (3356, 7)]) for i in range(5)]
    messages = []
    for i in range(UPDATES):
        update = BGPUpdate(
            announced=[
                Prefix.from_string(f"10.{i % 200}.{(i * 2 + n) % 250}.0/24")
                for n in range(PREFIXES_PER_UPDATE)
            ],
            attributes=PathAttributes(
                as_path=paths[i % len(paths)],
                next_hop="192.0.2.1",
                communities=communities[i % len(communities)],
            ),
        )
        body = BGP4MPMessage(65001 + i % 3, 64600, "192.0.2.9", "192.0.2.1", update)
        messages.append((1000 + i, body))
    write_updates_dump(path, messages, compress=False)
    return path


def _replay(path):
    """One pass that reads every elem; returns (records, elems)."""
    stream = BGPStream(data_interface=SingleFileDataInterface(path, dump_type="updates"))
    records = elems = 0
    for record in stream.records():
        records += 1
        for elem in record.elems():
            elem.to_ascii()
            elems += 1
    return records, elems


def _series(snapshot, name, kind=None):
    return snapshot[name]["" if kind is None else f'{{kind="{kind}"}}']


def test_metrics_enable_alone_counts_the_decode_tier(tmp_path):
    """One switch: no second ``enable()`` is needed for the decode series."""
    path = _write_dump(str(tmp_path / "updates.mrt"))
    names = (
        ("repro_decode_records_scanned_total", None),
        ("repro_decode_elems_total", "lazy"),
        ("repro_decode_attr_blocks_total", "deferred"),
    )
    metrics.enable()
    try:
        before = metrics.metrics_snapshot()
        records, elems = _replay(path)
        after = metrics.metrics_snapshot()
    finally:
        metrics.disable()
    scanned, lazy, blocks = (
        _series(after, name, kind) - _series(before, name, kind) for name, kind in names
    )
    assert (records, elems) == (UPDATES, UPDATES * PREFIXES_PER_UPDATE)
    assert scanned == records
    assert lazy == elems
    assert blocks == UPDATES  # one attribute block per UPDATE


#: Counts that are pure functions of the work done (the intern and segment
#: keys depend on what earlier passes left in the pool and the cache).
DECODE_KEYS = (
    "records_scanned",
    "bytes_viewed",
    "bytes_copied",
    "attr_blocks_deferred",
    "attr_blocks_eager",
    "attr_fields_materialised",
    "lazy_elems",
    "elems_materialised",
    "eager_elems",
    "bmp_frames_scanned",
)


def _decode_counts():
    # Read through the ``repro.core.profiling`` view the ledger uses.
    snapshot = profiling.snapshot()
    return {key: getattr(snapshot, key) for key in DECODE_KEYS}


def test_concurrent_decode_counts_are_exact(tmp_path):
    """Four threads decoding at once (more threads than a small runner has
    cores) lose no increment."""
    path = _write_dump(str(tmp_path / "updates.mrt"))
    threads = 4
    barrier = threading.Barrier(threads)

    def worker():
        barrier.wait()
        _replay(path)

    interval = sys.getswitchinterval()
    profiling.enable()
    try:
        _replay(path)
        single = _decode_counts()
        profiling.enable()  # a fresh window
        sys.setswitchinterval(1e-6)  # switch threads mid-increment if one can
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in pool)
        together = _decode_counts()
    finally:
        sys.setswitchinterval(interval)
        profiling.disable()
    assert single["lazy_elems"] == single["elems_materialised"] == UPDATES * PREFIXES_PER_UPDATE
    assert single["attr_fields_materialised"] > 0
    assert together == {key: threads * value for key, value in single.items()}


# ---------------------------------------------------------------------------
# bgpreader --decode-stats: pinned text, fresh windows
# ---------------------------------------------------------------------------


def _stats_lines(*argv):
    """The ``#`` lines of one in-process ``bgpreader --decode-stats`` run,
    started as a fresh process would be: with an empty intern pool."""
    reset_default_pool()
    out = io.StringIO()
    args = reader.build_parser().parse_args([*argv, "--decode-stats"])
    assert reader.run(args, out) == 0
    return [line for line in out.getvalue().splitlines() if line.startswith("#")]


def _report(**counts):
    values = dict(
        records=0, viewed="0 (0.0%)", copied=0, deferred=0, fields=0, lazy=0,
        materialised=0, skipped=0, eager=0, hits=0, misses=0, seg_hits=0, seg_misses=0,
    )
    values.update(counts)
    return [
        f"# records scanned:          {values['records']}",
        "# bmp frames scanned:       0",
        f"# bytes viewed (zero-copy): {values['viewed']}",
        f"# bytes copied:             {values['copied']}",
        f"# attr blocks deferred:     {values['deferred']}",
        "# attr blocks eager:        0",
        f"# attr fields materialised: {values['fields']}",
        f"# lazy elems created:       {values['lazy']}",
        f"# elems materialised:       {values['materialised']}",
        f"# elems skipped (lazy win): {values['skipped']}",
        f"# eager elems created:      {values['eager']}",
        f"# intern hits:              {values['hits']}",
        f"# intern misses:            {values['misses']}",
        f"# segment cache hits:       {values['seg_hits']}",
        f"# segment cache misses:     {values['seg_misses']}",
        "# segment files corrupt:    0",
    ]


#: The reports for ``_build_archive(13)`` over ``-w 900,2500``.
PINNED = {
    "default": _report(
        records=35, viewed="2841 (100.0%)", deferred=23, fields=69, lazy=42,
        materialised=42, hits=36, misses=26,
    ),
    "cold": _report(
        records=35, viewed="2841 (100.0%)", deferred=23, fields=106, lazy=42,
        materialised=42, hits=36, misses=26, seg_misses=2,
    ),
    "warm": _report(eager=42, hits=22, misses=28, seg_hits=2),
    "truncated": ["# updates|1300|ris|rrc0|corrupted-record|end|1300"]
    + _report(
        records=14, viewed="740 (59.1%)", copied=513, deferred=15, fields=45, lazy=24,
        materialised=24, hits=20, misses=26,
    ),
}


def test_decode_stats_text_is_pinned(tmp_path):
    with tempfile.TemporaryDirectory() as root:
        archive = _build_archive(root, 13)
        window = ["--archive", root, "-w", "900,2500"]
        cache = ["--broker-cache", str(tmp_path / "segments")]
        assert _stats_lines(*window) == PINNED["default"]
        assert _stats_lines(*window, *cache) == PINNED["cold"]
        assert _stats_lines(*window, *cache) == PINNED["warm"]
        dump = archive.path_for("ris", "rrc0", "updates", 1300)
        assert os.path.basename(dump).startswith("updates.")
        with open(dump, "rb") as handle:
            data = handle.read()
        with open(dump, "wb") as handle:
            handle.write(data[: len(data) // 2])
        assert _stats_lines(*window) == PINNED["truncated"]


def test_each_decode_stats_run_is_a_fresh_window():
    with tempfile.TemporaryDirectory() as root:
        _build_archive(root, 13)
        argv = ("--archive", root, "-w", "900,2500")
        first = _stats_lines(*argv)
        assert first == _stats_lines(*argv)
        assert first == PINNED["default"]
