"""Child process that generates one historical input: an archive + its manifest.

``repro.collectors`` seeds one of its RNGs from ``hash((seed, name))``, so the
same ``ScenarioConfig`` gives different dumps under different interpreter hash
seeds.  ``inputs.generate_archive`` therefore runs this file in a child with
``PYTHONHASHSEED`` pinned; the same ``--seed`` then always yields the same
bytes, which the manifest's ``input_sha256`` lets two runs prove.

The manifest is the *writer-side* oracle: record and elem counts are taken
from what the collectors were asked to write (the arguments of
``Collector.write_rib_dump`` / ``write_updates_dump``), never from decoding
the files back, so a decoder bug cannot hide behind its own output.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.collectors import Archive, ScenarioConfig, TopologyConfig, build_scenario  # noqa: E402

import params  # noqa: E402


def _count_writes(collector, files, prefix_elems):
    """Wrap the collector's two dump writers so every write is tallied."""
    write_ribs, write_updates = collector.write_rib_dump, collector.write_updates_dump

    def counted_ribs(archive, timestamp, tables, **kwargs):
        dump = write_ribs(archive, timestamp, tables, **kwargs)
        per_prefix = Counter(str(p) for table in tables.values() for p in table)
        prefix_elems["ribs"].update(per_prefix)
        # One PEER_INDEX_TABLE record, then one record per distinct prefix.
        files[dump.path] = _entry(dump, 1 + len(per_prefix), sum(per_prefix.values()))
        return dump

    def counted_updates(archive, window_start, entries, **kwargs):
        dump = write_updates(archive, window_start, entries, **kwargs)
        records = 0
        for _timestamp, _vp, kind, payload in entries:
            if kind == "state":
                records += 1 if collector.project.dumps_state_messages else 0
                continue
            records += 1
            prefix = payload if kind == "withdraw" else payload.prefix
            prefix_elems["updates"][str(prefix)] += 1
        files[dump.path] = _entry(dump, records, records)
        return dump

    collector.write_rib_dump = counted_ribs
    collector.write_updates_dump = counted_updates


def _entry(dump, records, elems):
    return {
        "project": dump.project,
        "collector": dump.collector,
        "type": dump.dump_type,
        "timestamp": dump.timestamp,
        "records": records,
        "elems": elems,
    }


def main(argv):
    out_dir, seed, scale_name = argv[0], int(argv[1]), argv[2]
    hist = params.SCALES[scale_name]["hist"]
    config = ScenarioConfig(
        start=params.START,
        duration=hist["duration"],
        topology=TopologyConfig(seed=params.TOPOLOGY_SEED, **hist["topology"]),
        collectors_per_project=dict(hist["collectors_per_project"]),
        vps_per_collector=hist["vps_per_collector"],
        full_feed_fraction=1.0,
        churn_updates_per_vp_per_hour=hist["churn_updates_per_vp_per_hour"],
        seed=seed,
    )
    scenario = build_scenario(config)
    files, prefix_elems = {}, {"ribs": Counter(), "updates": Counter()}
    for collector in scenario.collectors:
        _count_writes(collector, files, prefix_elems)
    archive_root = os.path.join(out_dir, "archive")
    scenario.generate(Archive(archive_root))

    # The gzip header embeds the write time, so hash the MRT bytes inside.
    manifest_files = {}
    digest = hashlib.sha256()
    for path in sorted(files):
        with gzip.open(path, "rb") as handle:
            file_sha = hashlib.sha256(handle.read()).hexdigest()
        relpath = os.path.relpath(path, archive_root)
        manifest_files[relpath] = dict(files[path], sha256=file_sha)
        digest.update(f"{relpath}:{file_sha}\n".encode())
    manifest = {
        "seed": seed,
        "scale": scale_name,
        "start": config.start,
        "end": config.end,
        "files": manifest_files,
        "prefix_elems": {kind: dict(sorted(c.items())) for kind, c in prefix_elems.items()},
        "input_sha256": digest.hexdigest(),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
