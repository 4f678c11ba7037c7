"""Seeded input generation for both front doors.

Historical inputs are an archive written by ``gen_archive.py`` in a child
process (pinned ``PYTHONHASHSEED``); live inputs are pre-encoded BMP Route
Monitoring frames plus, for each socket client, the exact windows it is owed.
Nothing is cached between runs: ``setup_s`` is the real cost of making them.
"""

from __future__ import annotations

import hashlib
import ipaddress
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import params

HERE = os.path.dirname(os.path.abspath(__file__))

#: First event-second of the live feed.
LIVE_BASE_TS = 1_450_000_000


# ---------------------------------------------------------------------------
# Historical: archive + manifest
# ---------------------------------------------------------------------------


def generate_archive(seed: int, scale: dict, out_dir: str) -> Tuple[str, dict, float]:
    """Generate the archive for ``seed`` under ``out_dir``.

    Returns ``(archive_root, manifest, wall_seconds)``.
    """
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen_archive.py"), out_dir, str(seed), scale["name"]],
        check=True,
        env=env,
    )
    wall = time.perf_counter() - started
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    return os.path.join(out_dir, "archive"), manifest, wall


def window_counts(manifest: dict, dump_types: Tuple[str, ...], end: int) -> Tuple[int, int]:
    """Writer-side ``(records, elems)`` of the dumps starting before ``end``."""
    records = elems = 0
    for entry in manifest["files"].values():
        if entry["type"] in dump_types and entry["timestamp"] < end:
            records += entry["records"]
            elems += entry["elems"]
    return records, elems


def choose_watched_prefixes(manifest: dict, seed: int, count: int) -> List[str]:
    """Seed-chosen IPv4 prefixes that occur in both RIBs and updates."""
    ribs, updates = manifest["prefix_elems"]["ribs"], manifest["prefix_elems"]["updates"]
    candidates = sorted(p for p in updates if p in ribs and ":" not in p)
    return sorted(random.Random(seed ^ 0x1ED6E4).sample(candidates, count))


def watched_elems(manifest: dict, watched: List[str]) -> int:
    """Writer-side elems on ``watched`` prefixes or their more-specifics."""
    nets = [ipaddress.ip_network(p) for p in watched]
    total = 0
    for per_prefix in manifest["prefix_elems"].values():
        for prefix, count in per_prefix.items():
            net = ipaddress.ip_network(prefix)
            if any(net.version == w.version and net.subnet_of(w) for w in nets):
                total += count
    return total


# ---------------------------------------------------------------------------
# Live: BMP frames + the windows each client is owed
# ---------------------------------------------------------------------------


@dataclass
class ExpectedWindow:
    """One window a client must receive, and the frame whose arrival closes it."""

    start: int
    prefixes: List[str]
    closing_frame: Optional[int]  # None: closed by end-of-feed flush


@dataclass
class Feed:
    """A generated live input."""

    frames: List[bytes]
    sha256: str
    #: client name -> the windows it is owed, in order.
    expected: Dict[str, List[ExpectedWindow]]
    ws_prefix: str
    subscriber_prefixes: List[str]
    elems: int


def make_feed(seed: int, live: dict) -> Feed:
    """Pre-encode the Route Monitoring frames of one live run.

    Each frame carries 2 NLRI inside one seed-chosen /16, a 4-hop AS path and
    2 communities, from one of ``peers`` peers; ``frames_per_event_second``
    consecutive frames share a peer-header timestamp.
    """
    from repro.bgp.aspath import ASPath
    from repro.bgp.attributes import PathAttributes
    from repro.bgp.community import Community, CommunitySet
    from repro.bgp.message import BGPUpdate
    from repro.bgp.prefix import Prefix
    from repro.bmp import BMPMessage, BMPPeerHeader

    rng = random.Random(seed)
    nets, per_second = live["nets"], live["frames_per_event_second"]
    peers = [(f"10.255.0.{k + 1}", 64500 + k) for k in range(live["peers"])]
    frames: List[bytes] = []
    digest = hashlib.sha256()
    # (event-second, net, prefixes) per frame: what the expected slices need.
    shape: List[Tuple[int, int, List[str]]] = []
    for index in range(live["frames"]):
        second = LIVE_BASE_TS + index // per_second
        address, asn = peers[rng.randrange(len(peers))]
        net = rng.randrange(nets)
        prefixes = [f"10.{net}.{rng.randrange(256)}.0/24" for _ in range(2)]
        update = BGPUpdate(
            announced=[Prefix.from_string(p) for p in prefixes],
            attributes=PathAttributes(
                as_path=ASPath.from_asns([asn] + [rng.randrange(1000, 4000) for _ in range(3)]),
                next_hop=address,
                communities=CommunitySet(
                    Community(asn, rng.randrange(1, 1000)) for _ in range(2)
                ),
            ),
        )
        peer = BMPPeerHeader(address=address, asn=asn, timestamp_sec=second)
        frame = BMPMessage.route_monitoring(peer, update).encode()
        frames.append(frame)
        digest.update(frame)
        shape.append((second, net, prefixes))

    ws_net = rng.randrange(nets)
    others = [n for n in range(nets) if n != ws_net]
    subscriber_nets = [others[j % len(others)] for j in range(live["filtered_subscribers"])]
    expected = {
        "sse": _expected_windows(shape, None),
        "ws": _expected_windows(shape, ws_net),
    }
    return Feed(
        frames=frames,
        sha256=digest.hexdigest(),
        expected=expected,
        ws_prefix=f"10.{ws_net}.0.0/16",
        subscriber_prefixes=[f"10.{n}.0.0/16" for n in subscriber_nets],
        elems=2 * len(frames),
    )


def _expected_windows(shape, net: Optional[int]) -> List[ExpectedWindow]:
    """Windows (1 event-second wide) of the frames on ``net`` (None = all).

    A subscriber's window closes when the first *admitted* elem of a later
    event-second arrives, so the closing frame is the next matching frame.
    """
    windows: List[ExpectedWindow] = []
    for index, (second, frame_net, prefixes) in enumerate(shape):
        if net is not None and frame_net != net:
            continue
        if not windows or windows[-1].start != second:
            if windows:
                windows[-1].closing_frame = index
            windows.append(ExpectedWindow(second, [], None))
        windows[-1].prefixes.extend(prefixes)
    return windows
