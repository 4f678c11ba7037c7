"""Sharing survives every source: one object per distinct value.

A consumer that retains one route per ``(collector, peer, prefix)`` — the
shape of the routing-tables plugin — must end up holding one object per
distinct AS path, per distinct community set and per distinct prefix,
whichever way the elems reached it: decoded from MRT, replayed from the
persistent segment cache (several segment files, each unpickled on its
own), or round-tripped through ``pickle``.  The live BMP feed is covered by
``tests/bmp/test_live_stream.py::TestLiveEquivalence::test_live_elems_are_interned``.

The archive has the population shape of a RIB replay: many (VP × prefix)
cells, few distinct values, repeated across dump files.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import CommunitySet
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.broker.broker import Broker
from repro.broker.segments import SegmentCache
from repro.collectors.archive import Archive
from repro.core.interfaces import BrokerDataInterface
from repro.core.intern import reset_default_pool
from repro.core.stream import BGPStream
from repro.mrt.records import BGP4MPMessage, PeerEntry
from repro.mrt.writer import write_rib_dump, write_updates_dump

COLLECTORS = ("rrc0", "rrc1")
PEERS = 3
PREFIXES = 120
DISTINCT_PATHS = 20
DISTINCT_COMMUNITY_SETS = 10
UPDATE_MESSAGES = 60


@pytest.fixture(scope="module")
def archive(tmp_path_factory) -> Archive:
    """Two collectors, a RIB and an updates dump each: four dump files."""
    rng = random.Random(20160201)
    archive = Archive(str(tmp_path_factory.mktemp("sharing")))
    paths = [
        ASPath.from_asns([rng.randrange(1, 65000) for _ in range(rng.randrange(3, 8))])
        for _ in range(DISTINCT_PATHS)
    ]
    community_sets = [
        CommunitySet.from_pairs(
            (rng.randrange(1, 65000), rng.randrange(0, 1000)) for _ in range(rng.randrange(1, 5))
        )
        for _ in range(DISTINCT_COMMUNITY_SETS)
    ]
    prefixes = [Prefix.from_string(f"10.{i // 256}.{i % 256}.0/24") for i in range(PREFIXES)]

    def attrs() -> PathAttributes:
        return PathAttributes(
            as_path=rng.choice(paths),
            next_hop=f"10.0.0.{rng.randrange(1, 5)}",
            communities=rng.choice(community_sets),
        )

    for number, collector in enumerate(COLLECTORS):
        peers = [
            PeerEntry(f"10.{number}.0.{i}", f"10.{number}.0.{i}", 64500 + 10 * number + i)
            for i in range(PEERS)
        ]
        tables = {index: {prefix: attrs() for prefix in prefixes} for index in range(PEERS)}
        rib_path = archive.path_for("ris", collector, "ribs", 1000)
        write_rib_dump(rib_path, 1000, "198.51.100.9", peers, tables)
        archive.publish("ris", collector, "ribs", 1000, 60, rib_path, available_at=1100)

        messages = []
        timestamp = 1300
        for _ in range(UPDATE_MESSAGES):
            timestamp += rng.randrange(0, 3)
            peer = rng.choice(peers)
            update = BGPUpdate(
                announced=rng.sample(prefixes, rng.randrange(1, 6)), attributes=attrs()
            )
            messages.append(
                (timestamp, BGP4MPMessage(peer.asn, 65535, peer.address, "198.51.100.9", update))
            )
        upd_path = archive.path_for("ris", collector, "updates", 1300)
        write_updates_dump(upd_path, messages)
        archive.publish("ris", collector, "updates", 1300, 300, upd_path, available_at=1700)
    return archive


def _elems(archive, segment_cache=None):
    """Every elem of a full pass, as a fresh process would see them."""
    reset_default_pool()
    stream = BGPStream(
        data_interface=BrokerDataInterface(Broker(archives=[archive]), max_empty_polls=1),
        segment_cache=segment_cache,
    )
    stream.add_interval_filter(900, 2500)
    return [elem for record in stream.records() for elem in record.elems()]


def _assert_one_object_per_value(elems):
    """Retain one route per (collector, peer, prefix); count objects vs values."""
    routes = {}
    for elem in elems:
        key = (elem.collector, elem.peer_address, elem.prefix)
        routes[key] = (elem.as_path, elem.next_hop, elem.communities)
    assert len(routes) == len(COLLECTORS) * PEERS * PREFIXES
    for name, values in [
        ("as_path", [route[0] for route in routes.values()]),
        ("communities", [route[2] for route in routes.values()]),
        ("prefix", [key[2] for key in routes]),
    ]:
        distinct = len(set(values))
        assert distinct > 1, name
        assert len({id(value) for value in values}) == distinct, name


def test_cold_pass_shares_values(archive):
    _assert_one_object_per_value(_elems(archive))


def test_warm_segment_cache_pass_shares_values_across_segment_files(archive, tmp_path):
    cold_cache = SegmentCache(str(tmp_path / "segments"))
    cold = _elems(archive, cold_cache)
    assert cold_cache.stats()["stores"] == 2 * len(COLLECTORS)
    cold_cache.close()

    warm_cache = SegmentCache(str(tmp_path / "segments"))
    warm = _elems(archive, warm_cache)
    stats = warm_cache.stats()
    warm_cache.close()
    assert (stats["hits"], stats["misses"]) == (2 * len(COLLECTORS), 0)
    assert warm == cold
    _assert_one_object_per_value(warm)


def test_pickle_round_trip_shares_values(archive):
    elems = _elems(archive)
    clones = pickle.loads(pickle.dumps(elems))
    assert clones == elems
    _assert_one_object_per_value(clones)
