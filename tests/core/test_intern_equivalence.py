"""Interning must be observably invisible (property test).

For a randomized record stream, the elems produced with flyweight interning
enabled must be *identical* — as dataclass values, as ASCII lines and as
``field_dict()`` views — to the elems produced with interning fully
disabled, record by record and through the batched API.  Interning may
only change object identity and memory behaviour, never semantics.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.aspath import ASPath, ASPathSegment, SegmentType
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import CommunitySet
from repro.bgp.fsm import SessionState
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.broker.broker import Broker
from repro.collectors.archive import Archive
from repro.core.interfaces import BrokerDataInterface
from repro.core.intern import parse_interning, reset_default_pool
from repro.core.stream import BGPStream
from repro.mrt.records import BGP4MPMessage, BGP4MPStateChange, PeerEntry
from repro.mrt.writer import write_rib_dump, write_updates_dump


def _random_path(rng: random.Random) -> ASPath:
    segments = [
        ASPathSegment(
            SegmentType.AS_SEQUENCE,
            tuple(rng.randrange(1, 65000) for _ in range(rng.randrange(1, 5))),
        )
    ]
    if rng.random() < 0.3:
        segments.append(
            ASPathSegment(
                SegmentType.AS_SET,
                tuple(sorted({rng.randrange(64512, 64600) for _ in range(2)})),
            )
        )
    return ASPath(tuple(segments))


def _random_communities(rng: random.Random) -> CommunitySet:
    return CommunitySet.from_pairs(
        (rng.randrange(1, 65000), rng.randrange(0, 1000))
        for _ in range(rng.randrange(0, 4))
    )


def _build_archive(tmp_path, seed: int) -> Archive:
    """A two-collector archive with RIBs, updates, MP-reach and state msgs."""
    rng = random.Random(seed)
    archive = Archive(str(tmp_path / f"equiv-{seed}"))
    paths = [_random_path(rng) for _ in range(10)]
    community_sets = [_random_communities(rng) for _ in range(6)]
    v4_prefixes = [
        Prefix.from_string(f"10.{rng.randrange(256)}.{rng.randrange(256)}.0/24")
        for _ in range(30)
    ]
    v6_prefixes = [Prefix.from_string(f"2001:db8:{i:x}::/48") for i in range(4)]

    for collector in ("rrc0", "rrc1"):
        peers = [
            PeerEntry(f"10.0.{c}.{i}", f"10.0.{c}.{i}", 64500 + 10 * c + i)
            for c, i in [(int(collector[-1]), i) for i in range(3)]
        ]
        table = {}
        for index in range(len(peers)):
            table[index] = {
                prefix: PathAttributes(
                    as_path=rng.choice(paths),
                    next_hop=f"10.0.0.{rng.randrange(1, 5)}",
                    communities=rng.choice(community_sets),
                )
                for prefix in rng.sample(v4_prefixes, rng.randrange(8, 20))
            }
        rib_path = archive.path_for("ris", collector, "ribs", 1000)
        write_rib_dump(rib_path, 1000, "198.51.100.9", peers, table)
        archive.publish("ris", collector, "ribs", 1000, 60, rib_path, available_at=1100)

        messages = []
        timestamp = 1300
        for _ in range(40):
            timestamp += rng.randrange(0, 20)
            peer = rng.choice(peers)
            kind = rng.random()
            if kind < 0.55:  # announcement (sometimes with an IPv6 MP_REACH)
                attrs = PathAttributes(
                    as_path=rng.choice(paths),
                    next_hop=f"10.0.0.{rng.randrange(1, 5)}",
                    communities=rng.choice(community_sets),
                )
                announced = rng.sample(v4_prefixes, rng.randrange(1, 4))
                if rng.random() < 0.25:
                    attrs.mp_next_hop = "2001:db8::1"
                    attrs.mp_reach_nlri = [rng.choice(v6_prefixes)]
                update = BGPUpdate(announced=announced, attributes=attrs)
                body = BGP4MPMessage(peer.asn, 65535, peer.address, "198.51.100.9", update)
            elif kind < 0.85:  # withdrawal
                update = BGPUpdate(withdrawn=rng.sample(v4_prefixes, rng.randrange(1, 3)))
                body = BGP4MPMessage(peer.asn, 65535, peer.address, "198.51.100.9", update)
            else:  # session state change
                body = BGP4MPStateChange(
                    peer.asn, 65535, peer.address, "198.51.100.9",
                    SessionState.ESTABLISHED,
                    rng.choice([SessionState.IDLE, SessionState.ESTABLISHED]),
                )
            messages.append((timestamp, body))
        upd_path = archive.path_for("ris", collector, "updates", 1300)
        write_updates_dump(upd_path, messages)
        archive.publish("ris", collector, "updates", 1300, 300, upd_path, available_at=1700)
    return archive


def _consume(archive, *, interning, batched=False):
    """Records + elems of a full pass, rendered every observable way."""
    reset_default_pool()
    with parse_interning(bool(interning)):
        stream = BGPStream(
            data_interface=BrokerDataInterface(Broker(archives=[archive]), max_empty_polls=1),
            interning=interning,
        )
        stream.add_interval_filter(900, 2500)
        if batched:
            records = (r for batch in stream.records_batched(batch_size=64) for r in batch)
        else:
            records = stream.records()
        record_lines = []
        elems = []
        elem_lines = []
        field_dicts = []
        for record in records:
            record_lines.append(record.to_ascii())
            for elem in record.elems():
                elems.append(elem)
                elem_lines.append(elem.to_ascii())
                elem_lines.append(elem.to_bgpdump_ascii())
                field_dicts.append(elem.field_dict())
        return record_lines, elems, elem_lines, field_dicts


@pytest.mark.parametrize("seed", [2016, 42, 7])
def test_interning_preserves_observable_semantics(tmp_path, seed):
    archive = _build_archive(tmp_path, seed)
    with_pool = _consume(archive, interning=True)
    without_pool = _consume(archive, interning=False)

    assert with_pool[0] == without_pool[0]  # record ASCII
    assert with_pool[1] == without_pool[1]  # elems as dataclass values
    assert with_pool[2] == without_pool[2]  # elem + bgpdump ASCII
    assert with_pool[3] == without_pool[3]  # field_dict views
    assert with_pool[1], "generator produced no elems — test is vacuous"


def test_interning_equivalence_under_batched_consumption(tmp_path):
    """``records_batched()`` with interning on or off emits the exact elem
    sequence of the uninterned ``records()`` reference."""
    archive = _build_archive(tmp_path, 1234)
    reference = _consume(archive, interning=False)
    batched_on = _consume(archive, interning=True, batched=True)
    batched_off = _consume(archive, interning=False, batched=True)

    assert batched_on == reference
    assert batched_off == reference
    assert reference[1]


def test_stream_interning_false_disables_parse_dedup(tmp_path):
    """BGPStream(interning=False) opts its own readers out of decode-time
    interning too — the process-wide default pool stays untouched."""
    from repro.core.intern import default_pool

    archive = _build_archive(tmp_path, 555)
    reset_default_pool()
    stream = BGPStream(
        data_interface=BrokerDataInterface(Broker(archives=[archive]), max_empty_polls=1),
        interning=False,
    )
    stream.add_interval_filter(900, 2500)
    elems = [elem for record in stream.records() for elem in record.elems()]
    assert elems
    assert sum(default_pool().sizes().values()) == 0

    # Same stream with interning on: the pool fills and paths are shared.
    reset_default_pool()
    stream = BGPStream(
        data_interface=BrokerDataInterface(Broker(archives=[archive]), max_empty_polls=1),
        interning=True,
    )
    stream.add_interval_filter(900, 2500)
    interned_elems = [elem for record in stream.records() for elem in record.elems()]
    assert interned_elems == elems
    assert default_pool().sizes()["path"] > 0


def test_private_pool_isolates_from_default_pool(tmp_path):
    """BGPStream(interning=InternPool()) is isolation: the stream's values
    are canonicalised through its own pool and the process-wide default pool
    stays untouched (decode-time interning is switched off for its reads)."""
    from repro.core.intern import InternPool, default_pool

    archive = _build_archive(tmp_path, 777)
    reset_default_pool()
    private = InternPool()
    stream = BGPStream(
        data_interface=BrokerDataInterface(Broker(archives=[archive]), max_empty_polls=1),
        interning=private,
    )
    stream.add_interval_filter(900, 2500)
    elems = [elem for record in stream.records() for elem in record.elems()]
    assert elems
    assert sum(default_pool().sizes().values()) == 0
    assert private.sizes()["path"] > 0
    # Elems sharing an AS path share the private pool's canonical object.
    by_value = {}
    for elem in elems:
        if elem.as_path is not None:
            by_value.setdefault(str(elem.as_path), set()).add(id(elem.as_path))
    assert all(len(ids) == 1 for ids in by_value.values())
