"""Lazy zero-copy decode must be observably invisible (ISSUE 6, ISSUE 12).

Decode is always lazy and always interned; one reference pins its
behaviour.  Stream level: for randomized archives and live BMP feeds, the
elem streams of the default stream — as dataclass values, ASCII lines and
``field_dict()`` views — must be *identical* to the same stream run over
the eager, pool-free ``PathAttributes.decode`` oracle (laziness and
interning may change identity and timing, never values), across
the Listing-1 cursor and ``records()`` consumption and filters.  Call level: with
the attribute-block decoder swapped for the oracle, ``decode_update``, the
MRT parser and the BMP scan must produce the same values, the same
not-valid records and the same exceptions — lazy decode that returns never
fails later, and what the oracle rejects lazy decode rejects at decode time.
"""

from __future__ import annotations

import contextlib
import pickle
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgp.aspath import ASPath, ASPathSegment, SegmentType
from repro.bgp import message as bgp_message
from repro.bgp.attributes import LazyPathAttributes, PathAttributes, decode_attributes
from repro.bgp.community import CommunitySet
from repro.bgp.fsm import SessionState
from repro.bgp.message import BGPUpdate, decode_update
from repro.bgp.prefix import Prefix
from repro.bmp.codec import scan_messages
from repro.bmp.messages import BMPMessage, BMPPeerHeader
from repro.bmp.source import BMPFeedProducer, BMPKafkaDataSource
from repro.broker.broker import Broker
from repro.collectors.archive import Archive
from repro.core import metrics
from repro.core.interfaces import BrokerDataInterface, LiveDataInterface
from repro.core.intern import InternPool, default_pool, reset_default_pool
from repro.core.stream import BGPStream
from repro.kafka.broker import MessageBroker
from repro.mrt import records as mrt_records
from repro.mrt.parser import read_dump
from repro.mrt.records import BGP4MPMessage, BGP4MPStateChange, PeerEntry, RIBPrefixRecord
from repro.mrt.writer import write_rib_dump, write_updates_dump
from repro.pybgpstream import BGPStream as PyBGPStream

# ---------------------------------------------------------------------------
# Randomized archive builder
# ---------------------------------------------------------------------------

PEER_ASNS = (65001, 65002)


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


def _build_archive(root: str, seed: int) -> Archive:
    """One collector with a RIB dump and an updates dump (MP-reach, state)."""
    rng = random.Random(seed)
    archive = Archive(root)
    paths = [_random_path(rng) for _ in range(6)]
    community_sets = [
        CommunitySet.from_pairs(
            (rng.randrange(1, 65000), rng.randrange(0, 1000))
            for _ in range(rng.randrange(0, 4))
        )
        for _ in range(4)
    ]
    v4_prefixes = [
        Prefix.from_string(f"10.{rng.randrange(256)}.{rng.randrange(256)}.0/24")
        for _ in range(12)
    ]
    v6_prefixes = [Prefix.from_string(f"2001:db8:{i:x}::/48") for i in range(3)]
    peers = [PeerEntry(f"10.0.0.{i}", f"10.0.0.{i}", asn) for i, asn in enumerate(PEER_ASNS)]

    def attrs() -> PathAttributes:
        value = PathAttributes(
            as_path=rng.choice(paths),
            next_hop=f"10.0.0.{rng.randrange(1, 5)}",
            communities=rng.choice(community_sets),
        )
        if rng.random() < 0.3:
            value.med = rng.randrange(0, 500)
        if rng.random() < 0.2:
            value.local_pref = rng.randrange(50, 200)
        return value

    table = {
        index: {
            prefix: attrs() for prefix in rng.sample(v4_prefixes, rng.randrange(4, 9))
        }
        for index in range(len(peers))
    }
    rib_path = archive.path_for("ris", "rrc0", "ribs", 1000)
    write_rib_dump(rib_path, 1000, "198.51.100.9", peers, table)
    archive.publish("ris", "rrc0", "ribs", 1000, 60, rib_path, available_at=1100)

    messages = []
    timestamp = 1300
    for _ in range(25):
        timestamp += rng.randrange(0, 20)
        peer = rng.choice(peers)
        kind = rng.random()
        if kind < 0.55:
            announce_attrs = attrs()
            if rng.random() < 0.25:
                announce_attrs.mp_next_hop = "2001:db8::1"
                announce_attrs.mp_reach_nlri = [rng.choice(v6_prefixes)]
            update = BGPUpdate(
                announced=rng.sample(v4_prefixes, rng.randrange(1, 4)),
                attributes=announce_attrs,
            )
            body = BGP4MPMessage(peer.asn, 65535, peer.address, "198.51.100.9", update)
        elif kind < 0.85:
            update = BGPUpdate(withdrawn=rng.sample(v4_prefixes, rng.randrange(1, 3)))
            body = BGP4MPMessage(peer.asn, 65535, peer.address, "198.51.100.9", update)
        else:
            body = BGP4MPStateChange(
                peer.asn, 65535, peer.address, "198.51.100.9",
                SessionState.ESTABLISHED,
                rng.choice([SessionState.IDLE, SessionState.ESTABLISHED]),
            )
        messages.append((timestamp, body))
    upd_path = archive.path_for("ris", "rrc0", "updates", 1300)
    write_updates_dump(upd_path, messages)
    archive.publish("ris", "rrc0", "updates", 1300, 300, upd_path, available_at=1700)
    return archive


@contextlib.contextmanager
def _oracle_decode():
    """Swap the attribute-block decoder for the ``PathAttributes.decode`` oracle.

    ``decode_attributes`` is the one entry point the UPDATE, MRT and BMP
    codecs build attribute sets through, so inside this block they decode
    every attribute eagerly, through the reference implementation.
    """

    def oracle(data):
        return PathAttributes.decode(data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bgp_message, "decode_attributes", oracle)
        patch.setattr(mrt_records, "decode_attributes", oracle)
        yield


def _attribute_sets(record):
    body = record.mrt.body if record.mrt is not None else None
    if isinstance(body, RIBPrefixRecord):
        return [entry.attributes for entry in body.entries]
    if isinstance(body, BGP4MPMessage):
        return [body.update.attributes]
    return []


def _consume(archive, *, listing1=False, filter_spec=None):
    """Full pass over the archive, rendered every observable way.

    ``listing1`` reads through ``get_next_record()`` / ``get_next_elem()``,
    which filter elems themselves; otherwise ``records()`` is filtered here
    with ``match_elem``.
    """
    reset_default_pool()
    stream = BGPStream(
        data_interface=BrokerDataInterface(Broker(archives=[archive]), max_empty_polls=1),
    )
    if filter_spec is not None:
        stream.add_filter(*filter_spec)
    stream.add_interval_filter(900, 2500)
    record_lines, elems, elem_lines, field_dicts = [], [], [], []
    if listing1:
        pairs = (
            (record, iter(record.get_next_elem, None))
            for record in iter(stream.get_next_record, None)
        )
    else:
        pairs = (
            (record, filter(stream.filters.match_elem, record.elems()))
            for record in stream.records()
        )
    for record, matched in pairs:
        record_lines.append(record.to_ascii())
        for elem in matched:
            elems.append(elem)
            elem_lines.append(elem.to_ascii())
            elem_lines.append(elem.to_bgpdump_ascii())
            field_dicts.append(elem.field_dict())
    return record_lines, elems, elem_lines, field_dicts


# ---------------------------------------------------------------------------
# The invisibility property: default × oracle decode × read idiom × filters
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    listing1=st.booleans(),
    filter_spec=st.sampled_from(
        [
            None,
            ("prefix", "10.0.0.0/9"),
            ("peer-asn", str(PEER_ASNS[0])),
            ("aspath", "_6.*$"),
            # Attribute-referencing terms: these force a lazy elem to
            # materialise its deferred attributes inside match_elem.
            ("origin-asn", "64513"),
            ("community", "65001:7"),
        ]
    ),
)
def test_lazy_tier_is_observably_invisible(seed, listing1, filter_spec):
    with tempfile.TemporaryDirectory() as root:
        archive = _build_archive(root, seed)
        # Eager and pool-free: nothing is deferred and nothing is shared.
        with _oracle_decode():
            reference = _consume(archive, filter_spec=filter_spec)
        assert not len(default_pool())
        lazy = _consume(archive, listing1=listing1, filter_spec=filter_spec)
        assert lazy[0] == reference[0]  # record ASCII
        assert lazy[1] == reference[1]  # elems as dataclass values
        assert lazy[2] == reference[2]  # elem + bgpdump ASCII
        assert lazy[3] == reference[3]  # field_dict views
        if filter_spec is None:
            assert reference[1], "generator produced no elems — test is vacuous"


def test_lazy_equivalence_under_live_bmp_feed():
    """Live mode: the default field_dict stream equals the oracle's."""
    rng = random.Random(2016)
    paths = [_random_path(rng) for _ in range(4)]
    sequence = []
    for i in range(20):
        update = BGPUpdate(
            announced=[Prefix.from_string(f"203.0.{i}.0/24")],
            attributes=PathAttributes(
                as_path=rng.choice(paths),
                next_hop="10.1.2.3",
                communities=CommunitySet.from_pairs([(65001, i)]),
            ),
        )
        sequence.append((1000 + 10 * i, f"10.9.9.{i % 3}", 65001 + i % 3, update))

    def consume():
        reset_default_pool()
        broker = MessageBroker()
        producer = BMPFeedProducer(broker, router="rtr1")
        for timestamp, address, asn, update in sequence:
            peer = BMPPeerHeader(address=address, asn=asn, timestamp_sec=timestamp)
            producer.publish(BMPMessage.route_monitoring(peer, update))
        stream = BGPStream(
            data_interface=LiveDataInterface(broker=broker, max_empty_polls=1, poll_interval=0.0),
        )
        out = []
        deferred = 0
        for record in stream.records():
            deferred += sum(
                bool(getattr(attrs, "deferred_types", None)) for attrs in _attribute_sets(record)
            )
            out.extend((record.time, elem.field_dict()) for elem in record.elems())
        return out, deferred

    with _oracle_decode():
        oracle_out, oracle_deferred = consume()
    lazy_out, lazy_deferred = consume()
    assert oracle_out and not oracle_deferred
    assert lazy_deferred, "the default live path decoded nothing lazily"
    assert lazy_out == oracle_out


# ---------------------------------------------------------------------------
# Corruption parity: the same signal as the eager oracle
# ---------------------------------------------------------------------------


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 — parity check wants any class
        return ("raise", type(exc).__name__, str(exc))


def _encoded_update() -> bytes:
    return BGPUpdate(
        announced=[Prefix.from_string("192.0.2.0/24")],
        attributes=PathAttributes(
            as_path=ASPath.from_asns([65001, 65002]),
            next_hop="10.0.0.1",
            communities=CommunitySet.from_pairs([(65001, 7)]),
            med=10,
            local_pref=200,
        ),
    ).encode()


def test_corrupt_update_raises_identically_in_both_tiers():
    """Flipping any byte of an UPDATE yields the oracle's outcome."""
    wire = _encoded_update()
    for offset in range(19, len(wire)):  # skip the marker header: framing layer
        for flip in (0xFF, 0x01):
            mutated = bytearray(wire)
            mutated[offset] ^= flip
            mutated = bytes(mutated)
            with _oracle_decode():
                eager = _outcome(lambda: decode_update(mutated))
            lazy = _outcome(lambda: decode_update(mutated))
            if lazy[0] == "ok" and isinstance(lazy[1].attributes, LazyPathAttributes):
                # What decoded must materialise: nothing is left to fail later.
                lazy[1].attributes.materialise_all()
            assert lazy == eager, f"divergence at offset {offset} flip {flip:#x}"


@pytest.mark.parametrize(
    "attr",
    [
        bytes([0x40, 1, 0]),  # ORIGIN with empty body -> IndexError
        bytes([0x40, 1, 1, 9]),  # ORIGIN 9 -> enum ValueError
        bytes([0x40, 2, 3, 2, 2, 0]),  # AS_PATH truncated segment body
        bytes([0x40, 2, 2, 9, 0]),  # AS_PATH unknown segment type
        bytes([0x40, 3, 2, 1, 2]),  # NEXT_HOP wrong length -> AddressValueError
        bytes([0x80, 4, 3, 0, 0, 1]),  # MED wrong length -> struct.error
        bytes([0xC0, 8, 3, 0, 0, 1]),  # COMMUNITIES not a multiple of 4
    ],
)
def test_deferred_validation_matches_eager_exception(attr):
    eager = _outcome(lambda: PathAttributes.decode(attr))
    lazy = _outcome(lambda: LazyPathAttributes(attr))
    assert eager[0] == "raise"
    assert lazy[:2] == eager[:2]  # same exception class (messages may differ
    # only for checks the validator reproduces through the same call)


def test_corrupt_mrt_records_surface_identically(tmp_path):
    """Byte-flipped dump files parse to identical record/elem sequences."""
    rng = random.Random(7)
    with tempfile.TemporaryDirectory() as root:
        archive = _build_archive(root, 7)
        upd_path = archive.path_for("ris", "rrc0", "updates", 1300)
        wire = open(upd_path, "rb").read()
        offsets = rng.sample(range(len(wire)), 40)
        for case, offset in enumerate(offsets):
            mutated = bytearray(wire)
            mutated[offset] ^= 0xFF
            target = tmp_path / f"mutated-{case}.mrt"
            target.write_bytes(bytes(mutated))

            def render(oracle):
                lines = []
                with _oracle_decode() if oracle else contextlib.nullcontext():
                    records = read_dump(str(target))
                for record in records:
                    if record.is_valid:
                        # Encoding a lazy body materialises every deferred
                        # attribute, so divergent decodes cannot hide.
                        lines.append((record.header.timestamp, record.encode()))
                    else:
                        lines.append((record.body.reason, bytes(record.body.raw)))
                return lines

            assert render(oracle=False) == render(oracle=True), f"offset {offset}"


def test_corrupt_bmp_frames_surface_identically():
    """Byte-flipped BMP buffers scan to identical message sequences."""
    rng = random.Random(11)
    peer = BMPPeerHeader(address="10.1.2.3", asn=65001, timestamp_sec=1000)
    frames = b"".join(
        BMPMessage.route_monitoring(
            peer,
            BGPUpdate(
                announced=[Prefix.from_string(f"198.51.{i}.0/24")],
                attributes=PathAttributes(
                    as_path=ASPath.from_asns([65001, 65000 + i]), next_hop="10.0.0.1"
                ),
            ),
        ).encode()
        for i in range(6)
    )

    def render(buffer, oracle):
        out = []
        with _oracle_decode() if oracle else contextlib.nullcontext():
            messages = scan_messages(buffer)
        for message in messages:
            if message.is_valid:
                body = message.body
                update = getattr(body, "update", None)
                out.append(
                    (
                        message.msg_type,
                        None if update is None else update.attributes.encode(),
                    )
                )
            else:
                out.append(("corrupt", message.body.reason, bytes(message.body.raw)))
        return out

    for offset in rng.sample(range(len(frames)), 50):
        mutated = bytearray(frames)
        mutated[offset] ^= 0xFF
        mutated = bytes(mutated)
        assert render(mutated, oracle=False) == render(mutated, oracle=True), f"offset {offset}"
    # Truncated tail parity with the incremental parser's kill reason.
    truncated = frames[: len(frames) - 3]
    lazy_scan = render(truncated, oracle=False)
    assert lazy_scan == render(truncated, oracle=True)
    assert lazy_scan[-1][1] == "truncated BMP message at end of stream"


# ---------------------------------------------------------------------------
# Lazy building blocks: deferral, interning (one probe per value), pickling
# ---------------------------------------------------------------------------


def _attr_block() -> bytes:
    update = _encoded_update()
    # 19-byte header, withdrawn_len(2) == 0, attr_len(2), then the block.
    attr_len = int.from_bytes(update[21:23], "big")
    return update[23 : 23 + attr_len]


def test_lazy_attributes_defer_and_match_eager():
    block = _attr_block()
    eager = PathAttributes.decode(block)
    lazy = decode_attributes(block)
    assert type(lazy) is LazyPathAttributes
    assert lazy.deferred_types  # nothing read yet
    assert lazy == eager  # comparison materialises every field
    assert not lazy.deferred_types
    assert lazy.encode() == eager.encode()


def test_lazy_attributes_intern_on_materialisation():
    block = _attr_block()
    reset_default_pool()
    lazy = decode_attributes(block)
    assert not len(default_pool())  # nothing read yet, nothing interned
    canonical = default_pool().path(PathAttributes.decode(block).as_path)
    assert lazy.as_path is canonical
    assert lazy.communities is default_pool().communities(lazy.communities)


def test_lazy_attributes_pickle_to_plain_eager_class():
    lazy = decode_attributes(_attr_block())
    clone = pickle.loads(pickle.dumps(lazy))
    assert type(clone) is PathAttributes
    assert clone == lazy


def test_lazy_elems_pickle_to_plain_elems(tmp_path):
    with tempfile.TemporaryDirectory() as root:
        archive = _build_archive(root, 3)
        reset_default_pool()
        stream = BGPStream(
            data_interface=BrokerDataInterface(
                Broker(archives=[archive]), max_empty_polls=1
            ),
        )
        stream.add_interval_filter(900, 2500)
        elems = [elem for record in stream.records() for elem in record.elems()]
        assert elems
        assert any(type(e).__name__ == "LazyBGPElem" for e in elems)
        clones = pickle.loads(pickle.dumps(elems))
        assert [type(c).__name__ for c in clones] == ["BGPElem"] * len(clones)
        assert clones == elems


@pytest.fixture
def pool_calls(monkeypatch):
    """Count the calls into ``InternPool.intern`` / ``path`` / ``communities``
    made from outside the pool (``path`` calling ``intern`` does not count)."""
    calls = {"intern": 0, "path": 0, "communities": 0}
    inside = []

    def counting(name):
        original = getattr(InternPool, name)

        def wrapper(self, *args):
            if not inside:
                calls[name] += 1
            inside.append(name)
            try:
                return original(self, *args)
            finally:
                inside.pop()

        return wrapper

    for name in calls:
        monkeypatch.setattr(InternPool, name, counting(name))
    return calls


def _deferred(record):
    """The still-deferred attribute type codes of each attribute set."""
    return [set(getattr(attrs, "deferred_types", ())) for attrs in _attribute_sets(record)]


def _stream(archive):
    reset_default_pool()
    stream = BGPStream(
        data_interface=BrokerDataInterface(Broker(archives=[archive]), max_empty_polls=1)
    )
    stream.add_interval_filter(900, 2500)
    return stream


def test_one_pool_probe_per_value_built(pool_calls):
    """A value is made canonical once, where it is built: a full
    records() → elems() → to_ascii() pass calls the pool exactly once per
    AS_PATH / COMMUNITIES body materialised, and extracting the elems of a
    record a second time calls it not at all."""
    pooled = {2, 8}  # AS_PATH, COMMUNITIES attribute type codes
    with tempfile.TemporaryDirectory() as root:
        stream = _stream(_build_archive(root, 5))
        bodies = elems = 0
        for record in stream.records():
            before = _deferred(record)
            first = [elem.to_ascii() for elem in record.elems()]
            elems += len(first)
            bodies += sum(
                len((was - now) & pooled) for was, now in zip(before, _deferred(record))
            )
            probes = dict(pool_calls)
            assert [elem.to_ascii() for elem in record.elems()] == first
            assert pool_calls == probes, record
        assert elems > bodies > 0
        assert pool_calls["path"] + pool_calls["communities"] == bodies
        assert pool_calls["intern"] == 0


def test_filtered_out_elems_never_reach_the_pool(pool_calls):
    with tempfile.TemporaryDirectory() as root:
        stream = _stream(_build_archive(root, 5))
        stream.add_filter("prefix-exact", "192.0.2.0/24")  # matches no elem
        candidates = [elem for record in stream.records() for elem in record.elems()]
        assert candidates
        assert not any(stream.filters.match_elem(elem) for elem in candidates)
        assert pool_calls == {"intern": 0, "path": 0, "communities": 0}


def test_attribute_filters_agree_between_lazy_and_eager_elems():
    """match_elem parity on filters that read deferred attributes.

    A lazy elem carries only the gate fields eagerly; origin-asn, aspath
    and community filters must transparently force materialisation and
    produce the same verdicts an eager elem gets — never silently match
    (or reject) on a missing field.
    """
    with tempfile.TemporaryDirectory() as root:
        archive = _build_archive(root, 17)
        for spec in [
            ("origin-asn", "64513"),
            ("aspath", "^65001"),
            ("aspath", "."),
            ("community", "65001:7"),
            ("community", "1:1"),
        ]:
            with _oracle_decode():
                reference = _consume(archive, filter_spec=spec)
            lazy = _consume(archive, filter_spec=spec)
            assert lazy[1] == reference[1], spec
            assert lazy[3] == reference[3], spec
        # At least one spec above must actually admit elems, or the parity
        # claim is vacuous ("." matches every non-empty path string).
        assert _consume(archive, filter_spec=("aspath", "."))[1]


def test_attribute_filters_materialise_only_past_the_prefix_gate():
    """Gate ordering: attribute-reading filter terms run after the trie.

    With a prefix filter that rejects everything, an additional origin-asn
    term must not cost a single materialisation — the cheap gates run
    first, so the lazy tier's deferral survives filtered fan-out (this is
    what keeps the gateway's per-subscriber match_elem cost independent of
    attribute decode).
    """
    with tempfile.TemporaryDirectory() as root:
        archive = _build_archive(root, 21)
        reset_default_pool()
        metrics.enable()
        metrics.reset_decode_counts()
        try:
            stream = BGPStream(
                data_interface=BrokerDataInterface(
                    Broker(archives=[archive]), max_empty_polls=1
                ),
            )
            stream.add_interval_filter(900, 2500)
            stream.add_filter("prefix-exact", "192.0.2.0/24")  # matches no elem
            stream.add_filter("origin-asn", "65001")
            matched = [
                elem
                for record in stream.records()
                for elem in record.elems()
                if stream.filters.match_elem(elem)
            ]
        finally:
            metrics.disable()
        counts = metrics.decode_counts()
        assert not matched
        assert counts["lazy_elems"] > 0
        assert counts["elems_materialised"] == 0


def test_decode_stats_counters_report_the_deferral():
    with tempfile.TemporaryDirectory() as root:
        archive = _build_archive(root, 9)
        reset_default_pool()
        metrics.enable()
        metrics.reset_decode_counts()
        try:
            stream = BGPStream(
                data_interface=BrokerDataInterface(
                    Broker(archives=[archive]), max_empty_polls=1
                ),
            )
            stream.add_interval_filter(900, 2500)
            for record in stream.records():
                for _ in record.elems():
                    break  # touch at most one elem per record
        finally:
            metrics.disable()
        counts = metrics.decode_counts()
        assert counts["records_scanned"] > 0
        assert counts["attr_blocks_deferred"] > 0
        assert counts["bytes_viewed"] > 0
        assert counts["lazy_elems"] > 0
        lines = "\n".join(metrics.decode_summary_lines())
        assert "attr blocks deferred" in lines


# ---------------------------------------------------------------------------
# CLI knobs
# ---------------------------------------------------------------------------


def test_bgpreader_eager_decode_and_decode_stats_flags(tmp_path, capsys):
    from repro.core import reader

    with tempfile.TemporaryDirectory() as root:
        archive = _build_archive(root, 13)
        dump = archive.path_for("ris", "rrc0", "updates", 1300)

        def lines(*extra):
            reset_default_pool()
            args = reader.build_parser().parse_args(
                ["--single-file", dump, *extra]
            )
            import io

            out = io.StringIO()
            assert reader.run(args, out) == 0
            return out.getvalue().splitlines()

        default_lines = lines()
        assert default_lines

        stats_lines = lines("--decode-stats")
        comments = [line for line in stats_lines if line.startswith("# ")]
        assert any("records scanned" in line for line in comments)
        assert any("attr blocks deferred" in line for line in comments)
        assert any("attr blocks eager:        0" in line for line in comments)
        assert [line for line in stats_lines if not line.startswith("# ")] == default_lines

        with pytest.raises(SystemExit) as exit_info:
            lines("--eager-decode")
        assert exit_info.value.code == 2


def _gateway_eager_flag():
    from repro.gateway.cli import build_parser

    build_parser().parse_args(["--live", "feed.bmp", "--eager-decode"])


@pytest.mark.parametrize(
    "call, error",
    [
        (_gateway_eager_flag, SystemExit),
        (lambda: BGPStream(data_interface="kafka", parallel=True), TypeError),
        (lambda: PyBGPStream(data_interface="kafka", parallel=None), TypeError),
        (lambda: read_dump("dump.mrt", cache_records=True), TypeError),
        (lambda: read_dump("dump.mrt", lazy=False), TypeError),
        (lambda: decode_update(_encoded_update(), lazy=False), TypeError),
        (lambda: scan_messages(b"", lazy=False), TypeError),
        (lambda: BMPKafkaDataSource(MessageBroker(), eager=True), TypeError),
        (lambda: LiveDataInterface(broker=MessageBroker(), eager=True), TypeError),
        (lambda: PyBGPStream(data_interface="kafka", eager=True), TypeError),
    ],
)
def test_removed_decode_and_executor_spellings_are_rejected(call, error):
    """The options ISSUEs 12 and 19 deleted fail loudly instead of being
    ignored (``bgpreader --eager-decode`` is covered by the CLI test above,
    ``--batch-size`` in ``test_reader_and_pybgpstream``)."""
    with pytest.raises(error) as raised:
        call()
    if error is SystemExit:
        assert raised.value.code == 2
