"""The hub's subscription index is a pure pre-filter.

ISSUE 15 satellite: fanning out through the shared prefix trie (one
``covering`` walk per elem, ``offer`` on the candidates only) must deliver
exactly what the exhaustive loop — offer every elem to every subscriber —
delivers: the same per-subscriber elem sequences and windows, the same
``elems_delivered`` and ``snapshot()``.  The exhaustive loop lives here, as
the oracle, and nowhere in ``src/``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import CommunitySet
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.bmp import BMPMessage, BMPPeerHeader
from repro.core.elem import BGPElem, ElemType
from repro.core.filters import FilterSet
from repro.core.interfaces import LiveDataInterface
from repro.core.stream import BGPStream
from repro.gateway.hub import Subscriber

from test_hub import BASE_TS, live_hub, make_update, publish_feed, striped_feed

#: Nested on purpose (/0 ⊃ /8 ⊃ /16 ⊃ /24 ⊃ /25, /32 ⊃ /48 ⊃ /64), so one
#: elem is covered by several watched prefixes and covers several others.
V4 = ["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.128/25",
      "10.2.0.0/16", "192.0.2.0/24"]
V6 = ["2001:db8::/32", "2001:db8:1::/48", "2001:db8:1:2::/64", "2001:dead::/32"]
PEERS = [65001, 65002]
COMMUNITIES = ["65001:100", "3356:666"]
PREFIX_MODES = ["prefix", "prefix-more", "prefix-exact", "prefix-less", "prefix-any"]


# -- generated feeds and rosters ---------------------------------------------


def bmp_message(kind, peer_asn, prefix, communities, ts) -> BMPMessage:
    v6 = prefix in V6
    peer = BMPPeerHeader(
        address=f"2001:db8::{peer_asn - 65000}" if v6 else f"10.0.0.{peer_asn - 65000}",
        asn=peer_asn,
        timestamp_sec=ts,
    )
    if kind == "up":
        return BMPMessage.peer_up(peer)
    if kind == "down":  # withdraws the peer's tracked RIB, then a state elem
        return BMPMessage.peer_down(peer, reason=4)
    attributes = PathAttributes(
        as_path=ASPath.from_asns([peer_asn, 3356, 15169]),
        next_hop="192.0.2.1",
        communities=CommunitySet.from_strings(communities),
    )
    update = BGPUpdate(attributes=attributes)
    if kind == "withdraw":
        (attributes.mp_unreach_nlri if v6 else update.withdrawn).append(Prefix.from_string(prefix))
    elif v6:
        attributes.mp_next_hop = "2001:db8::1"
        attributes.mp_reach_nlri.append(Prefix.from_string(prefix))
    else:
        update.announced.append(Prefix.from_string(prefix))
    return BMPMessage.route_monitoring(peer, update)


events = st.tuples(
    st.sampled_from(["announce"] * 5 + ["withdraw", "up", "down"]),
    st.sampled_from(PEERS),
    st.sampled_from(V4 + V6),
    st.lists(st.sampled_from(COMMUNITIES), unique=True, max_size=2),
    st.integers(0, 2),  # seconds since the previous event
)

prefix_terms = st.tuples(st.sampled_from(PREFIX_MODES), st.sampled_from(V4 + V6))
other_terms = st.one_of(
    st.tuples(st.just("peer-asn"), st.sampled_from(PEERS).map(str)),
    st.tuples(
        st.just("elem-type"), st.sampled_from(["announcement", "withdrawal", "state"])
    ),
    st.tuples(st.just("community"), st.sampled_from(COMMUNITIES)),
)
#: A subscription: filter terms (none = firehose) and an optional interval.
subscriptions = st.tuples(
    st.lists(st.one_of(prefix_terms, other_terms), max_size=4),
    st.one_of(st.none(), st.tuples(st.integers(0, 8), st.integers(8, 30))),
)


def feed_messages(drawn_events):
    messages, ts = [], BASE_TS
    for kind, peer_asn, prefix, communities, gap in drawn_events:
        ts += gap
        messages.append(bmp_message(kind, peer_asn, prefix, communities, ts))
    return messages


def filter_set(terms, interval) -> FilterSet:
    filters = FilterSet()
    for name, value in terms:
        filters.add(name, value)
    if interval is not None:
        filters.add_interval(BASE_TS + interval[0], BASE_TS + interval[1])
    return filters


def feed_elems(messages):
    """The elems the hub's bridge will see, decoded by a second stream."""
    stream = BGPStream(
        data_interface=LiveDataInterface(
            broker=publish_feed(messages), max_empty_polls=1, poll_interval=0.0
        )
    )
    return [elem for _record, elem in stream.elems()]


def exhaustive(elems, subscribers) -> int:
    """The oracle: offer every elem to every subscriber, then finish."""
    delivered = 0
    for elem in elems:
        for subscriber in subscribers:
            delivered += subscriber.offer(elem)
    for subscriber in subscribers:
        subscriber.flush(finished=True)
    return delivered


def outcome(subscriber):
    """Everything a consumer can observe of one subscriber."""
    windows = [
        (w.start, w.end, w.elems, w.coalesced, w.dropped_elems, w.gap_before)
        for w in subscriber.drain()
    ]
    return windows, subscriber.snapshot()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(events, min_size=1, max_size=30), st.lists(subscriptions, max_size=8))
def test_indexed_fan_out_equals_exhaustive_fan_out(drawn_events, roster):
    messages = feed_messages(drawn_events)
    hub = live_hub(messages)
    # A small queue bound, so coalescing and drops are compared as well.
    indexed = [
        hub.subscribe(filter_set(terms, interval), max_queued_windows=3)
        for terms, interval in roster
    ]
    oracle = [
        Subscriber(filter_set(terms, interval), max_queued_windows=3)
        for terms, interval in roster
    ]
    hub.run()
    elems = feed_elems(messages)
    expected_delivered = exhaustive(elems, oracle)

    assert hub.elems_seen == len(elems)
    assert hub.elems_delivered == expected_delivered
    assert hub.elems_delivered <= hub.elems_offered <= hub.elems_seen * len(roster)
    for got, want in zip(indexed, oracle):
        assert outcome(got) == outcome(want)


# -- the offer count ---------------------------------------------------------


def test_pure_prefix_roster_is_offered_exactly_what_it_is_delivered():
    # Disjoint ``prefix``/``prefix-more`` watchers: every candidate the trie
    # names is a match, so nothing is offered in vain.
    messages, expect = striped_feed()
    hub = live_hub(messages)
    for net in expect:
        hub.subscribe(FilterSet().add("prefix", f"{net}.0.0/16"))
        hub.subscribe(FilterSet().add("prefix-more", f"{net}.0.0/16"))
    hub.subscribe(FilterSet().add("prefix", "172.16.0.0/12"))  # watches nothing fed
    hub.run()
    assert hub.elems_seen == len(messages)
    assert hub.elems_offered == hub.elems_delivered == 2 * len(messages)
    assert hub.stats()["elems_offered"] == hub.elems_offered


def test_nested_and_duplicate_watches_offer_each_subscriber_once():
    messages = [make_update(65001, "10.1.2.0/24", BASE_TS + i) for i in range(4)]
    hub = live_hub(messages)
    nested = hub.subscribe(
        FilterSet().add("prefix", "10.0.0.0/8").add("prefix", "10.1.0.0/16")
        .add("prefix-exact", "10.1.2.0/24")
    )
    twin = hub.subscribe(FilterSet().add("prefix", "10.1.0.0/16"))
    firehose = hub.subscribe()
    hub.run()
    assert hub.elems_offered == hub.elems_delivered == 3 * len(messages)
    for subscriber in (nested, twin, firehose):
        assert subscriber.snapshot()["elems_matched"] == len(messages)


def test_non_prefix_terms_are_decided_by_offer_not_by_the_index():
    # The index only narrows by prefix: a peer-asn term on top of a prefix
    # term is offered every covered elem and admits its peer's half.
    messages, _ = striped_feed(seconds=6, nets=("10.1",))
    hub = live_hub(messages)
    subscriber = hub.subscribe(
        FilterSet().add("prefix", "10.1.0.0/16").add("peer-asn", "65001")
    )
    hub.run()
    assert hub.elems_offered == len(messages)
    assert hub.elems_delivered == subscriber.snapshot()["elems_matched"] == len(messages) // 2


# -- roster and filter changes between records --------------------------------


def scripted(hub, actions):
    """Run ``actions[i]`` just before the bridge receives record ``i``."""
    records = hub.stream.records

    def stepping():
        for index, record in enumerate(records()):
            if index in actions:
                actions[index]()
            yield record

    hub.stream.records = stepping


def prefixes_of(subscriber):
    return [str(elem.prefix) for window in subscriber.drain() for elem in window.elems]


def one_per_second(net, seconds=6):
    return [make_update(65001, f"{net}.{i}.0/24", BASE_TS + i) for i in range(seconds)]


def test_subscribe_and_unsubscribe_take_effect_from_the_next_record():
    hub = live_hub(one_per_second("10.1"))
    early = hub.subscribe(FilterSet().add("prefix", "10.1.0.0/16"))
    late = []
    scripted(
        hub,
        {
            2: lambda: late.append(hub.subscribe(FilterSet().add("prefix", "10.0.0.0/8"))),
            4: lambda: hub.unsubscribe(early),
        },
    )
    hub.run()
    early.flush()  # it left before the feed ended: its last window is still open
    assert prefixes_of(early) == [f"10.1.{i}.0/24" for i in range(4)]
    assert prefixes_of(late[0]) == [f"10.1.{i}.0/24" for i in range(2, 6)]
    assert hub.elems_offered == hub.elems_delivered == 8


def test_add_and_remove_filter_take_effect_from_the_next_record():
    messages = [
        message
        for pair in zip(one_per_second("10.1"), one_per_second("10.2"))
        for message in pair
    ]  # records 2i / 2i+1 announce 10.1.i.0/24 / 10.2.i.0/24
    hub = live_hub(messages)
    subscriber = hub.subscribe(FilterSet().add("prefix", "10.1.0.0/16"))
    scripted(
        hub,
        {
            4: lambda: subscriber.add_filter("prefix", "10.2.0.0/16"),  # starts matching
            8: lambda: subscriber.remove_filter("prefix", "10.1.0.0/16"),  # stops
        },
    )
    hub.run()
    assert prefixes_of(subscriber) == [
        "10.1.0.0/24", "10.1.1.0/24",
        "10.1.2.0/24", "10.2.2.0/24", "10.1.3.0/24", "10.2.3.0/24",
        "10.2.4.0/24", "10.2.5.0/24",
    ]
    assert hub.elems_offered == hub.elems_delivered == 8


def test_removing_the_last_prefix_filter_moves_the_subscriber_to_the_always_list():
    messages = one_per_second("10.1", seconds=3) + [
        make_update(65001, "172.16.0.0/24", BASE_TS + 3),
        make_update(65002, "172.16.1.0/24", BASE_TS + 4),
    ]
    hub = live_hub(messages)
    subscriber = hub.subscribe(
        FilterSet().add("prefix", "10.1.0.0/16").add("peer-asn", "65001")
    )
    scripted(hub, {3: lambda: subscriber.remove_filter("prefix", "10.1.0.0/16")})
    hub.run()
    # With no prefix term left only the peer-asn term gates: the trie cannot
    # name this subscriber any more, so every elem is offered to it.
    assert prefixes_of(subscriber) == ["10.1.0.0/24", "10.1.1.0/24", "10.1.2.0/24",
                                       "172.16.0.0/24"]
    assert hub.elems_offered == 5
    assert hub.elems_delivered == 4


def test_a_less_specific_watch_is_always_probed():
    # prefix-less/prefix-any match elems that *contain* the watched prefix;
    # a covering walk from the elem cannot find those.
    messages = [make_update(65001, "10.0.0.0/8", BASE_TS), make_update(65001, "11.0.0.0/8", BASE_TS)]
    hub = live_hub(messages)
    less = hub.subscribe(FilterSet().add("prefix-less", "10.1.0.0/16"))
    both = hub.subscribe(FilterSet().add("prefix", "11.0.0.0/8").add("prefix-any", "10.1.2.0/24"))
    hub.run()
    assert prefixes_of(less) == ["10.0.0.0/8"]
    assert prefixes_of(both) == ["10.0.0.0/8", "11.0.0.0/8"]
    assert hub.elems_offered == 4 and hub.elems_delivered == 3


def test_a_subscriber_without_a_hub_is_unchanged():
    subscriber = Subscriber(FilterSet().add("prefix", "10.1.0.0/16"))
    inside = BGPElem(ElemType.ANNOUNCEMENT, BASE_TS, "10.0.0.1", 65001,
                     prefix=Prefix.from_string("10.1.2.0/24"))
    outside = BGPElem(ElemType.ANNOUNCEMENT, BASE_TS, "10.0.0.1", 65001,
                      prefix=Prefix.from_string("10.2.2.0/24"))
    state = BGPElem(ElemType.STATE, BASE_TS, "10.0.0.1", 65001)
    assert [subscriber.offer(e) for e in (inside, outside, state)] == [True, False, False]
    subscriber.add_filter("prefix", "10.2.0.0/16")  # no hub to tell: still fine
    subscriber.remove_filter("prefix", "10.1.0.0/16")
    assert [subscriber.offer(e) for e in (inside, outside, state)] == [False, True, False]
    subscriber.flush(finished=True)
    assert prefixes_of(subscriber) == ["10.1.2.0/24", "10.2.2.0/24"]
