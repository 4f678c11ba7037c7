"""Reconnect-with-cursor session registry: attach, park, resume, reap.

These tests drive :meth:`GatewayServer._attach` / ``_release`` directly —
no sockets — so every transition of the durable-session state machine is
deterministic: a ``session=`` subscription retains delivered windows, a
disconnect parks it, ``resume=<session>:<boundary>`` acks through the
boundary and replays the rest, stale resume tokens answer 410
(:class:`ResumeGone`), and parked sessions idle past ``session_ttl`` are
reaped.  The socket-level acceptance run (reconnect across a forced hub
restart) lives in ``tests/chaos/test_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.core.interfaces import LiveDataInterface
from repro.core.stream import BGPStream
from repro.gateway.protocol import HTTPRequest
from repro.gateway.server import GatewayServer, ResumeGone

from test_hub import BASE_TS, live_hub, make_update, publish_feed


def request(query=(), headers=None) -> HTTPRequest:
    return HTTPRequest("GET", "/stream/sse", list(query), dict(headers or {}))


def make_elems(count, net="10.9"):
    """``count`` decoded elems, one per second (realistic BGPElem objects)."""
    messages = [
        make_update(65001, f"{net}.{i}.0/24", BASE_TS + i) for i in range(count)
    ]
    stream = BGPStream(
        data_interface=LiveDataInterface(
            broker=publish_feed(messages), max_empty_polls=1, poll_interval=0.0
        )
    )
    return [elem for record in stream.records() for elem in record.elems()]


def idle_server(session_ttl=60.0) -> GatewayServer:
    """A server over an un-started hub: the registry works without sockets."""
    hub = live_hub([make_update(65001, "10.0.0.0/24", BASE_TS)])
    return GatewayServer(hub, session_ttl=session_ttl)


def fill(subscriber, elems):
    for elem in elems:
        subscriber.offer(elem)
    subscriber.flush()


class TestSessionLifecycle:
    def test_session_subscription_is_durable_and_named(self):
        server = idle_server()
        subscriber, session = server._attach(
            request([("session", "s1"), ("window", "1")])
        )
        assert session is not None and session.id == "s1" and session.attached
        assert subscriber.name == "s1"
        assert server.session_count == 1
        # Durable means retaining: popped windows wait for an ack.
        fill(subscriber, make_elems(2))
        subscriber.pop_window()
        assert subscriber.inflight_count == 1

    def test_blank_session_gets_a_server_generated_id(self):
        server = idle_server()
        _, session = server._attach(request([("session", "")]))
        assert session is not None and len(session.id) == 12
        assert server.session_count == 1

    def test_ephemeral_subscriber_is_unsubscribed_on_release(self):
        server = idle_server()
        subscriber, session = server._attach(request([("window", "1")]))
        assert session is None
        assert subscriber.inflight_count == 0  # no retention without a session
        server._release(subscriber, session)
        assert server.hub.subscriber_count == 0

    def test_release_parks_an_unfinished_session(self):
        server = idle_server()
        subscriber, session = server._attach(request([("session", "s1")]))
        server._release(subscriber, session)
        assert not session.attached
        assert session.detached_at is not None
        assert server.session_count == 1  # parked, not dropped
        assert server.hub.subscriber_count == 1  # still fed while parked

    def test_release_drops_a_finished_drained_session(self):
        server = idle_server()
        subscriber, session = server._attach(
            request([("session", "s1"), ("window", "1")])
        )
        fill(subscriber, make_elems(1))
        subscriber.flush(finished=True)
        while subscriber.pop_window() is not None:
            pass
        server._release(subscriber, session)
        assert server.session_count == 0
        assert server.hub.subscriber_count == 0


class TestResume:
    def attach_and_deliver(self, server, windows=4):
        subscriber, session = server._attach(
            request([("session", "s1"), ("window", "1")])
        )
        fill(subscriber, make_elems(windows + 1))  # +1 closes the last window
        seen = [subscriber.pop_window() for _ in range(windows)]
        assert all(seen)
        server._release(subscriber, session)
        return subscriber, session, seen

    def test_resume_acks_through_the_boundary_and_replays_the_rest(self):
        server = idle_server()
        subscriber, session, seen = self.attach_and_deliver(server)
        resumed, resession = server._attach(
            request([("resume", f"s1:{seen[1].end}")])
        )
        assert resumed is subscriber and resession is session and session.attached
        assert subscriber.acked_through == seen[1].end
        replay = [subscriber.pop_window() for _ in range(2)]
        assert [w.start for w in replay] == [seen[2].start, seen[3].start]

    def test_last_event_id_header_is_a_resume_token(self):
        server = idle_server()
        subscriber, _session, seen = self.attach_and_deliver(server)
        resumed, _ = server._attach(
            request(headers={"last-event-id": f"s1:{seen[2].end}"})
        )
        assert resumed is subscriber
        assert subscriber.acked_through == seen[2].end

    def test_bare_session_reattach_replays_everything_unacked(self):
        server = idle_server()
        subscriber, session, seen = self.attach_and_deliver(server)
        resumed, _ = server._attach(request([("session", "s1")]))
        assert resumed is subscriber
        assert subscriber.acked_through is None  # no ack without a token
        replay = [subscriber.pop_window() for _ in range(len(seen))]
        assert [w.start for w in replay] == [w.start for w in seen]

    def test_resume_of_an_unknown_session_is_gone(self):
        server = idle_server()
        with pytest.raises(ResumeGone):
            server._attach(request([("resume", "nope:123")]))

    def test_resume_while_attached_is_gone(self):
        server = idle_server()
        server._attach(request([("session", "s1")]))
        with pytest.raises(ResumeGone):
            server._attach(request([("resume", "s1:0")]))

    def test_malformed_resume_tokens_are_bad_requests(self):
        server = idle_server()
        with pytest.raises(ValueError):
            server._attach(request([("resume", "no-colon")]))
        with pytest.raises(ValueError):
            server._attach(request([("resume", "s1:not-a-number")]))

    def test_ws_ack_control_frame_releases_inflight_windows(self):
        server = idle_server()
        subscriber, _session, seen = self.attach_and_deliver(server)
        response = GatewayServer._apply_control(
            subscriber, b'{"action":"ack","window_end":%d}' % seen[2].end
        )
        assert response == {
            "type": "ack",
            "action": "ack",
            "window_end": seen[2].end,
            "released": 3,
        }
        assert subscriber.inflight_count == 1


class TestReaping:
    def test_parked_sessions_expire_after_the_ttl(self):
        server = idle_server(session_ttl=5.0)
        subscriber, session = server._attach(request([("session", "s1")]))
        server._release(subscriber, session)
        parked_at = session.detached_at
        assert server.reap_idle_sessions(now=parked_at + 4.9) == 0
        assert server.reap_idle_sessions(now=parked_at + 5.1) == 1
        assert server.session_count == 0
        assert server.hub.subscriber_count == 0  # retained windows freed
        assert server.sessions_reaped == 1
        with pytest.raises(ResumeGone):  # the cursor is gone for good
            server._attach(request([("resume", "s1:0")]))

    def test_attached_sessions_are_never_reaped(self):
        server = idle_server(session_ttl=0.0)
        server._attach(request([("session", "s1")]))
        assert server.reap_idle_sessions(now=1e9) == 0
        assert server.session_count == 1
