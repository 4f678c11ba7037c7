"""The asyncio fan-out server: WebSocket + SSE endpoints over a StreamHub.

Endpoints (all GET):

* ``/stream/sse?prefix=10.0.0.0/8&peer-asn=65001&window=5`` — an SSE
  stream of ``window`` events (JSON payloads); query parameters name
  filters exactly like ``BGPStream.add_filter`` (repeat a parameter to add
  several values) plus the knobs ``window`` (seconds per event-time
  window), ``interval=START,END``, ``max-queued`` and ``coalesce-budget``.
* ``/stream/ws`` — the same stream over WebSocket, plus *subscription
  multiplexing*: the client sends ``{"action": "add_filter", "name":
  "prefix", "value": "10.0.0.0/8"}`` / ``"remove_filter"`` text frames to
  retune its FilterSet mid-connection; each is acknowledged with an
  ``{"type": "ack", ...}`` frame.
* ``/stats`` — hub / decode / intern counters, server uptime and
  per-session queue/unacked depths as JSON.
* ``/metrics`` — the process-wide telemetry registry in Prometheus text
  exposition format (see :mod:`repro.core.metrics` and
  ``docs/OBSERVABILITY.md``).

One bridge thread decodes the feed (see :mod:`repro.gateway.hub`); each
connection runs a sender coroutine that drains its subscriber's bounded
window queue, one socket write per batch of ready windows (one window
when it keeps up).  A slow client blocks only its own ``writer.drain()`` —
the decode loop never waits, and the subscriber's queue coalesces or
drops windows (with gap markers) instead of growing without bound.

Reconnect-with-cursor: a client that adds ``session=<id>`` (or a bare
``session=`` for a server-generated id) gets a durable subscription whose
windows each carry a **resume token** ``<session>:<window_end>`` (also the
SSE ``id:`` line).  On disconnect the subscriber is parked, retaining
every delivered-but-unacked window; reconnecting with
``resume=<token>`` (or the standard ``Last-Event-ID`` header) acks
through the token's boundary and replays the rest — across client drops
*and* supervised hub restarts, the client misses nothing it had not
already acked.  WebSocket clients ack mid-stream with ``{"action":
"ack", "window_end": N}`` control frames; SSE clients ack implicitly by
reconnecting with their last event id.  Parked sessions idle longer than
``session_ttl`` are reaped; ``heartbeat_interval`` adds keepalive frames
(SSE comments / WS pings) so dead connections surface promptly.  A
terminal bridge failure ends every stream with a distinct ``{"type":
"error", ...}`` frame — never a clean-looking ``end``.
"""

from __future__ import annotations

import asyncio
import json
import time
import uuid
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core import metrics
from repro.core.filters import _FILTER_NAMES, FilterSet
from repro.gateway.hub import (
    DEFAULT_COALESCE_BUDGET,
    DEFAULT_MAX_QUEUED_WINDOWS,
    DEFAULT_WINDOW_SIZE,
    GatewayWindow,
    StreamHub,
    Subscriber,
)
from repro.gateway import protocol
from repro.gateway.protocol import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    WSFrameParser,
    encode_ws_frame,
    http_response,
    parse_http_request,
    sse_event,
    sse_heartbeat,
    sse_preamble,
    websocket_handshake_response,
)

__all__ = ["GatewayServer", "subscription_from_query"]

_MAX_HEAD = 64 * 1024

#: Default seconds a detached session survives before it is reaped.
DEFAULT_SESSION_TTL = 60.0

#: Most windows a sender serialises into one socket write before it hands
#: the loop to the other connections.
SEND_BATCH_WINDOWS = 32

#: Telemetry (see docs/OBSERVABILITY.md): bridged per live server by a
#: weakref-bound collector, summed when several servers share a process.
_gw_sessions = metrics.gauge(
    "repro_gateway_sessions",
    "Durable gateway sessions currently registered (attached + parked).",
    collected=True,
)
_gw_connections = metrics.counter(
    "repro_gateway_connections_total",
    "HTTP connections the gateway has accepted (all endpoints).",
    collected=True,
)
_gw_reaped = metrics.counter(
    "repro_gateway_sessions_reaped_total",
    "Parked sessions dropped after idling past their TTL.",
    collected=True,
)


class ResumeGone(Exception):
    """A resume token that no longer names a live session (HTTP 410)."""


class _Session:
    """One durable subscription: a parked or attached retained subscriber."""

    __slots__ = ("id", "subscriber", "attached", "detached_at")

    def __init__(self, session_id: str, subscriber: Subscriber) -> None:
        self.id = session_id
        self.subscriber = subscriber
        self.attached = True
        self.detached_at: Optional[float] = None


def subscription_from_query(query) -> Tuple[FilterSet, dict]:
    """Build a FilterSet + subscriber knobs from HTTP query pairs."""
    filters = FilterSet()
    knobs = {
        "window_size": DEFAULT_WINDOW_SIZE,
        "max_queued_windows": DEFAULT_MAX_QUEUED_WINDOWS,
        "coalesce_budget": DEFAULT_COALESCE_BUDGET,
        "name": None,
    }
    for name, value in query:
        if name in _FILTER_NAMES:
            filters.add(name, value)
        elif name == "window":
            knobs["window_size"] = int(value)
        elif name == "max-queued":
            knobs["max_queued_windows"] = int(value)
        elif name == "coalesce-budget":
            knobs["coalesce_budget"] = int(value)
        elif name == "name":
            knobs["name"] = value
        elif name == "interval":
            start_text, _, end_text = value.partition(",")
            end = int(end_text) if end_text and end_text != "-1" else None
            filters.add_interval(int(start_text), end)
        else:
            raise ValueError(f"unknown query parameter {name!r}")
    return filters, knobs


class GatewayServer:
    """Serve a :class:`StreamHub` over WebSocket and SSE."""

    def __init__(
        self,
        hub: StreamHub,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_buffer: Optional[int] = None,
        heartbeat_interval: Optional[float] = None,
        session_ttl: float = DEFAULT_SESSION_TTL,
        reap_interval: Optional[float] = None,
    ) -> None:
        self.hub = hub
        self.host = host
        self.port = port  # 0 = ephemeral; read back after start()
        #: Per-connection send-buffer bound (bytes).  Shrinking it makes a
        #: slow client's backpressure reach the sender coroutine sooner, so
        #: window coalescing engages instead of the kernel absorbing the
        #: whole stream; tests use it to exercise that path deterministically.
        self.socket_buffer = socket_buffer
        #: Seconds of send-side silence before a keepalive frame goes out
        #: (SSE comment / WS ping).  None disables heartbeats.
        self.heartbeat_interval = heartbeat_interval
        #: Seconds a detached session survives before reaping frees its
        #: subscriber (and everything it retained).
        self.session_ttl = session_ttl
        self.reap_interval = (
            reap_interval if reap_interval is not None else max(session_ttl / 4.0, 0.5)
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: Dict[str, _Session] = {}
        self._reaper: Optional[asyncio.Task] = None
        self.connections_served = 0
        self.sessions_reaped = 0
        self.started_at = time.monotonic()
        # Bridge this server into the telemetry registry (weakref-owned).
        metrics.default_registry().add_collector(
            GatewayServer._collect_metrics, owner=self
        )

    def _collect_metrics(self) -> None:
        """Scrape-time bridge: fold this server's counters in."""
        _gw_sessions.inc(len(self._sessions))
        _gw_connections.add_total(self.connections_served)
        _gw_reaped.add_total(self.sessions_reaped)

    async def start(self) -> "GatewayServer":
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._reaper = asyncio.ensure_future(self._reap_loop())
        return self

    async def close(self) -> None:
        if self._reaper is not None:
            self._reaper.cancel()
            self._reaper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- session registry ----------------------------------------------------

    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(self.reap_interval)
            self.reap_idle_sessions()

    def reap_idle_sessions(self, now: Optional[float] = None) -> int:
        """Drop detached sessions idle past ``session_ttl``; returns count."""
        now = now if now is not None else time.monotonic()
        doomed = [
            session
            for session in self._sessions.values()
            if not session.attached
            and session.detached_at is not None
            and now - session.detached_at > self.session_ttl
        ]
        for session in doomed:
            self._drop_session(session)
            self.sessions_reaped += 1
        return len(doomed)

    def _drop_session(self, session: _Session) -> None:
        self._sessions.pop(session.id, None)
        self.hub.unsubscribe(session.subscriber)

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- connection handling ------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.connections_served += 1
        if self.socket_buffer is not None:
            import socket as socket_module

            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket_module.SOL_SOCKET, socket_module.SO_SNDBUF, self.socket_buffer
                )
            writer.transport.set_write_buffer_limits(high=self.socket_buffer)
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            writer.close()
            return
        try:
            if len(head) > _MAX_HEAD:
                raise ValueError("request head too large")
            request = parse_http_request(head)
            if request.method != "GET":
                writer.write(http_response("405 Method Not Allowed", b'{"error":"GET only"}'))
            elif request.path == "/stats":
                await self._serve_stats(writer)
            elif request.path == "/metrics":
                await self._serve_metrics(writer)
            elif request.path == "/stream/sse":
                await self._serve_sse(request, writer)
            elif request.path == "/stream/ws":
                await self._serve_ws(request, reader, writer)
            else:
                writer.write(http_response("404 Not Found", b'{"error":"not found"}'))
        except ResumeGone as exc:
            writer.write(
                http_response(
                    "410 Gone",
                    protocol.dumps({"error": str(exc)}).encode("utf-8"),
                )
            )
        except ValueError as exc:
            writer.write(
                http_response(
                    "400 Bad Request",
                    protocol.dumps({"error": str(exc)}).encode("utf-8"),
                )
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away: its subscriber was already removed
        finally:
            try:
                await writer.drain()
                writer.close()
            except (ConnectionError, RuntimeError):
                pass

    async def _serve_stats(self, writer: asyncio.StreamWriter) -> None:
        stats = self.hub.stats()
        stats["server"] = {
            "connections_served": self.connections_served,
            "sessions": len(self._sessions),
            "sessions_reaped": self.sessions_reaped,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "session_detail": {
                session.id: {
                    "attached": session.attached,
                    "queued_windows": session.subscriber.ready_count,
                    "unacked_windows": session.subscriber.inflight_count,
                }
                for session in list(self._sessions.values())
            },
        }
        if metrics.enabled:
            stats["decode"] = metrics.decode_counts()
        writer.write(
            http_response("200 OK", protocol.dumps(stats).encode("utf-8"))
        )

    async def _serve_metrics(self, writer: asyncio.StreamWriter) -> None:
        body = metrics.exposition().encode("utf-8")
        writer.write(
            http_response(
                "200 OK",
                body,
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        )

    # -- subscription / session attach --------------------------------------

    def _attach(self, request) -> Tuple[Subscriber, Optional[_Session]]:
        """Resolve a request into a subscriber: fresh, durable, or resumed.

        ``session=`` opts into a durable (retaining) subscription;
        ``resume=<session>:<boundary>`` (or ``Last-Event-ID``) re-attaches
        one, acking through the boundary and replaying the rest.
        """
        query: List[Tuple[str, str]] = []
        session_id: Optional[str] = None
        resume_token: Optional[str] = None
        for name, value in request.query:
            if name == "session":
                session_id = value or uuid.uuid4().hex[:12]
            elif name == "resume":
                resume_token = value
            else:
                query.append((name, value))
        if resume_token is None:
            last_event_id = request.header("last-event-id")
            if last_event_id:
                resume_token = last_event_id
        if resume_token is not None:
            sid, _, boundary_text = resume_token.rpartition(":")
            if not sid:
                raise ValueError(f"malformed resume token {resume_token!r}")
            try:
                boundary = int(boundary_text)
            except ValueError:
                raise ValueError(f"malformed resume token {resume_token!r}")
            session = self._reattach(sid)
            session.subscriber.ack(boundary)
            session.subscriber.requeue_unacked()
            return session.subscriber, session
        if session_id is not None:
            if session_id in self._sessions:
                # Re-attach without an ack: everything unacked replays.
                session = self._reattach(session_id)
                session.subscriber.requeue_unacked()
                return session.subscriber, session
            filters, knobs = subscription_from_query(query)
            knobs["retain_unacked"] = True
            if knobs.get("name") is None:
                knobs["name"] = session_id
            subscriber = self.hub.subscribe(filters, **knobs)
            session = _Session(session_id, subscriber)
            self._sessions[session_id] = session
            return subscriber, session
        filters, knobs = subscription_from_query(query)
        return self.hub.subscribe(filters, **knobs), None

    def _reattach(self, session_id: str) -> _Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise ResumeGone(f"unknown or expired session {session_id!r}")
        if session.attached:
            raise ResumeGone(f"session {session_id!r} is already attached")
        session.attached = True
        session.detached_at = None
        return session

    def _release(self, subscriber: Subscriber, session: Optional[_Session]) -> None:
        """Connection over: park a session (or drop a finished one), or
        unsubscribe an ephemeral subscriber."""
        if session is None:
            self.hub.unsubscribe(subscriber)
            return
        if subscriber.finished and subscriber.ready_count == 0:
            # The feed is over and the client saw everything — nothing a
            # reconnect could replay that it hasn't already received.
            self._drop_session(session)
            return
        session.attached = False
        session.detached_at = time.monotonic()

    @staticmethod
    def _bodies(
        session: Optional[_Session], batch: List[GatewayWindow]
    ) -> Iterator[Tuple[dict, Optional[str]]]:
        """Each window's wire payload and (durable sessions) resume token."""
        for window in batch:
            body = window.payload()
            token = None
            if session is not None:
                token = body["resume"] = f"{session.id}:{window.end}"
            yield body, token

    def _final_frame(self, subscriber: Subscriber) -> dict:
        """The distinct stream-end frame: clean ``end`` or terminal error."""
        error = subscriber.error
        if error is not None:
            return {
                "type": "error",
                "error": type(error).__name__,
                "message": str(error),
                "crashes": self.hub.crashes,
                "restarts": self.hub.restarts,
            }
        body = {"type": "end"}
        if subscriber.crashes:
            body["crashes"] = subscriber.crashes
        return body

    async def _serve_sse(self, request, writer: asyncio.StreamWriter) -> None:
        subscriber, session = self._attach(request)
        ready = asyncio.Event()
        loop = asyncio.get_running_loop()
        subscriber.set_notifier(lambda: loop.call_soon_threadsafe(ready.set))
        writer.write(sse_preamble())
        try:
            async for batch in self._windows(subscriber, ready):
                if batch is None:
                    writer.write(sse_heartbeat())
                    await writer.drain()
                    continue
                with metrics.trace_span("deliver"):
                    writer.writelines(
                        [
                            sse_event(body, event="window", event_id=token)
                            for body, token in self._bodies(session, batch)
                        ]
                    )
                    await writer.drain()
            final = self._final_frame(subscriber)
            writer.write(sse_event(final, event=final["type"]))
            await writer.drain()
        finally:
            self._release(subscriber, session)

    async def _serve_ws(self, request, reader, writer: asyncio.StreamWriter) -> None:
        if request.header("upgrade").lower() != "websocket":
            writer.write(http_response("400 Bad Request", b'{"error":"upgrade required"}'))
            return
        subscriber, session = self._attach(request)
        writer.write(websocket_handshake_response(request))
        await writer.drain()
        ready = asyncio.Event()
        loop = asyncio.get_running_loop()
        subscriber.set_notifier(lambda: loop.call_soon_threadsafe(ready.set))
        closed = asyncio.Event()
        receiver = asyncio.ensure_future(
            self._ws_receiver(subscriber, reader, writer, closed)
        )
        try:
            async for batch in self._windows(subscriber, ready, closed):
                if batch is None:
                    writer.write(encode_ws_frame(b"heartbeat", OP_PING))
                    await writer.drain()
                    continue
                with metrics.trace_span("deliver"):
                    writer.writelines(
                        [
                            encode_ws_frame(protocol.dumps(body).encode("utf-8"), OP_TEXT)
                            for body, _token in self._bodies(session, batch)
                        ]
                    )
                    await writer.drain()
            if not closed.is_set():
                final = self._final_frame(subscriber)
                writer.write(
                    encode_ws_frame(protocol.dumps(final).encode("utf-8"), OP_TEXT)
                )
                writer.write(encode_ws_frame(b"", OP_CLOSE))
                await writer.drain()
        finally:
            self._release(subscriber, session)
            receiver.cancel()

    async def _ws_receiver(self, subscriber, reader, writer, closed) -> None:
        """Apply client control frames: subscription multiplexing."""
        parser = WSFrameParser()
        while not closed.is_set():
            data = await reader.read(4096)
            if not data:
                closed.set()
                return
            for opcode, payload in parser.feed(data):
                if opcode == OP_CLOSE:
                    closed.set()
                    return
                if opcode == OP_PING:
                    writer.write(encode_ws_frame(payload, OP_PONG))
                    continue
                if opcode != OP_TEXT:
                    continue
                response = self._apply_control(subscriber, payload)
                # No drain() here: the sender coroutine may be draining
                # concurrently and StreamWriter.drain is single-waiter.
                # Acks are tiny; the kernel buffer absorbs them.
                writer.write(
                    encode_ws_frame(protocol.dumps(response).encode("utf-8"), OP_TEXT)
                )

    @staticmethod
    def _apply_control(subscriber: Subscriber, payload: bytes) -> dict:
        try:
            message = json.loads(payload.decode("utf-8"))
            action = message["action"]
            if action == "add_filter":
                subscriber.add_filter(message["name"], message["value"])
            elif action == "remove_filter":
                subscriber.remove_filter(message["name"], message["value"])
            elif action == "set_interval":
                end = message.get("end")
                subscriber.set_interval(int(message["start"]), end)
            elif action == "ack":
                released = subscriber.ack(int(message["window_end"]))
                return {
                    "type": "ack",
                    "action": action,
                    "window_end": int(message["window_end"]),
                    "released": released,
                }
            else:
                raise ValueError(f"unknown action {action!r}")
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            return {"type": "error", "error": str(exc)}
        return {
            "type": "ack",
            "action": action,
            "name": message.get("name"),
            "value": message.get("value"),
        }

    async def _windows(self, subscriber, ready, closed: Optional[asyncio.Event] = None):
        """Yield closed windows in batches; return when the feed (or
        client) finishes.  ``ready`` is set when the subscriber's queue
        becomes non-empty or the feed finishes — not once per window — so
        every wake-up pops until ``None``.  Clear-before-check ordering
        makes the notifier race-free: a push that finds the queue empty
        after the pop loop re-sets the event.  With a
        ``heartbeat_interval``, a wait that times out yields ``None`` — the
        caller sends its transport's keepalive frame.

        A batch is what was ready, up to ``SEND_BATCH_WINDOWS``, and the
        caller sends it as one socket write.  Every ``send()`` (and every
        pass through the loop's ``select()``) lets go of the GIL, and a
        decoding bridge then keeps it for a whole switch interval; a sender
        that wrote window by window moved at the pace of those hand-overs
        rather than of its own work, so how far it fell behind the bridge
        was up to the scheduler.  A keeping-up sender's batches are one
        window long."""
        while closed is None or not closed.is_set():
            ready.clear()
            ready_windows = iter(subscriber.pop_window, None)
            while batch := list(islice(ready_windows, SEND_BATCH_WINDOWS)):
                yield batch
                # A socket that keeps up never suspends in drain(); without
                # this, one connection with a backlog would hold the loop
                # until its queue ran dry while the others' wake-ups waited.
                await asyncio.sleep(0)
                if closed is not None and closed.is_set():
                    return
            if subscriber.finished and subscriber.ready_count == 0:
                return
            if closed is None:
                if self.heartbeat_interval is None:
                    await ready.wait()
                else:
                    try:
                        await asyncio.wait_for(ready.wait(), self.heartbeat_interval)
                    except asyncio.TimeoutError:
                        yield None
            else:
                closed_wait = asyncio.ensure_future(closed.wait())
                ready_wait = asyncio.ensure_future(ready.wait())
                try:
                    done, _pending = await asyncio.wait(
                        [closed_wait, ready_wait],
                        return_when=asyncio.FIRST_COMPLETED,
                        timeout=self.heartbeat_interval,
                    )
                    if not done:
                        yield None
                finally:
                    closed_wait.cancel()
                    ready_wait.cancel()
