"""The OpenBMP-style Kafka delivery of a BMP feed.

OpenBMP collectors publish raw BMP messages onto a Kafka topic, one frame
(or a small back-to-back batch of frames) per Kafka message, *keyed by the
monitored router* so all messages of one router land in one partition and
stay ordered.  This module reproduces that arrangement on top of
:mod:`repro.kafka`:

* :class:`BMPFeedProducer` — frames and publishes BMP messages;
* :class:`BMPKafkaDataSource` — the consuming side the live data interface
  polls: it decodes every frame back into a :class:`BMPMessage` (corrupt
  frames signalled, never raised) and hands back ``(router, message)``
  pairs in log order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import time

from repro.core import metrics
from repro.bmp.codec import scan_buffer
from repro.bmp.messages import BMPMessage
from repro.kafka.broker import Message, MessageBroker, round_robin_take
from repro.kafka.client import Consumer, Producer
from repro.utils.timeutil import Clock

#: The topic OpenBMP publishes raw BMP frames on.
DEFAULT_BMP_TOPIC = "openbmp.bmp_raw"

#: Consumer-group name the live stream engine uses by default.
DEFAULT_CONSUMER_GROUP = "bgpstream-live"

#: Telemetry (see docs/OBSERVABILITY.md).  Gauges are *sampled* at the end
#: of each instrumented poll — scrapes between polls see the last sample.
_poll_latency = metrics.histogram(
    "repro_kafka_poll_latency_seconds",
    "Wall-clock latency of one BMP-feed Kafka poll (decode included).",
)
_frames = metrics.counter(
    "repro_kafka_frames_total",
    "BMP frames scanned off the Kafka feed, by decode outcome.",
    labelnames=("status",),
)
_partition_lag = metrics.gauge(
    "repro_kafka_partition_lag",
    "Messages published but not yet committed by this consumer group, "
    "per partition (sampled at the end of each poll).",
    labelnames=("topic", "partition"),
)
_deferred_depth = metrics.gauge(
    "repro_kafka_deferred_heads",
    "Partition heads currently held back past the window boundary "
    "(sampled at the end of each poll).",
)


class BMPFeedProducer:
    """Publish BMP messages of one (or many) routers onto a broker topic."""

    def __init__(
        self,
        broker: MessageBroker,
        topic: str = DEFAULT_BMP_TOPIC,
        router: Optional[str] = None,
        num_partitions: Optional[int] = None,
    ) -> None:
        broker.create_topic(topic, num_partitions=num_partitions)
        self.topic = topic
        self.router = router
        self._producer = Producer(broker, default_topic=topic)

    def publish(
        self,
        message: Union[BMPMessage, bytes],
        router: Optional[str] = None,
        timestamp: float = 0.0,
    ) -> Message:
        """Publish one BMP message (or pre-framed wire bytes).

        The Kafka message value is the raw frame; the key is the router
        name, which is what keeps a router's messages ordered.
        """
        key = router or self.router
        if key is None:
            raise ValueError("no router given and no default router configured")
        frame = message.encode() if isinstance(message, BMPMessage) else bytes(message)
        if not timestamp and isinstance(message, BMPMessage):
            peer = message.peer
            if peer is not None:
                timestamp = peer.timestamp
        return self._producer.send(frame, key=key, timestamp=timestamp)


class BMPKafkaDataSource:
    """The consuming side of the BMP-over-Kafka feed.

    Each poll drains up to ``max_messages`` Kafka messages past the group's
    committed offsets (round-robin across topics), decodes the frames each
    value carries and returns ``(router, BMPMessage)`` pairs.  A value may
    hold several back-to-back frames (collectors batch small messages); a
    frame that does not decode is returned as a corrupt message so the
    stream layer can signal it, exactly like a corrupted dump-file read.

    Frames are scanned zero-copy out of each Kafka value and Route
    Monitoring attribute blocks decode lazily (the value buffer is
    immutable, so deferred views are safe).
    """

    def __init__(
        self,
        broker: MessageBroker,
        topics: Optional[Sequence[str]] = None,
        group: str = DEFAULT_CONSUMER_GROUP,
    ) -> None:
        self.topics = list(topics) if topics else [DEFAULT_BMP_TOPIC]
        for topic in self.topics:
            broker.create_topic(topic)
        self._consumer = Consumer(broker, group=group, topics=self.topics)
        self.frames_decoded = 0
        self.corrupt_frames = 0
        #: Set by the last ``poll(until_ts=...)`` when the feed held back
        #: messages that lie entirely past the window boundary.
        self.window_exceeded = False
        #: Set when, additionally, *every* partition with backlog is held
        #: back — the window cannot produce more records.
        self.window_drained = False
        #: (topic, partition, offset) -> min peer timestamp of a head
        #: message known to lie past a window boundary, so later polls of
        #: the window skip it without re-fetching or re-decoding it.
        self._deferred_heads: Dict[Tuple[str, int, int], int] = {}
        #: Heads of messages that *straddle* the current window boundary
        #: (frames on both sides): delivered whole but left uncommitted, so
        #: the next window re-reads them and keeps the overhang frames.
        #: Later polls of the same window skip them without re-delivering.
        self._straddled_heads: set = set()
        self._window_until_ts: Optional[float] = None

    def poll(
        self, max_messages: Optional[int] = None, until_ts: Optional[float] = None
    ) -> List[Tuple[str, BMPMessage]]:
        """Decode the next batch of frames; empty list = nothing new.

        With ``until_ts`` the poll is *window-aware*: a partition whose
        head message carries only frames past the boundary is held back —
        not consumed, not committed, left in the log for the next window's
        consumer — and skipped by later polls (its boundary timestamp is
        remembered per head offset), so held-back partitions never eat the
        fetch budget of partitions still holding in-window messages.
        ``window_exceeded`` reports that something was held back;
        ``window_drained`` that nothing consumable remains and the caller
        can close the window.  A message that *straddles* the boundary
        (frames on both sides — Kafka offsets cannot split a message) is
        delivered whole but left **uncommitted** and its partition closes
        for the rest of the window: the next window's consumer re-reads it
        from the log, so the overhang frames are never stranded between
        consecutive bounded windows (the record-level interval check drops
        the re-delivered in-window frames).
        """
        if not metrics.enabled:
            return self._poll_impl(max_messages, until_ts)
        started = time.perf_counter()
        try:
            return self._poll_impl(max_messages, until_ts)
        finally:
            _poll_latency.observe(time.perf_counter() - started)
            self._sample_gauges()

    def _sample_gauges(self) -> None:
        """Refresh the lag / deferred-head gauges from the live broker."""
        broker = self._consumer.broker
        group = self._consumer.group
        for topic_name in self.topics:
            topic = broker.topic(topic_name)
            for partition in range(topic.num_partitions):
                lag = topic.end_offset(partition) - broker.committed_offset(
                    group, topic_name, partition
                )
                _partition_lag.set(lag, topic=topic_name, partition=str(partition))
        _deferred_depth.set(len(self._deferred_heads))

    def _poll_impl(
        self, max_messages: Optional[int], until_ts: Optional[float]
    ) -> List[Tuple[str, BMPMessage]]:
        self.window_exceeded = False
        self.window_drained = False
        pairs: List[Tuple[str, BMPMessage]] = []
        if until_ts is None:
            for kafka_message in self._consumer.poll(max_messages=max_messages):
                self._decode_into(pairs, kafka_message)
            return pairs
        if until_ts != self._window_until_ts:
            # A new window boundary: straddlers of the previous window are
            # ordinary consumable messages again (their delivered frames
            # fall before the new window's interval start).
            self._straddled_heads.clear()
            self._window_until_ts = until_ts
        # This branch reads the partition logs itself, not through
        # Consumer.poll, so it marks the fetch start for wait() itself.
        self._consumer.begin_fetch()
        broker = self._consumer.broker
        group = self._consumer.group
        deferred: Dict[Tuple[str, int, int], int] = {}
        straddled = 0
        queues: List[List[Message]] = []
        for topic_name in self.topics:
            topic = broker.topic(topic_name)
            for partition in range(topic.num_partitions):
                offset = broker.committed_offset(group, topic_name, partition)
                head = (topic_name, partition, offset)
                if head in self._straddled_heads:
                    # Already delivered this window; the partition stays
                    # closed (and eats no fetch budget) until the boundary
                    # moves.
                    straddled += 1
                    continue
                stamp = self._deferred_heads.get(head)
                if stamp is not None and stamp > until_ts:
                    deferred[head] = stamp
                    continue
                queue = topic.read(partition, offset, max_messages)
                if queue:
                    queues.append(queue)
        if max_messages is None:
            merged = [message for queue in queues for message in queue]
        else:
            merged = round_robin_take(queues, max_messages)
        consumed: List[Message] = []
        closed: set = set()
        for kafka_message in merged:
            partition_key = (kafka_message.topic, kafka_message.partition)
            if partition_key in closed:
                continue
            decoded = list(scan_buffer(kafka_message.value))
            # Compare whole seconds, the resolution records carry: a frame
            # at until_ts + microseconds belongs to *this* window (its
            # record.time equals until_ts), so deferring it would strand it
            # before the next window's interval start.
            stamps = [m.peer.timestamp_sec for m in decoded if m.peer is not None]
            if stamps and min(stamps) > until_ts:
                closed.add(partition_key)
                deferred[
                    (kafka_message.topic, kafka_message.partition, kafka_message.offset)
                ] = min(stamps)
                continue
            if stamps and max(stamps) > until_ts:
                # Straddler: deliver every frame (the interface discards the
                # overhang records), commit nothing, close the partition.
                closed.add(partition_key)
                self._straddled_heads.add(
                    (kafka_message.topic, kafka_message.partition, kafka_message.offset)
                )
                straddled += 1
                router = kafka_message.key or ""
                for message in decoded:
                    self._count_frame(message)
                    pairs.append((router, message))
                continue
            consumed.append(kafka_message)
            router = kafka_message.key or ""
            for message in decoded:
                self._count_frame(message)
                pairs.append((router, message))
        if consumed:
            self._consumer.commit(consumed)
            self._consumer.messages_consumed += len(consumed)
        self._deferred_heads = deferred
        self.window_exceeded = bool(deferred) or straddled > 0
        # Drained only if nothing was consumable AND the merge covered every
        # fetched queue's head — with a tiny budget, a head the merge never
        # reached may still open a partition of in-window messages.
        self.window_drained = (
            self.window_exceeded
            and not consumed
            and (max_messages is None or len(merged) >= len(queues))
        )
        return pairs

    def _decode_into(
        self, pairs: List[Tuple[str, BMPMessage]], kafka_message: Message
    ) -> None:
        router = kafka_message.key or ""
        for message in scan_buffer(kafka_message.value):
            self._count_frame(message)
            pairs.append((router, message))

    def _count_frame(self, message: BMPMessage) -> None:
        if message.is_valid:
            self.frames_decoded += 1
            if metrics.enabled:
                _frames.inc(status="ok")
        else:
            self.corrupt_frames += 1
            if metrics.enabled:
                _frames.inc(status="corrupt")

    def wait(self, timeout: float, clock: Optional[Clock] = None) -> bool:
        """Block until the feed publishes again (True) or ``timeout`` passes.

        What the live interface does between two empty polls; see
        :meth:`repro.kafka.client.Consumer.wait`.
        """
        return self._consumer.wait(timeout, clock)

    def lag(self) -> int:
        """Kafka messages published but not yet consumed by this source."""
        return self._consumer.lag()

    def seek_to_beginning(self) -> None:
        """Replay the feed from the first retained frame."""
        self._deferred_heads.clear()
        self._straddled_heads.clear()
        self._window_until_ts = None
        self._consumer.seek_to_beginning()
