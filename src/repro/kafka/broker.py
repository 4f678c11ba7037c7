"""The log-structured message broker.

Topics are append-only logs split into partitions; each message gets a
monotonically increasing offset within its partition.  Messages are kept in
memory (the original architecture relies on a Kafka cluster for durability
and horizontal scale; neither matters for a single-process reproduction, and
the client-visible semantics — keyed partitioning, offset reads, replay —
are identical).
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.utils.timeutil import Clock, SystemClock

_SYSTEM_CLOCK = SystemClock()


@dataclass(frozen=True)
class Message:
    """One message of a partition log."""

    topic: str
    partition: int
    offset: int
    key: Optional[str]
    value: Any
    timestamp: float = 0.0


def round_robin_take(queues: List[List[Message]], budget: int) -> List[Message]:
    """Merge queues one message per queue per round, up to ``budget``.

    Each queue contributes a contiguous prefix, so committing the result
    advances every partition's offset without gaps.
    """
    result: List[Message] = []
    cursor = 0
    while len(result) < budget:
        progressed = False
        for queue in queues:
            if cursor < len(queue):
                result.append(queue[cursor])
                progressed = True
                if len(result) >= budget:
                    break
        if not progressed:
            break
        cursor += 1
    return result


class Topic:
    """A named topic: a fixed number of append-only partition logs."""

    def __init__(self, name: str, num_partitions: int = 1) -> None:
        if num_partitions < 1:
            raise ValueError("a topic needs at least one partition")
        self.name = name
        self.num_partitions = num_partitions
        self._partitions: List[List[Message]] = [[] for _ in range(num_partitions)]
        self._lock = threading.Lock()

    def partition_for(self, key: Optional[str]) -> int:
        if key is None:
            # Round-robin-ish: append to the shortest partition.
            sizes = [len(p) for p in self._partitions]
            return sizes.index(min(sizes))
        # crc32, not hash(): str hashes are randomised per interpreter, and
        # a router must land on the same partition in every process.
        return zlib.crc32(key.encode()) % self.num_partitions

    def append(self, key: Optional[str], value: Any, timestamp: float = 0.0) -> Message:
        with self._lock:
            partition = self.partition_for(key)
            log = self._partitions[partition]
            message = Message(
                topic=self.name,
                partition=partition,
                offset=len(log),
                key=key,
                value=value,
                timestamp=timestamp,
            )
            log.append(message)
            return message

    def read(
        self, partition: int, offset: int, max_messages: Optional[int] = None
    ) -> List[Message]:
        with self._lock:
            log = self._partitions[partition]
            end = len(log) if max_messages is None else min(len(log), offset + max_messages)
            return list(log[offset:end])

    def end_offset(self, partition: int) -> int:
        with self._lock:
            return len(self._partitions[partition])

    def size(self) -> int:
        with self._lock:
            return sum(len(p) for p in self._partitions)


class MessageBroker:
    """A collection of topics plus consumer-group offset bookkeeping.

    Locking: ``_lock`` guards the topic table and the committed offsets,
    each :class:`Topic` guards its own logs, and ``_published`` (a condition
    with its own lock) guards the publish sequence number idle consumers
    block on.  None of the three is ever held while taking another —
    ``produce`` appends first and signals after the topic lock is released
    — and a waiter's predicate is only evaluated under ``_published``.
    """

    def __init__(self) -> None:
        self._topics: Dict[str, Topic] = {}
        #: (group, topic, partition) -> committed offset.
        self._committed: Dict[Tuple[str, str, int], int] = {}
        self._lock = threading.Lock()
        self._published = threading.Condition()
        #: Messages produced so far, on any topic (see wait_for_publish).
        self.publish_seq = 0

    # -- topic management -------------------------------------------------------

    def create_topic(self, name: str, num_partitions: Optional[int] = None) -> Topic:
        """Create a topic, or return the existing one.

        ``num_partitions=None`` means "whatever exists" (1 when creating);
        an explicit count that contradicts an existing topic raises rather
        than silently dropping the partitioning the caller asked for.
        """
        with self._lock:
            existing = self._topics.get(name)
            if existing is not None:
                if num_partitions is not None and existing.num_partitions != num_partitions:
                    raise ValueError(
                        f"topic {name!r} already exists with "
                        f"{existing.num_partitions} partitions, not {num_partitions}"
                    )
                return existing
            topic = Topic(name, num_partitions or 1)
            self._topics[name] = topic
            return topic

    def topic(self, name: str) -> Topic:
        with self._lock:
            if name not in self._topics:
                self._topics[name] = Topic(name)
            return self._topics[name]

    def topics(self) -> List[str]:
        with self._lock:
            return sorted(self._topics)

    # -- produce / consume ----------------------------------------------------------

    def produce(
        self, topic: str, value: Any, key: Optional[str] = None, timestamp: float = 0.0
    ) -> Message:
        message = self.topic(topic).append(key, value, timestamp)
        with self._published:
            self.publish_seq += 1
            self._published.notify_all()
        return message

    def wait_for_publish(
        self, seen_seq: int, timeout: float, clock: Optional[Clock] = None
    ) -> bool:
        """Block until ``publish_seq`` has moved past ``seen_seq``.

        True = something was published, False = ``timeout`` passed first.
        The wake condition is the sequence number the caller sampled
        *before* its last fetch, not its lag: a message published while
        that fetch ran cannot be missed, and messages a consumer leaves
        uncommitted on purpose cannot turn the wait into a spin.  Idle
        time passes on ``clock`` (simulated clocks do not block).
        """
        return (clock or _SYSTEM_CLOCK).wait_for(
            self._published, lambda: self.publish_seq != seen_seq, timeout
        )

    def consume(
        self,
        topic: str,
        group: str,
        max_messages: Optional[int] = None,
    ) -> List[Message]:
        """Read new messages for a consumer group (across all partitions).

        With a bounded budget the partitions are interleaved round-robin —
        draining them in index order would let a busy partition 0 starve
        the rest (the router-keyed BMP feed spreads routers across
        partitions precisely to avoid that) — where the unbounded read
        concatenates them.  Either way each partition contributes a
        contiguous run in offset order: per-partition (per-key, so
        per-router) order is the only order Kafka promises, and it holds.
        """
        topic_obj = self.topic(topic)
        if max_messages is None:
            return [
                message
                for partition in range(topic_obj.num_partitions)
                for message in topic_obj.read(
                    partition, self.committed_offset(group, topic, partition)
                )
            ]
        fetched = [
            topic_obj.read(
                partition, self.committed_offset(group, topic, partition), max_messages
            )
            for partition in range(topic_obj.num_partitions)
        ]
        return round_robin_take(fetched, max_messages)

    def commit(self, group: str, messages: List[Message]) -> None:
        """Mark ``messages`` as processed for the group."""
        with self._lock:
            for message in messages:
                key = (group, message.topic, message.partition)
                current = self._committed.get(key, 0)
                self._committed[key] = max(current, message.offset + 1)

    def reset_offsets(self, group: str, topic: str) -> None:
        """Forget the group's progress on ``topic``: its next read replays it."""
        with self._lock:
            for key in [k for k in self._committed if k[:2] == (group, topic)]:
                del self._committed[key]

    def committed_offset(self, group: str, topic: str, partition: int) -> int:
        with self._lock:
            return self._committed.get((group, topic, partition), 0)

    def lag(self, group: str, topic: str) -> int:
        """Messages not yet consumed by ``group`` across all partitions."""
        topic_obj = self.topic(topic)
        total = 0
        for partition in range(topic_obj.num_partitions):
            total += topic_obj.end_offset(partition) - self.committed_offset(
                group, topic, partition
            )
        return total
