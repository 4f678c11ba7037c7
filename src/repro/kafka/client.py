"""Producer / Consumer client API over the message broker."""

from __future__ import annotations

from typing import Any, List, Optional

from repro.kafka.broker import Message, MessageBroker, round_robin_take
from repro.utils.timeutil import Clock


class Producer:
    """Publishes messages to topics of a broker."""

    def __init__(self, broker: MessageBroker, default_topic: Optional[str] = None) -> None:
        self.broker = broker
        self.default_topic = default_topic
        self.messages_sent = 0

    def send(
        self,
        value: Any,
        topic: Optional[str] = None,
        key: Optional[str] = None,
        timestamp: float = 0.0,
    ) -> Message:
        target = topic or self.default_topic
        if target is None:
            raise ValueError("no topic given and no default topic configured")
        message = self.broker.produce(target, value, key=key, timestamp=timestamp)
        self.messages_sent += 1
        return message


class Consumer:
    """Reads messages from topics on behalf of a consumer group.

    ``poll()`` returns any messages past the group's committed offsets and
    (by default) commits them, so repeated polls walk forward through the
    log; ``wait()`` blocks an idle consumer until the broker publishes
    again (Kafka's long-poll fetch); ``seek_to_beginning()`` resets the
    group to replay a topic, which is how a consumer re-synchronises from
    the latest full routing-table snapshot before applying diffs (§6.2.2).
    """

    def __init__(self, broker: MessageBroker, group: str, topics: List[str]) -> None:
        self.broker = broker
        self.group = group
        self.topics = list(topics)
        self.messages_consumed = 0
        #: ``broker.publish_seq`` as sampled when the last fetch began.
        self._fetch_seq = 0

    def begin_fetch(self) -> None:
        """Mark the start of a fetch: ``wait()`` wakes for anything newer.

        ``poll()`` does this itself; a caller that reads the partition logs
        directly (the window-aware BMP source) calls it before reading.
        """
        self._fetch_seq = self.broker.publish_seq

    def poll(
        self,
        max_messages: Optional[int] = None,
        commit: bool = True,
        timeout: Optional[float] = None,
    ) -> List[Message]:
        """Fetch (and by default commit) the next messages.

        With ``timeout`` an empty fetch blocks in :meth:`wait` and fetches
        once more if a publish ended the wait (``fetch.max.wait.ms``).
        """
        result = self._fetch(max_messages)
        if not result and timeout and self.wait(timeout):
            result = self._fetch(max_messages)
        if commit and result:
            self.broker.commit(self.group, result)
        self.messages_consumed += len(result)
        return result

    def _fetch(self, max_messages: Optional[int]) -> List[Message]:
        self.begin_fetch()
        if max_messages is None:
            return [
                message
                for topic in self.topics
                for message in self.broker.consume(topic, self.group)
            ]
        # With a bounded budget, draining topics in list order would let
        # a busy first topic starve the rest; fetch each topic's backlog
        # (capped at the budget) once, then take messages round-robin —
        # one per topic per round — until the budget is spent.  Only the
        # returned messages are committed, so the leftover fetches are
        # re-read by the next poll.
        fetched = [
            list(self.broker.consume(topic, self.group, max_messages))
            for topic in self.topics
        ]
        return round_robin_take(fetched, max_messages)

    def wait(self, timeout: float, clock: Optional[Clock] = None) -> bool:
        """Block until something was published since the last fetch began.

        True = woken by a publish, False = ``timeout`` passed in silence.
        See :meth:`MessageBroker.wait_for_publish` for why the condition is
        a publish sequence number and never ``lag() > 0``.
        """
        return self.broker.wait_for_publish(self._fetch_seq, timeout, clock)

    def commit(self, messages: List[Message]) -> None:
        self.broker.commit(self.group, messages)

    def lag(self) -> int:
        return sum(self.broker.lag(self.group, topic) for topic in self.topics)

    def seek_to_beginning(self) -> None:
        """Reset the group's offsets so the next poll replays every topic."""
        for topic in self.topics:
            self.broker.reset_offsets(self.group, topic)
