"""The BGPStream API (§3.3.1).

A program using the stream consists of a configuration phase (meta-data
filters plus a time interval) and a reading phase (iteratively requesting
records).  Setting the interval end to ``None`` (or ``-1``) turns the same
code into a live monitoring process.

Two idioms read the same record cursor, and may be mixed on one stream:

* the C-API style of the paper's listings::

      stream = BGPStream(data_interface=interface)
      stream.add_filter("record-type", "ribs")
      stream.add_interval_filter(t0, t1)
      stream.start()
      while (rec := stream.get_next_record()) is not None:
          elem = rec.get_next_elem()
          while elem:
              ...
              elem = rec.get_next_elem()

* plain Python iteration::

      for rec in stream.records():
          for elem in rec.filtered_elems():
              ...

  (or ``stream.elems()`` to iterate ``(record, elem)`` pairs directly).

As in §3.3.1, the elem-level filters (elem type, prefix, peer ASN, origin
ASN, AS path, community) apply as elems are pulled from a record: through
``rec.get_next_elem()``, ``rec.filtered_elems()`` and ``stream.elems()``.
``rec.elems()`` is the record's unfiltered decomposition.

Both idioms also run in **live mode**: with a live data interface
(``BGPStream(data_interface=LiveDataInterface(broker=message_broker))``,
or ``data_interface="kafka"`` with ``interface_options={"broker":
message_broker}``) the records come off a BMP-over-Kafka feed
(:mod:`repro.bmp`) instead of dump files, flow through the same filter
pipeline, and an ``add_interval_filter(t0, until_ts)`` bounds the
live window so bin-oriented consumers terminate deterministically.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.core import metrics
from repro.core.elem import BGPElem
from repro.core.filters import FilterSet
from repro.core.intern import InternPool, default_pool
from repro.core.interfaces import DataInterface, make_data_interface
from repro.core.record import BGPStreamRecord, RecordStatus
from repro.core.sorter import SortedRecordMerger


class BGPStream:
    """A configurable, sorted stream of BGP measurement data.

    Attribute blocks are always recorded as zero-copy slices and decoded on
    first read (:mod:`repro.bgp.attributes`), so filtered-out elems never
    pay for values nobody looks at.

    Equal AS paths, community sets, prefixes and address strings are shared
    objects across every elem the process produces; the decode layer sees
    to that (:mod:`repro.core.intern`) and the stream has no say in it.
    """

    def __init__(
        self,
        data_interface: Union[DataInterface, str, None] = None,
        filters: Optional[FilterSet] = None,
        # Accepted and ignored: interning is not a mode any more, and the
        # argument survives only because the frozen ledger passes it
        # (``ledger/live.py:90``).
        interning: object = True,
        interface_options: Optional[Dict] = None,
        # Accepted and ignored like ``interning=``: decode is lazy, and
        # ``ledger/live.py:90`` still passes ``eager=None``.
        eager: object = None,
        segment_cache=None,
    ) -> None:
        """``data_interface`` accepts an instance or a registry name
        (``"broker"``, ``"csvfile"``, ``"sqlite"``, ``"singlefile"``,
        ``"kafka"``); a name is resolved through
        :func:`repro.core.interfaces.make_data_interface` with
        ``interface_options``.  A live interface
        (:class:`~repro.core.interfaces.LiveDataInterface`, or ``"kafka"``
        with its options: broker, topics, poll bounds, ...) makes the
        stream read the near-realtime BMP feed instead of dump files.

        ``segment_cache`` (a :class:`repro.broker.segments.SegmentCache`)
        makes every dump-file reader this stream opens replay decoded
        segments of unchanged dump files from disk instead of re-decoding
        MRT, and persist newly decoded files for the next run."""
        self.filters = filters or FilterSet()
        if data_interface is not None:
            data_interface = make_data_interface(
                data_interface, **(interface_options or {})
            )
        elif interface_options:
            raise ValueError("interface_options require a data_interface name")
        self._interface = data_interface
        self._segment_cache = segment_cache
        self._started = False
        self._record_iter: Optional[Iterator[BGPStreamRecord]] = None
        #: What ``start()`` decides elems are matched with: ``self.filters``,
        #: or ``None`` when it has no elem-level terms.
        self._elem_filter: Optional[FilterSet] = None
        #: Counters useful for benchmarks and sanity checks.
        self.records_read = 0
        self.records_filtered = 0

    # -- configuration ------------------------------------------------------------

    def set_data_interface(
        self, interface: Union[DataInterface, str], **options
    ) -> "BGPStream":
        """Set the data interface: an instance, or a registry name plus its
        options (``set_data_interface("sqlite", path="broker.db")``)."""
        if self._started:
            raise RuntimeError("cannot change the data interface after start()")
        self._interface = make_data_interface(interface, **options)
        return self

    @property
    def is_live(self) -> bool:
        """True when the stream reads a live feed rather than dump files."""
        return getattr(self._interface, "yields_records", False)

    @property
    def intern_pool(self) -> InternPool:
        """The process-wide intern pool (a read-only view, for its stats)."""
        return default_pool()

    def add_filter(self, name: str, value: str) -> "BGPStream":
        """Add one named filter (see :mod:`repro.core.filters`).

        Prefix filters accept the four match modes of the BGPStream filter
        language — ``prefix-exact``, ``prefix-more``, ``prefix-less`` and
        ``prefix-any`` — plus ``prefix`` as the historical alias for
        ``prefix-more``; all are answered by one shared patricia trie.
        """
        if self._started:
            raise RuntimeError("cannot add filters after start()")
        self.filters.add(name, value)
        return self

    def add_interval_filter(self, start: int, end: Optional[int]) -> "BGPStream":
        if self._started:
            raise RuntimeError("cannot add filters after start()")
        self.filters.add_interval(start, end)
        return self

    # -- reading ---------------------------------------------------------------------

    def start(self) -> "BGPStream":
        """Freeze the configuration and begin producing the stream.

        The elem filter every delivered record carries is decided here,
        once: the stream's filters, or none when they have no elem-level
        terms (then ``get_next_elem()`` never calls ``match_elem``).
        """
        if self._interface is None:
            raise RuntimeError(
                "no data interface configured; pass one to BGPStream() or "
                "call set_data_interface()"
            )
        if self._started:
            return self
        self._started = True
        if self.filters.has_elem_terms:
            self._elem_filter = self.filters
        return self

    def stop(self) -> None:
        """Ask a live stream to end (callable from any thread).

        :meth:`records` finishes once the live interface notices — within
        one ``poll_interval`` on an idle feed.  Dump-file streams end by
        themselves and ignore this.
        """
        stop = getattr(self._interface, "stop", None)
        if stop is not None:
            stop()

    def _windows(self) -> Iterator[Iterator[BGPStreamRecord]]:
        """One filtered, time-sorted record iterator per live poll or per
        meta-data window of dump files.

        :meth:`records` chains these into the stream's one record cursor.
        """
        interface = self._interface
        assert interface is not None
        if self.is_live:
            # The live interface already yields ready-made records.
            for record_batch in interface.record_batches(self.filters):
                yield self._filtered(record_batch)
            return
        for file_batch in interface.batches(self.filters):
            yield self._filtered(
                SortedRecordMerger(file_batch, segment_cache=self._segment_cache)
            )

    def _filtered(self, records: Iterable[BGPStreamRecord]) -> Iterator[BGPStreamRecord]:
        # Every delivered record passes here, so this is where it learns
        # which elems its consumer may see.
        elem_filter = self._elem_filter
        for record in records:
            self.records_read += 1
            if not self._record_passes(record):
                self.records_filtered += 1
                continue
            record._elem_filter = elem_filter
            yield record

    def _record_passes(self, record: BGPStreamRecord) -> bool:
        # Invalid records are always delivered (the user must be able to see
        # the not-valid status); valid ones go through the meta-data filters.
        if record.status != RecordStatus.VALID:
            return True
        return self.filters.match_record(record)

    def get_next_record(self) -> Optional[BGPStreamRecord]:
        """Return the next record, or ``None`` when the stream has ended."""
        return next(self.records(), None)

    def records(self) -> Iterator[BGPStreamRecord]:
        """The stream's record cursor: the iterator :meth:`get_next_record`
        advances, so the two may be mixed and each record comes once.

        Starts the stream if needed (and so raises here, not on the first
        ``next()``, when no data interface is configured).
        """
        if self._record_iter is None:
            self.start()
            # chain() flattens the windows in C: no generator frame of this
            # module sits between a window's filter loop and the consumer.
            self._record_iter = chain.from_iterable(self._windows())
        return self._record_iter

    def elems(self) -> Iterator[Tuple[BGPStreamRecord, BGPElem]]:
        """Iterate ``(record, elem)`` pairs matching the elem-level filters."""
        for record in self.records():
            if metrics.enabled:
                # One ``filter`` span per record: extraction + match_elem
                # over the record's elems (the consumer's time is outside).
                with metrics.trace_span("filter"):
                    matched = list(record.filtered_elems())
                for elem in matched:
                    yield record, elem
            else:
                for elem in record.filtered_elems():
                    yield record, elem

    def __iter__(self) -> Iterator[BGPStreamRecord]:
        return self.records()
