"""PyBGPStream-compatible facade (§4.2).

The paper's Listing 1 uses the ``_pybgpstream`` binding idiom::

    from _pybgpstream import BGPStream, BGPRecord, BGPElem
    stream = BGPStream()
    rec = BGPRecord()
    stream.add_filter('record-type', 'ribs')
    stream.add_interval_filter(t0, t1)
    stream.start()
    while stream.get_next_record(rec):
        elem = rec.get_next_elem()
        while elem:
            ...
            elem = rec.get_next_elem()

This module reproduces that exact surface on top of :mod:`repro.core` so the
paper's scripts port with minimal changes.  The real bindings default to the
public Broker instance at UC San Diego; since there is no network here, the
default data source is configured per-process with
:func:`set_default_data_interface` (or passed to ``BGPStream`` directly).
The same loop reads the near-realtime BMP feed when the stream is given a
live interface: ``BGPStream(data_interface=LiveDataInterface(...))``.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.core.elem import BGPElem as _CoreElem
from repro.core.interfaces import DataInterface
from repro.core.record import BGPStreamRecord as _CoreRecord
from repro.core.stream import BGPStream as _CoreStream

_default_interface: Optional[DataInterface] = None


def set_default_data_interface(interface: DataInterface) -> None:
    """Set the data interface used by ``BGPStream()`` when none is passed.

    Plays the role of the globally-reachable CAIDA Broker in the original
    bindings.
    """
    global _default_interface
    _default_interface = interface


def get_default_data_interface() -> Optional[DataInterface]:
    return _default_interface


class BGPElem:
    """The elem object handed back by ``record.get_next_elem()``."""

    __slots__ = ("_elem",)

    def __init__(self, elem: _CoreElem) -> None:
        self._elem = elem

    @property
    def type(self) -> str:
        return str(self._elem.elem_type)

    @property
    def time(self) -> int:
        return self._elem.time

    @property
    def peer_address(self) -> str:
        return self._elem.peer_address

    @property
    def peer_asn(self) -> int:
        return self._elem.peer_asn

    @property
    def fields(self) -> dict:
        return self._elem.field_dict()

    def __repr__(self) -> str:
        return f"<BGPElem {self.type} t={self.time} peer={self.peer_asn}>"


class BGPRecord:
    """A reusable record container, filled in by ``stream.get_next_record(rec)``."""

    def __init__(self) -> None:
        self._record: Optional[_CoreRecord] = None

    # -- attributes mirroring the C structure ---------------------------------

    @property
    def project(self) -> str:
        return self._record.project if self._record else ""

    @property
    def collector(self) -> str:
        return self._record.collector if self._record else ""

    @property
    def type(self) -> str:
        return self._record.dump_type if self._record else ""

    @property
    def dump_time(self) -> int:
        return self._record.dump_time if self._record else 0

    @property
    def time(self) -> int:
        return self._record.time if self._record else 0

    @property
    def status(self) -> str:
        return str(self._record.status) if self._record else ""

    @property
    def dump_position(self) -> str:
        return str(self._record.dump_position) if self._record else ""

    def get_next_elem(self) -> Optional[BGPElem]:
        """The next elem of this record matching the stream filters, or None."""
        if self._record is None:
            return None
        elem = self._record.get_next_elem()
        return None if elem is None else BGPElem(elem)


class BGPStream:
    """The stream object of the bindings.

    ``data_interface`` also accepts a registry name (``"broker"``,
    ``"csvfile"``, ``"sqlite"``, ``"singlefile"``, ``"kafka"``) together
    with ``interface_options``, matching the paper's named-interface API.
    A live interface switches the Listing-1 idiom onto the near-realtime
    BMP-over-Kafka feed: pass a ready
    :class:`~repro.core.interfaces.LiveDataInterface`, or ``"kafka"`` with
    its options (``interface_options={"broker": message_broker}``).
    """

    def __init__(
        self,
        data_interface: Union[DataInterface, str, None] = None,
        interface_options: Optional[Dict] = None,
    ) -> None:
        interface = data_interface
        if interface is None:
            interface = _default_interface
            if interface is None:
                raise RuntimeError(
                    "no data interface available: pass one to BGPStream(...) or call "
                    "repro.pybgpstream.set_default_data_interface() first"
                )
        self._stream = _CoreStream(
            data_interface=interface,
            interface_options=interface_options,
        )

    def add_filter(self, name: str, value: str) -> None:
        """Add one named filter, e.g. ``add_filter("prefix-more", "10.0.0.0/8")``.

        The prefix family supports the full BGPStream filter language:
        ``prefix`` (alias of ``prefix-more``), ``prefix-exact``,
        ``prefix-more``, ``prefix-less`` and ``prefix-any``.
        """
        self._stream.add_filter(name, value)

    def add_interval_filter(self, start: int, end: int) -> None:
        end_value: Optional[int] = None if end in (-1, None) else end
        self._stream.add_interval_filter(start, end_value)

    def set_data_interface(self, interface: Union[DataInterface, str], **options) -> None:
        """Set the interface: an instance, or a registry name plus options
        (``set_data_interface("sqlite", path="broker.db")``)."""
        self._stream.set_data_interface(interface, **options)

    @property
    def is_live(self) -> bool:
        """True when the stream reads a live BMP feed rather than dump files."""
        return self._stream.is_live

    def start(self) -> None:
        self._stream.start()

    def get_next_record(self, record: BGPRecord) -> bool:
        """Fill ``record`` with the next record; False when the stream ends."""
        core_record = self._stream.get_next_record()
        if core_record is None:
            return False
        record._record = core_record
        return True

    # Convenience: expose the underlying pythonic stream too.
    @property
    def core(self) -> _CoreStream:
        return self._stream
