"""BMP framing: the common-header scan over a byte stream.

Mirrors the discipline of :mod:`repro.mrt.parser`: a single in-memory
buffer is scanned incrementally with a precompiled struct fast path, and
corruption is *signalled* — a message whose body cannot be decoded comes
back with a :class:`~repro.bmp.messages.CorruptBMPMessage` body
(``message.is_valid`` is False) while the scan keeps walking the stream
(the common header's total length preserves framing).  Only when framing
itself is lost (bad version byte, implausible length) does the scanner
emit one final corrupt message and stop consuming, exactly as the MRT
parser stops on a bad record header.

Two entry points:

* :func:`scan_buffer` — parse one complete buffer (a file, a Kafka message
  value holding back-to-back frames);
* :class:`BMPStreamParser` — the incremental flavour for a long-lived feed:
  ``feed()`` bytes as they arrive, iterate :meth:`messages` for every
  complete frame, and ``finish()`` at end-of-stream to flush a truncated
  tail as a corruption signal.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional

from repro.core import metrics
from repro.bmp.constants import (
    BMP_VERSION,
    COMMON_HEADER_LEN,
    MAX_BMP_MESSAGE_LEN,
    BMPMessageType,
)
from repro.bmp.messages import BMPMessage, CorruptBMPMessage, decode_message_body

#: Precompiled codec for the common header: version, total length, type.
_COMMON_HEADER_STRUCT = struct.Struct("!BIB")

# Decode-tier series, bound once; counted only while metrics are enabled.
_frames_scanned = metrics.decode_frames_scanned.labels()
_bytes_viewed = metrics.decode_bytes.labels("viewed")


def encode_message(message: BMPMessage) -> bytes:
    """Functional alias for :meth:`BMPMessage.encode`."""
    return message.encode()


def decode_message(data: bytes) -> BMPMessage:
    """Decode exactly one BMP message occupying the whole buffer.

    Never raises: a structural problem comes back as a message with a
    :class:`CorruptBMPMessage` body.
    """
    if len(data) < COMMON_HEADER_LEN:
        return _corrupt("message shorter than BMP common header", bytes(data))
    version, length, raw_type = _COMMON_HEADER_STRUCT.unpack_from(data, 0)
    if version != BMP_VERSION:
        return _corrupt(f"unsupported BMP version {version}", bytes(data))
    if length != len(data):
        return _corrupt(
            f"length field {length} does not match data size {len(data)}", bytes(data)
        )
    try:
        msg_type = BMPMessageType(raw_type)
    except ValueError:
        return _corrupt(f"unknown BMP message type {raw_type}", bytes(data))
    body = decode_message_body(msg_type, data[COMMON_HEADER_LEN:])
    return BMPMessage(msg_type, body, version=version)


class BMPStreamParser:
    """Incremental single-buffer framing scanner for a BMP byte stream.

    Appended bytes accumulate in one buffer; :meth:`messages` drains every
    complete frame and keeps the partial tail for the next ``feed()``.
    Once framing is lost the parser is *dead*: it signals one corrupt
    message and ignores everything after (resynchronising inside a broken
    byte stream would risk fabricating records).

    Each complete frame is snapshotted out of the mutable accumulation
    buffer before decoding, so lazy attribute views reference immutable
    bytes — a self-contained buffer that skips the accumulation step
    entirely goes through :func:`scan_buffer`, which is fully zero-copy.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._dead = False
        #: Counters useful for monitoring a long-lived feed.
        self.messages_decoded = 0
        self.corrupt_messages = 0
        self.bytes_consumed = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet framed into a message."""
        return len(self._buffer)

    @property
    def dead(self) -> bool:
        """True once framing was lost; further input is ignored."""
        return self._dead

    def feed(self, data: bytes) -> None:
        """Append raw bytes from the transport."""
        if not self._dead:
            self._buffer += data

    def messages(self) -> Iterator[BMPMessage]:
        """Drain every complete message currently in the buffer."""
        buffer = self._buffer
        offset = 0
        size = len(buffer)
        unpack_from = _COMMON_HEADER_STRUCT.unpack_from
        try:
            while not self._dead and offset + COMMON_HEADER_LEN <= size:
                version, length, raw_type = unpack_from(buffer, offset)
                if version != BMP_VERSION:
                    message = self._kill(f"unsupported BMP version {version}", buffer[offset:])
                    offset = size
                    yield message
                    break
                if length < COMMON_HEADER_LEN or length > MAX_BMP_MESSAGE_LEN:
                    message = self._kill(
                        f"implausible BMP message length {length}", buffer[offset:]
                    )
                    offset = size
                    yield message
                    break
                if offset + length > size:
                    break  # incomplete frame: wait for more bytes
                frame_body = bytes(buffer[offset + COMMON_HEADER_LEN : offset + length])
                try:
                    msg_type: Optional[BMPMessageType] = BMPMessageType(raw_type)
                    body = decode_message_body(msg_type, frame_body)
                except ValueError:
                    msg_type = None
                    body = CorruptBMPMessage(
                        f"unknown BMP message type {raw_type}",
                        bytes(buffer[offset : offset + length]),
                    )
                message = BMPMessage(msg_type, body, version=version)
                self._count(message)
                offset += length
                self.bytes_consumed += length
                if metrics.enabled:
                    _frames_scanned.inc()
                yield message
        finally:
            # Must also run when the caller abandons the iterator mid-drain
            # (GeneratorExit): every frame already yielded has been counted
            # and must not be re-delivered by the next call.
            if offset:
                del buffer[:offset]

    def finish(self) -> Iterator[BMPMessage]:
        """Flush: signal a truncated tail, then drop it.

        Call at end-of-stream (end of a file, end of a self-contained Kafka
        frame batch).  A clean stream ends with an empty buffer and yields
        nothing.
        """
        yield from self.messages()
        if not self._dead and self._buffer:
            yield self._kill("truncated BMP message at end of stream", bytes(self._buffer))
        self._buffer.clear()

    def _kill(self, reason: str, raw: bytes) -> BMPMessage:
        self._dead = True
        message = _corrupt(reason, bytes(raw))
        self._count(message)
        return message

    def _count(self, message: BMPMessage) -> None:
        if message.is_valid:
            self.messages_decoded += 1
        else:
            self.corrupt_messages += 1


def scan_buffer(data: bytes) -> Iterator[BMPMessage]:
    """Scan one complete buffer of back-to-back BMP messages.

    Yields every framed message (corrupt bodies signalled per message) and
    a final corruption signal if the buffer ends mid-frame or framing is
    lost — the bulk-scan counterpart of :class:`BMPStreamParser`, with the
    same kill reasons.

    Unlike the incremental parser this scan is **zero-copy**: the buffer is
    walked through one :class:`memoryview` and each frame's body is handed
    to the codec as a view slice, so a Kafka poll's worth of back-to-back
    frames decodes without per-frame byte copies (and without constructing
    attribute values the consumer never reads).
    The buffer must therefore be immutable for the lifetime of the decoded
    messages — Kafka message values and file contents are.
    """
    view = memoryview(data)
    size = len(view)
    offset = 0
    frames = 0
    unpack_from = _COMMON_HEADER_STRUCT.unpack_from
    try:
        while offset + COMMON_HEADER_LEN <= size:
            version, length, raw_type = unpack_from(view, offset)
            if version != BMP_VERSION:
                yield _corrupt(f"unsupported BMP version {version}", bytes(view[offset:]))
                return
            if length < COMMON_HEADER_LEN or length > MAX_BMP_MESSAGE_LEN:
                yield _corrupt(
                    f"implausible BMP message length {length}", bytes(view[offset:])
                )
                return
            if offset + length > size:
                break  # truncated tail: signalled below
            frame_body = view[offset + COMMON_HEADER_LEN : offset + length]
            try:
                msg_type: Optional[BMPMessageType] = BMPMessageType(raw_type)
                body = decode_message_body(msg_type, frame_body)
            except ValueError:
                msg_type = None
                body = CorruptBMPMessage(
                    f"unknown BMP message type {raw_type}",
                    bytes(view[offset : offset + length]),
                )
            offset += length
            frames += 1
            yield BMPMessage(msg_type, body, version=version)
        if offset < size:
            yield _corrupt("truncated BMP message at end of stream", bytes(view[offset:]))
    finally:
        if metrics.enabled:
            _frames_scanned.inc(frames)
            _bytes_viewed.inc(offset)


def scan_messages(data: bytes) -> List[BMPMessage]:
    """Like :func:`scan_buffer` but materialised into a list."""
    return list(scan_buffer(data))


def _corrupt(reason: str, raw: bytes = b"") -> BMPMessage:
    return BMPMessage(None, CorruptBMPMessage(reason, raw))
