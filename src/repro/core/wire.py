"""Shared frame codec for the executor fabric's byte-stream transports.

The socket backend's coordinator and its workers (frames over TCP, see
:mod:`repro.core.coordinator`) speak this wire format, defined here once
so a frame written by either side is readable by the other:

    +--------+--------+--------+------------------+
    | length | crc32  | epoch  | pickled payload  |
    | 4 B BE | 4 B BE | 8 B BE | *length* bytes   |
    +--------+--------+--------+------------------+

* **length** bounds the payload; anything above :data:`MAX_FRAME_BYTES`
  means the stream desynchronised and is treated as EOF rather than an
  allocation request.
* **crc32** is over the payload bytes.  Pipes rarely corrupt data, but a
  TCP stream crossing real networks, proxies and half-open connections
  can — and "Memory Vulnerability: A Case for Delaying Error Reporting"
  is a standing reminder that a reliability layer without end-to-end
  error detection under it is a story, not a guarantee.  A mismatch is
  EOF, never a crash.
* **epoch** names the coordinator session the frame belongs to.  A fresh
  handshake happens in :data:`HANDSHAKE_EPOCH` (0); the coordinator's
  welcome assigns the live epoch and every later frame carries it.  A
  frame from another epoch — a worker that outlived the campaign it was
  serving, a stale duplicate riding a reused port — reads as EOF, so an
  entire stale session is rejected at its first byte.

The decoder never raises on hostile input: torn header, torn payload,
oversized length, bad CRC, unpicklable bytes and stale epochs all come
back as ``None`` (or a diagnosed :class:`FrameError` status from
:func:`read_frame_ex`, for transports that want to count *why* streams
died).  A codec that can crash its reader is itself an injection target.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass

#: Header: payload length, payload CRC32, session epoch.
_HEADER = struct.Struct(">IIQ")

#: Refuse absurd frame lengths: a desynchronised stream would otherwise
#: ask for gigabytes.  Checkpoints and telemetry deltas are << 16 MB.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The epoch handshake frames travel in, before a session epoch exists.
HANDSHAKE_EPOCH = 0

#: Why a read produced no message (see :func:`read_frame_ex`).
FRAME_OK = "ok"
FRAME_EOF = "eof"          # clean end of stream
FRAME_TORN = "torn"        # header or payload cut short
FRAME_OVERSIZE = "oversize"  # length field beyond MAX_FRAME_BYTES
FRAME_CORRUPT = "corrupt"  # CRC mismatch or unpicklable payload
FRAME_STALE = "stale"      # valid frame from a different session epoch


@dataclass(frozen=True)
class Frame:
    """One decoded frame: the message plus the epoch it travelled in."""

    message: object
    epoch: int


def _read_exact(stream, count: int) -> bytes:
    """Read up to *count* bytes; a short result means the stream ended."""
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def write_frame(stream, message: object, epoch: int = HANDSHAKE_EPOCH) -> None:
    """Write one frame; flushes so the peer sees it immediately."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(
        _HEADER.pack(len(payload), zlib.crc32(payload), epoch) + payload
    )
    stream.flush()


def write_corrupt_frame(
    stream, epoch: int = HANDSHAKE_EPOCH, payload: bytes = b"\x00bitrot\x00"
) -> None:
    """Write a frame whose CRC deliberately lies (chaos harness only).

    The length is honest, so the reader consumes exactly this frame and
    diagnoses ``corrupt`` instead of desynchronising — the worst case a
    single flipped-CRC frame is allowed to cause.
    """
    stream.write(
        _HEADER.pack(len(payload), zlib.crc32(payload) ^ 0xFFFFFFFF, epoch)
        + payload
    )
    stream.flush()


def read_frame_ex(
    stream, epoch: int | None = None
) -> tuple[Frame | None, str]:
    """Read one frame; returns ``(frame, status)``.

    *epoch* of ``None`` accepts any session (the handshake reader);
    otherwise a well-formed frame from a different epoch is refused with
    status :data:`FRAME_STALE` — its payload is **not** unpickled, so a
    stale session cannot even exercise the pickle layer.  Every non-OK
    status means the caller should treat the stream as dead.
    """
    header = _read_exact(stream, _HEADER.size)
    if not header:
        return None, FRAME_EOF
    if len(header) < _HEADER.size:
        return None, FRAME_TORN
    length, crc, frame_epoch = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        return None, FRAME_OVERSIZE
    payload = _read_exact(stream, length)
    if len(payload) < length:
        return None, FRAME_TORN
    if epoch is not None and frame_epoch != epoch:
        return None, FRAME_STALE
    if zlib.crc32(payload) != crc:
        return None, FRAME_CORRUPT
    try:
        message = pickle.loads(payload)
    except Exception:  # noqa: BLE001 - hostile bytes are EOF, not a crash
        return None, FRAME_CORRUPT
    return Frame(message, frame_epoch), FRAME_OK


def read_frame(stream, epoch: int | None = None) -> object | None:
    """One frame's message, or ``None`` for *any* kind of dead stream."""
    frame, _ = read_frame_ex(stream, epoch)
    return frame.message if frame is not None else None
