"""Length-prefixed, checksummed frames for the network service tier.

Every message on the wire -- request or response -- is one *frame*:

.. code-block:: text

    +--------+---------+-------+----------+---------+===========+
    | magic  | version | flags | length   | crc32   | body      |
    | 2B  BE | 1B      | 1B    | 4B  BE   | 4B  BE  | length B  |
    +--------+---------+-------+----------+---------+===========+

``magic`` is ``0x5245`` (``"RE"``), ``version`` is any version in the
accepted range :data:`BASELINE_WIRE_VERSION` .. :data:`WIRE_VERSION` (frames
are *encoded* at the baseline unless a session has negotiated higher via the
client hello handshake, so a pre-handshake peer never sees a version byte it
cannot parse), ``flags`` bit 0 (:data:`FLAG_MSGPACK`) selects the body codec: JSON (the
stdlib default, always available) or msgpack (used only when the optional
``msgpack`` package is importable -- it is **not** vendored, so "auto"
degrades to JSON on a bare interpreter).  ``crc32`` covers the body, so a
mangled frame is rejected deterministically instead of being parsed into
garbage, and ``length`` is bounded by the receiver's ``max_frame_bytes`` so
one bad peer cannot balloon memory.

The payloads themselves are the wire forms of
:mod:`repro.service.requests` (``to_wire``/``from_wire``) wrapped in an
envelope carrying the pipelining request id::

    {"id": 17, "kind": "request", "payload": {...}}
    {"id": 17, "kind": "response", "payload": {...}}

Version 2 sessions (both peers spoke the hello handshake) extend the request
envelope with the exactly-once fields::

    {"id": 0,  "kind": "hello",   "payload": {"type": "client_hello", ...}}
    {"id": 17, "kind": "request", "payload": {...}, "acked": 12}

where ``acked`` is the client's answered low-watermark -- every request id at
or below it has been answered, so the server may prune its per-client
idempotency cache up to that point.

The same payload shapes are what the PR 6 request journal stores -- a
journaled request and a framed request are byte-for-byte identical JSON.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from typing import Optional, Tuple

try:  # optional accelerator; never a hard dependency
    import msgpack  # type: ignore
except ImportError:  # pragma: no cover - exercised implicitly on bare images
    msgpack = None

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "BASELINE_WIRE_VERSION",
    "FLAG_MSGPACK",
    "HEADER",
    "HEADER_SIZE",
    "WireError",
    "FrameCorrupt",
    "FrameTooLarge",
    "WireVersionError",
    "msgpack_available",
    "resolve_wire_format",
    "encode_frame",
    "encode_frame_parts",
    "decode_frame",
    "decode_body_checked",
    "split_frame",
    "read_frame",
    "read_frame_raw",
    "write_frame",
]

WIRE_MAGIC = 0x5245  # "RE"
# Highest frame version this codec speaks.  v2 adds the exactly-once envelope
# fields (client hello handshake, per-request ``acked`` watermark); v1 is the
# baseline envelope.  Encoders default to the baseline, so the handshake frame
# itself -- and every frame sent to a peer that never sends a hello -- is a
# v1 frame.
WIRE_VERSION = 2
BASELINE_WIRE_VERSION = 1
FLAG_MSGPACK = 0x01

HEADER = struct.Struct(">HBBII")  # magic, version, flags, body length, body crc32
HEADER_SIZE = HEADER.size


class WireError(Exception):
    """Base class for framing violations; the connection is unusable after one."""


class FrameCorrupt(WireError):
    """Bad magic, failed CRC, or an undecodable body."""


class FrameTooLarge(WireError):
    """Declared body length exceeds the receiver's ``max_frame_bytes``."""


class WireVersionError(WireError):
    """Peer speaks a frame version this codec does not."""


def msgpack_available() -> bool:
    return msgpack is not None


def resolve_wire_format(preference: str) -> str:
    """Map a ``NetOptions.wire_format`` preference to the codec actually used.

    ``"auto"`` means msgpack when importable, JSON otherwise; asking for
    ``"msgpack"`` explicitly on an image without it is an error (silent
    fallback would hide a misconfiguration).
    """
    if preference == "auto":
        return "msgpack" if msgpack_available() else "json"
    if preference == "msgpack" and not msgpack_available():
        raise WireError("wire_format='msgpack' requested but msgpack is not importable")
    if preference not in ("json", "msgpack"):
        raise WireError(f"unknown wire format {preference!r}")
    return preference


def _encode_body(payload: dict, fmt: str) -> Tuple[bytes, int]:
    if fmt == "msgpack":
        return msgpack.packb(payload, use_bin_type=True), FLAG_MSGPACK
    return json.dumps(payload, separators=(",", ":")).encode("utf-8"), 0


def _decode_body(body: bytes | memoryview, flags: int) -> dict:
    if flags & FLAG_MSGPACK:
        if msgpack is None:
            raise WireError("received a msgpack frame but msgpack is not importable")
        decoded = msgpack.unpackb(body, raw=False)
    else:
        try:
            raw = body.tobytes() if isinstance(body, memoryview) else body
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise FrameCorrupt(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(decoded, dict):
        raise FrameCorrupt(f"frame body must decode to an object, got {type(decoded).__name__}")
    return decoded


def encode_frame_parts(
    payload: dict, fmt: str = "json", version: Optional[int] = None
) -> Tuple[bytes, bytes]:
    """One frame as its ``(header, body)`` parts, uncombined.

    The zero-copy send path: callers hand both parts straight to
    ``StreamWriter.writelines`` instead of paying a concatenation copy per
    frame (the batched response path sends a whole tick's frames through one
    ``writelines``).  ``version`` stamps the header; it defaults to
    :data:`BASELINE_WIRE_VERSION` so only sessions that negotiated a higher
    version ever emit it.
    """
    if version is None:
        version = BASELINE_WIRE_VERSION
    if not BASELINE_WIRE_VERSION <= version <= WIRE_VERSION:
        raise WireVersionError(f"cannot encode wire version {version} (speaking {WIRE_VERSION})")
    body, flags = _encode_body(payload, fmt)
    header = HEADER.pack(WIRE_MAGIC, version, flags, len(body), zlib.crc32(body))
    return header, body


def encode_frame(payload: dict, fmt: str = "json", version: Optional[int] = None) -> bytes:
    """One complete frame (header + body) for ``payload``."""
    header, body = encode_frame_parts(payload, fmt, version)
    return header + body


def decode_body_checked(body: bytes | memoryview, flags: int, crc: int) -> dict:
    """CRC-check and decode a frame body already peeled from its header.

    The second half of :func:`read_frame_raw`: keeping it separate lets a
    server run the (potentially large) checksum + parse on a codec thread
    instead of the event loop.  Accepts a memoryview so slicing callers
    need not copy the body first.
    """
    if zlib.crc32(body) != crc:
        raise FrameCorrupt("frame body failed its CRC32 check")
    return _decode_body(body, flags)


def _check_header(data: bytes, max_frame_bytes: Optional[int]) -> Tuple[int, int, int]:
    magic, version, flags, length, crc = HEADER.unpack(data[:HEADER_SIZE])
    if magic != WIRE_MAGIC:
        raise FrameCorrupt(f"bad frame magic 0x{magic:04x} (expected 0x{WIRE_MAGIC:04x})")
    if not BASELINE_WIRE_VERSION <= version <= WIRE_VERSION:
        raise WireVersionError(f"unsupported wire version {version} (speaking {WIRE_VERSION})")
    if max_frame_bytes is not None and length > max_frame_bytes:
        raise FrameTooLarge(f"declared body of {length} bytes exceeds limit {max_frame_bytes}")
    return flags, length, crc


def decode_frame(data: bytes, max_frame_bytes: Optional[int] = None) -> dict:
    """Decode one complete frame; raises :class:`WireError` subclasses on damage."""
    if len(data) < HEADER_SIZE:
        raise FrameCorrupt(f"frame shorter than its {HEADER_SIZE}-byte header")
    flags, length, crc = _check_header(data, max_frame_bytes)
    body = data[HEADER_SIZE : HEADER_SIZE + length]
    if len(body) != length:
        raise FrameCorrupt(f"truncated frame: header declares {length} bytes, got {len(body)}")
    if zlib.crc32(body) != crc:
        raise FrameCorrupt("frame body failed its CRC32 check")
    return _decode_body(body, flags)


def split_frame(buffer: bytes, max_frame_bytes: Optional[int] = None) -> Optional[Tuple[dict, bytes]]:
    """Try to peel one frame off a byte buffer: ``(payload, rest)`` or None.

    The synchronous streaming entry point (the asyncio paths use
    :func:`read_frame`): returns None while the buffer holds less than one
    complete frame, so callers can loop ``recv -> split`` without tracking
    partial-header state themselves.
    """
    if len(buffer) < HEADER_SIZE:
        return None
    flags, length, crc = _check_header(buffer, max_frame_bytes)
    end = HEADER_SIZE + length
    if len(buffer) < end:
        return None
    # Peel the body through a memoryview: the CRC and decode read it in
    # place, so only the (usually small) remainder is materialised as bytes.
    body = memoryview(buffer)[HEADER_SIZE:end]
    return decode_body_checked(body, flags, crc), buffer[end:]


async def read_frame_raw(
    reader: asyncio.StreamReader, max_frame_bytes: Optional[int] = None
) -> Optional[Tuple[int, int, bytes]]:
    """Read one frame's ``(flags, crc, body)`` without decoding the body.

    The header is validated (magic, version, length bound) but the body's
    CRC check and parse are deferred to :func:`decode_body_checked`, so a
    server can run them off the event loop.  None on clean EOF at a frame
    boundary; EOF *inside* a frame is a :class:`FrameCorrupt` -- the peer
    died mid-send and the tail cannot be trusted.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise FrameCorrupt("connection closed mid-header") from exc
    flags, length, crc = _check_header(header, max_frame_bytes)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameCorrupt("connection closed mid-body") from exc
    return flags, crc, body


async def read_frame(
    reader: asyncio.StreamReader, max_frame_bytes: Optional[int] = None
) -> Optional[dict]:
    """Read exactly one frame from ``reader``; None on clean EOF at a boundary.

    EOF *inside* a frame (header or body cut short) is a :class:`FrameCorrupt`
    -- the peer died mid-send and the tail cannot be trusted.
    """
    raw = await read_frame_raw(reader, max_frame_bytes)
    if raw is None:
        return None
    flags, crc, body = raw
    return decode_body_checked(body, flags, crc)


async def write_frame(
    writer: asyncio.StreamWriter, payload: dict, fmt: str = "json", version: Optional[int] = None
) -> None:
    """Encode and send one frame, honouring the transport's write backpressure."""
    writer.write(encode_frame(payload, fmt, version))
    await writer.drain()
