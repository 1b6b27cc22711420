"""Small framed telemetry protocol for the serve gateway.

One frame is::

    u32 header_len | header JSON (utf-8) | u32 payload_len | payload

Headers are flat JSON objects with an ``op`` field; binary payloads
carry numpy arrays described by ``dtype``/``shape`` header fields, so a
toggle chunk crosses the wire as raw bytes, not JSON numbers.  The same
encoding is used by the asyncio transport and by the in-process client
(which round-trips frames through ``bytes`` to keep the two paths
honest with each other).

Client -> gateway ops: ``open``, ``data``, ``close``, ``stats``,
``ping`` (keepalive — refreshes the session's idle-reaping clock).
Gateway -> client ops: ``opened``, ``windows``, ``done``, ``stats``,
``pong``, ``error``.

Resilience header fields (all optional — old clients interoperate):

* ``open`` may carry ``priority`` (``"critical"``/``"besteffort"``,
  the admission shed class) and ``deadline_ticks`` (the session's
  tick budget before pending work downgrades to the degraded T-cycle
  fallback);
* ``data`` may carry ``seq``, a per-session 0-based data-frame
  counter the gateway verifies for contiguity — a lost or re-ordered
  frame is rejected, never silently folded in;
* ``windows`` carries ``seq``, the matching server-side counter
  clients verify in ``collect``;
* ``error`` carries ``shed: true`` plus a machine-readable ``reason``
  when the admission layer dropped the request (back off and retry),
  as opposed to a malformed-request error.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.errors import ServeError

__all__ = [
    "encode_frame",
    "decode_frame",
    "encode_array",
    "decode_array",
    "FrameBuffer",
    "MAX_FRAME_BYTES",
    "read_frame",
]

_U32 = struct.Struct(">I")

#: Upper bound on a single frame (header + payload) — a malformed or
#: hostile length prefix fails fast instead of allocating gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: dtypes a DATA payload may carry (toggles in, readings out).
_ALLOWED_DTYPES = {"uint8", "int64", "float64"}


def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """Serialize one frame to bytes."""
    if "op" not in header:
        raise ServeError(f"frame header needs an 'op' field: {header}")
    blob = json.dumps(header, separators=(",", ":")).encode()
    if len(blob) + len(payload) > MAX_FRAME_BYTES:
        raise ServeError(
            f"frame of {len(blob) + len(payload)} bytes exceeds "
            f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return _U32.pack(len(blob)) + blob + _U32.pack(len(payload)) + payload


def _check_size(hlen: int, plen: int = 0) -> None:
    """Reject a length prefix before any byte of its body is buffered."""
    if hlen + plen > MAX_FRAME_BYTES:
        raise ServeError(
            f"frame of {hlen} header + {plen} payload bytes exceeds "
            f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )


def _parse_header(blob) -> dict:
    try:
        header = json.loads(blob.decode())
    except ValueError as exc:
        raise ServeError(f"frame header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or "op" not in header:
        raise ServeError("frame header must be an object with 'op'")
    return header


def decode_frame(data: bytes) -> tuple[dict, bytes, int]:
    """Decode one frame from ``data``.

    Returns ``(header, payload, consumed)``; raises
    :class:`~repro.errors.ServeError` on a malformed frame.  Callers
    wanting incremental parsing should use :class:`FrameBuffer`.
    """
    if len(data) < 4:
        raise ServeError("truncated frame: missing header length")
    (hlen,) = _U32.unpack_from(data, 0)
    _check_size(hlen)
    if len(data) < 4 + hlen + 4:
        raise ServeError("truncated frame: incomplete header")
    header = _parse_header(data[4 : 4 + hlen])
    (plen,) = _U32.unpack_from(data, 4 + hlen)
    _check_size(hlen, plen)
    end = 4 + hlen + 4 + plen
    if len(data) < end:
        raise ServeError("truncated frame: incomplete payload")
    return header, bytes(data[4 + hlen + 4 : end]), end


def encode_array(arr: np.ndarray) -> tuple[dict, bytes]:
    """Array -> (header fields, payload bytes)."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.name not in _ALLOWED_DTYPES:
        raise ServeError(
            f"dtype {arr.dtype.name!r} not allowed on the wire "
            f"(use one of {sorted(_ALLOWED_DTYPES)})"
        )
    return (
        {"dtype": arr.dtype.name, "shape": list(arr.shape)},
        arr.tobytes(),
    )


def decode_array(header: dict, payload: bytes) -> np.ndarray:
    """(header fields, payload bytes) -> array, validated."""
    dtype = header.get("dtype")
    shape = header.get("shape")
    if not isinstance(dtype, str) or dtype not in _ALLOWED_DTYPES:
        raise ServeError(f"frame dtype {dtype!r} not allowed")
    if not isinstance(shape, list) or not all(
        type(d) is int and d >= 0 for d in shape
    ):
        raise ServeError(f"frame shape {shape!r} is not a valid shape")
    # Python-int product, clamped past any frame size: no int64 overflow.
    expect = 1
    for d in shape:
        expect = min(expect * d, MAX_FRAME_BYTES + 1)
    itemsize = np.dtype(dtype).itemsize
    if len(payload) % itemsize or len(payload) // itemsize != expect:
        raise ServeError(
            f"frame payload of {len(payload)} bytes does not hold "
            f"shape {shape} of {dtype}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape)


async def read_frame(reader) -> tuple[dict, bytes]:
    """Read one frame off an :class:`asyncio.StreamReader`.

    Both length prefixes are checked against :data:`MAX_FRAME_BYTES`
    before the bytes they announce are read, so a hostile prefix costs
    nothing.  Raises :class:`~repro.errors.ServeError` on a malformed or
    oversize frame and :class:`asyncio.IncompleteReadError` at EOF.
    """
    (hlen,) = _U32.unpack(await reader.readexactly(4))
    _check_size(hlen)
    blob = await reader.readexactly(hlen + 4)
    (plen,) = _U32.unpack_from(blob, hlen)
    _check_size(hlen, plen)
    header = _parse_header(blob[:hlen])
    payload = await reader.readexactly(plen) if plen else b""
    return header, payload


class FrameBuffer:
    """Incremental frame parser for a byte stream."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[dict, bytes]]:
        """Append bytes; return every complete frame now available."""
        self._buf.extend(data)
        frames = []
        while len(self._buf) >= 4:
            (hlen,) = _U32.unpack_from(self._buf, 0)
            _check_size(hlen)
            if len(self._buf) < 4 + hlen + 4:
                break
            (plen,) = _U32.unpack_from(self._buf, 4 + hlen)
            _check_size(hlen, plen)
            if len(self._buf) < 4 + hlen + 4 + plen:
                break
            header, payload, consumed = decode_frame(bytes(self._buf))
            del self._buf[:consumed]
            frames.append((header, payload))
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
