"""Line-delimited JSON framing for the daemon's one protocol.

``repro serve`` speaks one protocol (:mod:`repro.serve.protocol`) to
its clients (``repro submit``) and to its fleet workers (``repro fleet
worker``), in one trivially-debuggable frame shape: one JSON object per
line, UTF-8, newline-terminated. This module is the one definition of
that framing and of the journal's lines (float precision in
particular: ``json.dumps`` serializes floats at full ``repr``
precision, which is what lets values round-trip through the wire
bit-for-bit and keeps served and fleet payloads byte-identical to
offline sweeps).
"""

from __future__ import annotations

import json
from typing import Any, Iterator, Mapping, Union

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "decode",
    "encode",
    "read_bounded",
    "read_events",
    "recv_msg",
    "send_msg",
]

#: Upper bound on one frame (one line, terminator included). Reads are
#: bounded to this, so a corrupt or malicious peer streaming bytes with
#: no newline cannot balloon the receiver's memory — ``readline()``
#: without a limit buffers the whole flood. 8 MiB is orders of
#: magnitude above any real payload (full sweep results are tens of
#: KB) while still an instant, bounded read.
MAX_FRAME_BYTES = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """Malformed frames or structurally invalid requests."""


def read_bounded(stream) -> Union[bytes, str]:
    """One ``readline`` capped at the frame bound. Returns the raw line
    (empty at EOF); raises :class:`ProtocolError` when the peer sent
    more than :data:`MAX_FRAME_BYTES` without a newline."""
    line = stream.readline(MAX_FRAME_BYTES + 1)
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"oversized frame: peer sent more than {MAX_FRAME_BYTES} bytes "
            f"without a line terminator"
        )
    return line


def encode(msg: Mapping[str, Any]) -> bytes:
    """One message as one compact JSON line (the only frame shape)."""
    return json.dumps(msg, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def decode(line: Union[bytes, str]) -> dict[str, Any]:
    """Parse one frame; anything but a JSON object is a protocol error."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        msg = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(msg).__name__}"
        )
    return msg


def read_events(stream) -> Iterator[dict[str, Any]]:
    """Decode response lines from a binary file-like until EOF.

    Reads are bounded per frame (:data:`MAX_FRAME_BYTES`). A final line
    without a terminator is still decoded — event streams legitimately
    end at EOF — but an over-long line raises :class:`ProtocolError`.
    """
    while True:
        line = read_bounded(stream)
        if not line:
            return
        if line.strip():
            yield decode(line)


def send_msg(stream, msg: Mapping[str, Any]) -> None:
    """Write one frame and flush it (a frame is only sent when flushed)."""
    stream.write(encode(msg))
    stream.flush()


def recv_msg(stream) -> dict[str, Any]:
    """Read exactly one frame; EOF mid-conversation is a protocol error
    (the peer hung up without a terminal message).

    The read is bounded (:data:`MAX_FRAME_BYTES`) and the frame must be
    newline-terminated: a line that ends at EOF instead is a *truncated*
    frame — the peer died mid-write — and is rejected rather than
    parsed, since a prefix of a JSON object can itself be valid JSON.
    """
    line = read_bounded(stream)
    if not line:
        raise ProtocolError("connection closed by peer")
    if not line.endswith(b"\n" if isinstance(line, bytes) else "\n"):
        raise ProtocolError(
            "truncated frame: connection closed mid-line"
        )
    return decode(line)
