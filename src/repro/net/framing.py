"""Shared low-level wire plumbing for both repro stacks.

The cluster fabric and the serve daemon report transport the same way,
and both carry UTF-8 JSON only — nothing read off a socket is ever
unpickled:

* :func:`send_frame` / :func:`recv_frame` — raw length-prefixed JSON
  frames (the cluster handshake layer; stays uncompressed and untagged
  so mismatched peers get a readable version reject, never a desync);
* :class:`JsonFramer` — the codec-tagged compressed frame transport of
  a post-welcome cluster session:
  ``8-byte length | 1 codec byte | payload``, zero per-frame allocation
  churn via a grow-only ``recv_into`` buffer, per-direction byte
  counters;
* :class:`JsonLinesTransport` — the serve protocol's thin twin: one JSON
  object per ``\\n``-terminated line over a blocking socket, with the
  *same* counter vocabulary, so ``wire_stats`` from either stack lines
  up column-for-column in benchmarks and the daemon's ``stats`` op;
* :class:`FrameCounters` — that shared vocabulary (``raw_*`` JSON bytes
  before codec, ``wire_*`` bytes on the wire, ``frames_*``).

A frame body that is not JSON — such as a pickle from a peer older than
cluster protocol 5 — raises :class:`WireProtocolError` with a readable
reason. JSON turns tuples into lists, so receivers check frame shapes
as sequences.

Works on plaintext sockets and ``ssl.SSLSocket`` alike — TLS sits below
this layer entirely.
"""

from __future__ import annotations

import json
import socket
import struct

from ..obs.metrics import get_registry
from ..store import compress_blob, decompress_blob

__all__ = [
    "FrameCounters",
    "JsonFramer",
    "JsonLinesTransport",
    "WireProtocolError",
    "publish_wire_counters",
    "recv_frame",
    "send_frame",
]

_LENGTH = struct.Struct(">Q")

#: Sanity ceiling on a single frame (far above any real payload). A
#: peer speaking a different protocol — e.g. a TLS ClientHello read as
#: a length prefix — decodes to an absurd length; reject it readably
#: instead of attempting the allocation.
MAX_FRAME_BYTES = 1 << 32

#: Wire ids of the codec names the frame layer can tag (repro.store's
#: codec vocabulary). One byte leads every post-welcome frame.
CODEC_IDS = {"none": 0, "zlib": 1, "zstd": 2}
CODEC_NAMES = {wire_id: name for name, wire_id in CODEC_IDS.items()}


class WireProtocolError(RuntimeError):
    """A peer spoke the wrong magic, version, codec, or frame shape."""


def _encode(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _decode(raw):
    """One frame body as its JSON value; anything else is refused."""
    try:
        return json.loads(str(raw, "utf-8"))
    except ValueError:
        raise WireProtocolError(
            f"frame body is not UTF-8 JSON (starts {bytes(raw[:8])!r}): the "
            "peer is not speaking repro cluster protocol 5 or later, whose "
            "frames carry JSON instead of pickles"
        ) from None


# -- raw frames (handshake layer) ----------------------------------------------


def send_frame(sock: socket.socket, obj) -> None:
    """Send ``obj`` as one length-prefixed JSON frame."""
    payload = _encode(obj)
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_into_exact(sock: socket.socket, view: memoryview) -> bool:
    """Fill ``view`` from the socket; False on clean EOF at offset 0."""
    size = len(view)
    received = 0
    while received < size:
        count = sock.recv_into(view[received:])
        if count == 0:
            if received == 0:
                return False
            raise ConnectionError("peer closed mid-frame")
        received += count
    return True


def _recv_length(sock: socket.socket, header: bytearray) -> int | None:
    """The next frame's length prefix, read into ``header``; ``None`` on
    clean EOF at a frame boundary."""
    if not _recv_into_exact(sock, memoryview(header)):
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame length {length} is absurd — peer is not speaking the "
            "repro frame protocol (a TLS client against a plaintext "
            "endpoint?)"
        )
    return length


def _recv_body(sock: socket.socket, body: memoryview) -> memoryview:
    if not _recv_into_exact(sock, body):
        raise ConnectionError("peer closed between header and payload")
    return body


def recv_frame(sock: socket.socket):
    """One frame back as its JSON value; ``None`` on clean EOF."""
    length = _recv_length(sock, bytearray(_LENGTH.size))
    if length is None:
        return None
    return _decode(_recv_body(sock, memoryview(bytearray(length))))


# -- counters ------------------------------------------------------------------


class FrameCounters:
    """The byte/frame counter vocabulary both transports share."""

    __slots__ = (
        "raw_sent",
        "wire_sent",
        "raw_received",
        "wire_received",
        "frames_sent",
        "frames_received",
    )

    FIELDS = __slots__

    def __init__(self):
        for field in self.FIELDS:
            setattr(self, field, 0)

    def absorb(self, other: "FrameCounters") -> None:
        for field in self.FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))

    def stats(self, codec: str | None = None) -> dict:
        """``wire_stats``-shaped snapshot: the six counters plus
        ``compression_ratio`` (raw/wire across both directions; 1.0 =
        incompressible or no codec) and the codec name."""
        snapshot = {field: getattr(self, field) for field in self.FIELDS}
        raw = self.raw_sent + self.raw_received
        wire = self.wire_sent + self.wire_received
        snapshot["compression_ratio"] = (raw / wire) if wire else 1.0
        snapshot["codec"] = codec
        return snapshot


def publish_wire_counters(counters: FrameCounters, prefix: str) -> None:
    """Fold one retiring transport's byte counters into the process-global
    metrics registry (``<prefix>.raw_sent`` etc.).

    Called exactly once per framer lifetime, at the same absorb/close
    seams that fold link counters into session totals — so the registry
    keeps the numbers that used to vanish with the per-connection (or
    per-request) object that held them.
    """
    registry = get_registry()
    for field in FrameCounters.FIELDS:
        value = getattr(counters, field)
        if value:
            registry.counter(f"{prefix}.{field}").inc(value)


# -- codec-tagged JSON frames (cluster sessions) -------------------------------


class JsonFramer(FrameCounters):
    """Codec-tagged frame transport of one cluster protocol session.

    After ``welcome`` both peers switch from raw frames to
    ``8-byte length | 1 codec byte | payload``: the payload is the
    UTF-8 JSON compressed with the session's negotiated codec, each frame
    tags itself (a frame the codec cannot shrink ships raw under
    ``"none"``, so compression never inflates the wire), and receives
    land in one grow-only reusable buffer via ``recv_into`` — zero
    per-frame allocation churn on the hot path. Byte counters on both
    directions feed ``ClusterEvaluator.wire_stats`` and the bench
    ledger.
    """

    __slots__ = ("sock", "codec", "_header", "_buffer")

    def __init__(self, sock: socket.socket, codec: str = "none"):
        if codec not in CODEC_IDS:
            raise WireProtocolError(f"unknown frame codec {codec!r}")
        super().__init__()
        self.sock = sock
        self.codec = codec
        self._header = bytearray(_LENGTH.size)
        self._buffer = bytearray(1 << 16)

    def send(self, obj) -> None:
        raw = _encode(obj)
        codec, payload = compress_blob(raw, self.codec)
        frame = (
            _LENGTH.pack(1 + len(payload))
            + bytes((CODEC_IDS[codec],))
            + payload
        )
        self.sock.sendall(frame)
        self.raw_sent += len(raw)
        self.wire_sent += len(frame)
        self.frames_sent += 1

    def recv(self):
        """One frame back as its JSON value; ``None`` on clean EOF."""
        length = _recv_length(self.sock, self._header)
        if length is None:
            return None
        if length < 1:
            raise WireProtocolError("empty frame (missing codec byte)")
        if length > len(self._buffer):
            self._buffer = bytearray(max(length, 2 * len(self._buffer)))
        body = _recv_body(self.sock, memoryview(self._buffer)[:length])
        codec = CODEC_NAMES.get(body[0])
        if codec is None:
            raise WireProtocolError(f"unknown frame codec id {body[0]}")
        raw = decompress_blob(codec, body[1:])
        self.raw_received += len(raw)
        self.wire_received += _LENGTH.size + length
        self.frames_received += 1
        return _decode(raw)


# -- JSON lines (serve sessions) -----------------------------------------------


class JsonLinesTransport(FrameCounters):
    """One JSON object per newline-terminated UTF-8 line, counted.

    The serve protocol's framing, routed through the same counter
    vocabulary as :class:`JsonFramer` so both stacks report
    ``wire_stats`` uniformly (``raw_* == wire_*`` here: JSON lines carry
    no codec, recorded as ``codec="none"``). Owns the socket's buffered
    reader; blocking semantics follow the socket's timeout.
    """

    __slots__ = ("sock", "_file")

    codec = "none"

    def __init__(self, sock: socket.socket):
        super().__init__()
        self.sock = sock
        self._file = sock.makefile("rb")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self.sock.close()

    def send_obj(self, obj: dict) -> None:
        line = _encode(obj) + b"\n"
        self.sock.sendall(line)
        self.raw_sent += len(line)
        self.wire_sent += len(line)
        self.frames_sent += 1

    def recv_obj(self):
        """The next non-blank line as a dict; ``None`` on clean EOF."""
        while True:
            raw = self._file.readline()
            if not raw:
                return None
            self.raw_received += len(raw)
            self.wire_received += len(raw)
            if not raw.strip():
                continue
            self.frames_received += 1
            try:
                return json.loads(raw)
            except json.JSONDecodeError as exc:
                raise WireProtocolError(
                    f"peer sent a non-JSON line: {raw[:80]!r}"
                ) from exc

    def wire_stats(self) -> dict:
        return self.stats(self.codec)
