"""Multi-node chunk execution: stream shard plans to TCP workers.

``repro.sim.shard`` plans workloads into tiny, deterministically-seeded
chunk specs (:class:`~repro.sim.shard.StratumChunk` & friends); this
module executes them on worker processes, local or on other machines:

* **Wire format** — length-prefixed UTF-8 JSON frames (8-byte big-endian
  length + JSON body) over a TCP socket, plaintext or TLS
  (:mod:`repro.net`). Chunks travel in their
  :func:`~repro.sim.shard.chunk_to_jsonable` form, partials in the
  results ledger's :func:`~repro.sim.shard.partial_to_jsonable` form,
  noise models in their
  :func:`~repro.sim.noisemodels.model_to_jsonable` form, and token
  nonces and proofs as hex. A versioned handshake opens every
  connection: the coordinator sends the magic, the protocol version,
  and a *digest-first* session header — the SHA-256 of the canonical
  JSON engine payload (:func:`repro.sim.shard.engine_payload`), the
  slab bound, the noise model, and the frame codecs it can read. A
  worker that already holds the compiled engine for that digest (a previous coordinator
  session shipped it) replies ``welcome`` immediately — **engine-cache
  reuse**: consecutive sessions with the same (protocol, engine, judge)
  skip both the payload transfer and the recompilation. On a cache miss
  the worker answers ``need-payload`` and the coordinator ships the
  payload once per worker — so only registered engines, registry judges
  and the built-in noise models cross the wire; anything else is
  refused loudly on the coordinator.

* **Frames and transport** (:mod:`repro.net`) — after ``welcome``
  every frame carries a codec tag and a payload compressed with the
  codec the worker picked from the coordinator's preferences
  (:mod:`repro.net.framing`, shared with the serve daemon; it counts the
  bytes :meth:`ClusterEvaluator.wire_stats` reports). Addresses are
  endpoint specs (``HOST:PORT[?tls=1&token=...]``). With a token in
  play the HMAC challenge–response of :mod:`repro.net.auth` runs right
  after the hello, so a peer that cannot prove the token is refused
  readably **before any engine payload or chunk crosses the wire**;
  ``tls=1`` wraps the socket below the frame layer, and ``--allow``
  lists drop peers at ``accept``. The handshake stays raw-framed, so a
  peer of another protocol version gets a readable reject.

* :class:`ClusterWorker` — the server side (``repro cluster worker
  --listen HOST:PORT``). It serves each coordinator connection on its
  own thread, rebuilds the engine from the handshake payload, then
  answers each ``chunk`` frame with a ``partial`` frame carrying the
  executed :class:`~repro.sim.shard.ShardPartial`.

* :class:`ClusterEvaluator` — the coordinator. It mirrors
  :class:`~repro.sim.shard.ShardedEvaluator`'s ``map``/``reduce``/
  ``close`` interface, so every routed consumer works on a cluster
  unchanged through the :func:`repro.sim.shard.resolve_evaluator` seam.
  Scheduling is a **work-stealing shared queue** with a **credit
  window**: one thread per worker connection keeps up to
  ``pipeline_depth`` chunks outstanding on its link (default 4), so
  a worker always has the next chunk queued locally instead of idling
  a round trip between chunks — and fast workers still naturally take
  more chunks. Every chunk is acknowledged individually, in send
  order; when a worker disconnects, *all* of its unacknowledged
  in-flight chunks are **requeued** to the surviving workers, and a
  ``done``-index guard ensures a chunk's partial is merged exactly once
  no matter how many times delivery was attempted — partials are never
  double-counted before :func:`~repro.sim.shard.merge_partials`.
  ``pipeline_depth=1`` degenerates to the old ack-per-chunk lockstep.

* :class:`LocalWorkers` — ``count`` loopback workers this process
  starts, token-armed and stopped with it: the backend of ``workers=N``
  (:func:`local_evaluator`, reached through ``resolve_evaluator``) and
  of a ``repro serve --workers N`` daemon.

**Bit-identity.** Results depend only on the chunk plan, never on which
worker executed a chunk, in what order, how many disconnect/retry
cycles happened, or what transport carried it: sampled chunks carry
their own ``SeedSequence`` entropy, enumerated chunks carry index
ranges, and ``merge_partials`` folds in chunk-index order. A two-worker
localhost run, a ten-node TLS+token run, and ``workers=1`` inline
therefore produce bit-identical tallies, histograms, evidence rows, and
float masses — pinned in ``tests/sim/test_cluster.py`` and
``tests/net/test_secure_cluster.py`` including under forced worker
kills.

**Security note.** Frames are JSON and nothing read off the wire is
ever unpickled: a hostile frame — a pickle, a malformed chunk, an
engine payload that does not compile — gets a readable ``reject`` (or
:class:`~repro.net.framing.WireProtocolError` on the coordinator), and
the worker keeps serving. The token handshake gates who may use a
worker's CPU and TLS keeps the stream private; treat the token like an
SSH key, and prefer ``token-file=`` over inline ``token=`` where
process listings are visible.
"""

from __future__ import annotations

import functools
import os
import secrets
import socket
import ssl
import subprocess
import sys
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..net.auth import (
    NONCE_BYTES,
    client_proof,
    from_hex,
    make_nonce,
    server_proof,
    verify_proof,
)
from ..net.endpoint import (
    AddressAllowlist,
    Endpoint,
    ambient_token,
    parse_endpoint,
    parse_endpoints,
)
from ..net.framing import (
    CODEC_IDS as _CODEC_IDS,
    FrameCounters,
    JsonFramer,
    WireProtocolError,
    publish_wire_counters,
    recv_frame,
    send_frame,
)
from ..net.tls import client_ssl_context, server_ssl_context
from ..obs import trace as obs_trace
from ..obs.metrics import get_registry
from ..store import available_codecs
from ..store.keys import sha256_hex
from .noisemodels import model_from_jsonable, model_to_jsonable
from .shard import (
    ShardPartial,
    ShardedEvaluator,
    StratumPlanner,
    _DEFAULT_SLAB,
    _run_chunk,
    chunk_from_jsonable,
    chunk_to_jsonable,
    engine_from_payload,
    engine_payload,
    merge_partials,
    partial_from_jsonable,
    partial_to_jsonable,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ClusterProtocolError",
    "ClusterError",
    "ClusterWorker",
    "ClusterEvaluator",
    "ClusterExecutorFactory",
    "LocalWorkers",
    "local_evaluator",
]

#: Bumped whenever the frame vocabulary or handshake payload changes;
#: mismatched peers refuse each other instead of desyncing. Version 2:
#: digest-first handshake (engine-cache reuse across coordinator
#: sessions) and the noise model in the session header. Version 3:
#: pipelined chunk streaming (a credit window of outstanding chunks per
#: worker) and codec-tagged compressed frames after the handshake.
#: Version 4: the ``repro.net`` security layer — the hello header
#: advertises ``auth`` and the token challenge–response runs between
#: hello and ``need-payload``/``welcome`` (the handshake itself keeps
#: the raw layout so old peers reject cleanly, never desync). Version 5:
#: every frame is JSON instead of a pickle — chunks, partials and models
#: in their JSON forms, the engine payload as canonical JSON text,
#: nonces and proofs as hex.
PROTOCOL_VERSION = 5

_MAGIC = "RPRO-CLUSTER"

#: Compiled engines a worker keeps across coordinator sessions.
_ENGINE_CACHE_SLOTS = 8

#: Outstanding chunks per worker link unless ``--pipeline-depth`` picks
#: one; 1 degenerates to ack-per-chunk lockstep.
_DEFAULT_PIPELINE_DEPTH = 4

#: Ceiling on any pipeline depth (beyond ~32 outstanding chunks
#: the window only buys memory pressure, not latency hiding).
_MAX_PIPELINE_DEPTH = 32

#: The shared frame-protocol error: a peer spoke the wrong magic,
#: version, codec, or frame vocabulary (alias so the cluster framer —
#: :class:`repro.net.framing.JsonFramer` — and this module raise one
#: catchable type).
ClusterProtocolError = WireProtocolError


class ClusterError(RuntimeError):
    """The cluster cannot finish the workload (e.g. every worker died)."""


def _negotiate_codec(peer_codecs) -> str:
    """First codec in the peer's preference list we can also speak."""
    ours = set(available_codecs())
    for codec in peer_codecs or ():
        if codec in ours and codec in _CODEC_IDS:
            return codec
    return "none"


# -- the worker (server) side --------------------------------------------------


class ClusterWorker:
    """Serves chunk execution over TCP (``repro cluster worker``).

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read it back
        from :attr:`port` — the in-process tests do).
    max_chunks:
        Fault-injection drill: after executing this many chunks the
        worker *crashes* — it drops the connection without acknowledging
        the in-flight chunk and stops serving, exactly like a killed
        process. The coordinator must requeue that chunk elsewhere and
        still merge bit-identical totals; the CI cluster smoke job and
        ``tests/sim/test_cluster.py`` drive this path on purpose.
    token:
        Shared secret for the :mod:`repro.net.auth` handshake. ``None``
        (the default) falls back to the ambient ``REPRO_NET_TOKEN``
        environment variable; an empty string disables auth explicitly.
        With a token set, every coordinator must prove knowledge of it
        before the engine payload or any chunk is accepted.
    ssl_context:
        A server-side ``ssl.SSLContext`` (see
        :func:`repro.net.server_ssl_context`); connections are wrapped
        before any frame is read. ``None`` serves plaintext.
    allow:
        ``--allow`` entries (CIDRs, IPs, hostnames) or an
        :class:`~repro.net.AddressAllowlist`; peers outside it are
        dropped at ``accept`` time, before even the hello frame.

    Prefer :meth:`from_endpoint` when starting from an endpoint spec —
    it derives all three security knobs from the parsed fields.

    Coordinator connections are served **concurrently** (one thread per
    connection): a consumer that holds one evaluator session open while
    opening another — ``simulate --direct --cluster`` does, and so do
    the ``figure4`` code-pool tasks — must not deadlock behind its own
    first session. Compiled engines are kept in a small per-worker LRU
    keyed by the coordinator's payload digest, so consecutive sessions
    with the same (protocol, engine, judge) reuse the compiled protocol
    and every signature cache instead of recompiling — only the first
    session of a digest pays the payload transfer and the compile.
    (Engine caches are append-only dicts, so concurrent sessions sharing
    one cached engine are safe under the GIL; at worst two sessions
    compute the same signature once each.)
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_chunks: int | None = None,
        backlog: int = 8,
        token: str | None = None,
        ssl_context: ssl.SSLContext | None = None,
        allow=None,
    ):
        self.max_chunks = max_chunks
        self._token = ambient_token() if token is None else (token or None)
        self._ssl_context = ssl_context
        self.allow = (
            allow
            if isinstance(allow, AddressAllowlist)
            else AddressAllowlist(allow)
        )
        self._served = 0
        self._served_lock = threading.Lock()
        self._engines: OrderedDict[str, object] = OrderedDict()
        self._engines_lock = threading.Lock()
        self._stop = threading.Event()
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(backlog)
        self.host, self.port = self._server.getsockname()[:2]

    @classmethod
    def from_endpoint(
        cls,
        endpoint,
        *,
        max_chunks: int | None = None,
        backlog: int = 8,
        allow=None,
    ) -> "ClusterWorker":
        """Build a worker from an endpoint spec: the listen address plus
        every security field (``tls``/``certfile``/``keyfile``/``cafile``
        and the resolved token) in one string."""
        endpoint = parse_endpoint(endpoint)
        worker = cls(
            endpoint.connect_host,
            endpoint.port,
            max_chunks=max_chunks,
            backlog=backlog,
            # resolve_token already consulted the environment; "" keeps
            # the constructor from consulting it a second time.
            token=endpoint.resolve_token() or "",
            ssl_context=server_ssl_context(endpoint),
            allow=allow,
        )
        worker.endpoint = endpoint.with_address(endpoint.host, worker.port)
        return worker

    @property
    def address(self) -> str:
        """The bound ``HOST:PORT`` spec coordinators connect to (without
        any TLS or token fields)."""
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        """Stop serving (unblocks ``accept``); idempotent."""
        self._stop.set()
        try:
            self._server.close()
        except OSError:
            pass

    def serve_forever(self) -> None:
        """Accept coordinators until :meth:`stop` (or a drill crash)."""
        try:
            while not self._stop.is_set():
                try:
                    conn, peer = self._server.accept()
                except OSError:
                    break
                if not self.allow.permits(peer[0] if peer else ""):
                    # Outside the allowlist: no handshake, no reject
                    # frame, no TLS — the peer never gets a byte.
                    conn.close()
                    continue
                # Chunk and partial frames are small; without NODELAY,
                # Nagle batching against the peer's delayed ACKs stalls
                # the pipelined window ~40ms per flight.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                threading.Thread(
                    target=self._serve_and_close,
                    args=(conn,),
                    daemon=True,
                    name=f"cluster-session-{self.port}",
                ).start()
        finally:
            self.stop()

    def _serve_and_close(self, conn: socket.socket) -> None:
        try:
            if self._ssl_context is not None:
                # TLS below the frame layer: wrap before the first
                # frame (a plaintext peer fails here, in *its* connect
                # path, with nothing of ours ever sent in the clear).
                conn = self._ssl_context.wrap_socket(conn, server_side=True)
            self._serve_connection(conn)
        except (OSError, ConnectionError, EOFError):
            pass  # coordinator vanished; others continue
        finally:
            conn.close()

    # -- one coordinator session ----------------------------------------------

    def _handshake(self, conn: socket.socket):
        hello = recv_frame(conn)
        if hello is None:
            return None
        if not (_is_frame(hello, "hello", 4) and hello[1] == _MAGIC):
            raise WireProtocolError("bad magic: not a repro cluster peer")
        if hello[2] != PROTOCOL_VERSION:
            raise WireProtocolError(
                f"protocol version mismatch: coordinator speaks "
                f"{hello[2]}, worker speaks {PROTOCOL_VERSION}"
            )
        header = hello[3]
        if not (isinstance(header, dict) and isinstance(header.get("digest"), str)):
            raise WireProtocolError("malformed session header")
        # {"digest", "max_slab", "model", "codecs", "auth"} plus, from a
        # tracing coordinator, "trace": {"id", "parent"} — read with
        # .get() everywhere, so peers without it stay compatible.
        return header

    def _authenticate(self, conn: socket.socket, header) -> None:
        """The token challenge–response (:mod:`repro.net.auth`), before
        any engine or chunk state exists for this connection. Every
        failure raises the readable reason the session rejects with; a
        peer that cannot prove token knowledge never gets a
        ``need-payload``/``welcome``, so no work is ever dispatched to
        or accepted from it."""
        peer_auth = bool(header.get("auth"))
        if self._token is None:
            if peer_auth:
                raise WireProtocolError(
                    "coordinator requires a token but this worker runs "
                    "open; restart the worker with ?token=... or "
                    "REPRO_NET_TOKEN set"
                )
            return
        if not peer_auth:
            raise WireProtocolError(
                "worker requires a token: connect with ?token=... / "
                "?token-file=... on the endpoint or set REPRO_NET_TOKEN"
            )
        server_nonce = make_nonce()
        send_frame(conn, ["auth-challenge", server_nonce.hex()])
        reply = recv_frame(conn)
        if reply is None:
            raise ConnectionError("coordinator left during the token handshake")
        client_nonce = _hex_nonce(reply, "auth-proof", 3)
        if client_nonce is None:
            raise WireProtocolError(
                "token handshake failed: expected an auth-proof frame "
                f"carrying a {NONCE_BYTES}-byte hex nonce"
            )
        expected = client_proof(self._token, server_nonce, client_nonce)
        if not verify_proof(expected, from_hex(reply[2])):
            raise WireProtocolError(
                "token handshake failed: coordinator proof does not "
                "verify (wrong or stale token)"
            )
        send_frame(
            conn,
            ["auth-ok", server_proof(self._token, server_nonce, client_nonce).hex()],
        )

    def _cached_engine(self, digest: str):
        with self._engines_lock:
            engine = self._engines.get(digest)
            if engine is not None:
                self._engines.move_to_end(digest)
            return engine

    def _store_engine(self, digest: str, engine) -> None:
        with self._engines_lock:
            self._engines[digest] = engine
            self._engines.move_to_end(digest)
            while len(self._engines) > _ENGINE_CACHE_SLOTS:
                self._engines.popitem(last=False)

    def _resolve_engine(self, conn: socket.socket, digest: str):
        """Cache hit, or a ``need-payload`` round trip; returns
        ``(engine, source)`` or ``None`` when the coordinator bailed."""
        engine = self._cached_engine(digest)
        if engine is not None:
            return engine, "memory"
        send_frame(conn, ["need-payload", digest])
        reply = recv_frame(conn)
        if reply is None:
            return None
        if not (_is_frame(reply, "payload", 2) and isinstance(reply[1], str)):
            raise WireProtocolError("expected a payload frame after need-payload")
        # The payload travels as the coordinator's exact JSON text so the
        # worker can verify the advertised digest before caching under it
        # — a mislabeled payload is rejected here instead of permanently
        # poisoning this digest's cache slot for later coordinators.
        if sha256_hex(reply[1].encode("utf-8")) != digest:
            raise WireProtocolError("payload bytes do not hash to the session digest")
        try:
            engine = engine_from_payload(reply[1])
        except Exception as exc:
            raise WireProtocolError(
                f"engine payload does not build: {exc!r}"
            ) from None
        self._store_engine(digest, engine)
        return engine, "payload"

    def _serve_connection(self, conn: socket.socket) -> None:
        # Any WireProtocolError — a frame that is not JSON, a bad hello,
        # a failed token proof, a payload or chunk that does not decode —
        # ends the session with its reason in a reject frame, on the raw
        # layer until welcome and on the session framer after it.
        send = functools.partial(send_frame, conn)
        try:
            header = self._handshake(conn)
            if header is None:
                return
            self._authenticate(conn, header)
            max_slab = header.get("max_slab")
            try:
                if not (type(max_slab) is int and max_slab >= 1):
                    raise ValueError(f"max_slab {max_slab!r}")
                model = model_from_jsonable(header.get("model"))
                # Frame compression: the first codec in the coordinator's
                # preference list we can also speak; every frame after the
                # raw welcome is codec-tagged (see repro.net.framing).
                codec = _negotiate_codec(header.get("codecs"))
            except (TypeError, ValueError) as exc:
                raise WireProtocolError(f"malformed session header: {exc}") from None
            resolved = self._resolve_engine(conn, header["digest"])
            if resolved is None:
                return
            engine, source = resolved
            context = ShardedEvaluator(engine, max_slab=max_slab, model=model)
            send(
                [
                    "welcome",
                    PROTOCOL_VERSION,
                    {
                        "pid": os.getpid(),
                        "locations": len(engine.locations),
                        # Where the engine came from: "memory" (LRU) or
                        # "payload" (shipped and compiled this session).
                        "engine_source": source,
                        "codec": codec,
                        # Security posture of this session, for wire_stats
                        # and the bench ledger.
                        "auth": self._token is not None,
                        "tls": self._ssl_context is not None,
                    },
                ]
            )
            framer = JsonFramer(conn, codec)
            send = framer.send
            self._serve_chunks(framer, context, source, header.get("trace"))
        except WireProtocolError as exc:
            send(["reject", str(exc)])

    def _serve_chunks(self, framer, context, source: str, trace_ctx) -> None:
        # A tracing coordinator put its {"id", "parent"} context in the
        # handshake header; we cannot share its trace file, so chunk
        # spans are buffered here and shipped back on each reply frame
        # (a 4th element the coordinator ingests — absent for untraced
        # sessions, so the reply shape old coordinators read is intact).
        tracer = obs_trace.buffering_tracer(trace_ctx)
        worker_id = f"{self.host}:{self.port}"
        # The coordinator streams up to its credit window of chunk frames
        # ahead of our replies; we execute and acknowledge strictly in
        # arrival order (the socket buffers the rest), which is exactly
        # the FIFO the coordinator's per-link pending queue assumes.
        while True:
            message = framer.recv()
            if message is None or message == ["bye"]:
                return
            if not _is_frame(message, "chunk", 2):
                raise WireProtocolError(f"unexpected frame {message!r:.120}")
            try:
                spec = chunk_from_jsonable(message[1])
            except ValueError as exc:
                raise WireProtocolError(f"bad chunk frame: {exc}") from None
            if self.max_chunks is not None:
                with self._served_lock:
                    if self._served >= self.max_chunks:
                        # Drill: die mid-stream — this chunk and every
                        # later one already in the pipeline unacknowledged.
                        # A tracing coordinator sees it exactly like a
                        # crash: no span is ever shipped for this chunk.
                        self.stop()
                        return
            start_wall = time.time()
            start = time.monotonic()
            try:
                partial = _run_chunk(context, spec)
            except Exception as exc:  # deterministic failure: report, don't retry
                reply = ["error", spec.index, repr(exc)]
                if tracer is not None:
                    tracer.record(
                        "cluster.chunk",
                        start_wall=start_wall,
                        duration=time.monotonic() - start,
                        status="error",
                        kind=type(spec).__name__,
                        index=spec.index,
                        worker=worker_id,
                    )
                    reply.append(tracer.sink.drain())
                framer.send(reply)
                return
            with self._served_lock:
                self._served += 1
            get_registry().histogram("cluster.worker_chunk_seconds").observe(
                time.monotonic() - start
            )
            reply = ["partial", partial.index, partial_to_jsonable(partial)]
            if tracer is not None:
                tracer.record(
                    "cluster.chunk",
                    start_wall=start_wall,
                    duration=time.monotonic() - start,
                    kind=type(spec).__name__,
                    index=spec.index,
                    worker=worker_id,
                    engine_source=source,
                )
                reply.append(tracer.sink.drain())
            framer.send(reply)


def _is_frame(frame, kind: str, size: int) -> bool:
    """``frame`` is a ``size``-element ``kind`` frame (JSON sends lists)."""
    return isinstance(frame, list) and len(frame) == size and frame[0] == kind


def _hex_nonce(frame, kind: str, size: int) -> bytes | None:
    """The nonce a ``kind`` frame carries as hex at ``frame[1]``, or None."""
    return from_hex(frame[1], NONCE_BYTES) if _is_frame(frame, kind, size) else None


# -- the coordinator (client) side ---------------------------------------------


class _MapState:
    """Shared scheduling state of one :meth:`ClusterEvaluator.map` run."""

    def __init__(self, source: Iterator, *, tracer=None, map_span=None):
        self.source = source
        self.exhausted = False
        self.requeue: deque = deque()  # chunks orphaned by dead workers
        #: link id -> that link's pending window (chunks sent, unacked,
        #: oldest first — the worker acknowledges in FIFO order).
        self.in_flight: dict[int, deque] = {}
        self.completed: dict[int, ShardPartial] = {}  # chunk index -> partial
        self.done: set[int] = set()  # acknowledged chunk indices (dedupe)
        self.live = 0
        self.failure: Exception | None = None
        self.stop = False
        #: Tracing context for the worker-loop threads, which do not
        #: inherit the caller's contextvars: fabricated dispatch records
        #: parent explicitly under the pre-allocated map span id.
        self.tracer = tracer
        self.map_span = map_span
        self.requeues = 0  # delivery attempts lost to dead workers

    def next_chunk(self):
        """Requeued work first (it blocks completion), else the source."""
        if self.requeue:
            return self.requeue.popleft()
        if not self.exhausted:
            try:
                return next(self.source)
            except StopIteration:
                self.exhausted = True
        return None

    def finished(self) -> bool:
        """No result will ever arrive that has not already been recorded."""
        return (
            self.exhausted
            and not self.requeue
            and not any(self.in_flight.values())
        )


class _WorkerLink:
    """One handshaken TCP connection to a cluster worker.

    The handshake is digest-first: the session header names the engine
    payload by hash, and the payload itself is shipped only when the
    worker answers ``need-payload`` (a worker that served this engine in
    a previous session replies ``welcome`` straight away — see
    ``info["engine_source"]``). With a token in play the
    :mod:`repro.net.auth` challenge–response sits between hello and
    that reply; with ``tls=1`` on the endpoint the socket is wrapped
    before the first frame.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        header,
        payload,
        timeout: float,
        *,
        token: str | None = None,
    ):
        self.endpoint = endpoint
        self.address = endpoint.address
        self._token = token
        # Timeout applies to connect (incl. the TLS handshake) only:
        # frame replies can wait on a loaded worker compiling the
        # engine payload.
        self.sock = socket.create_connection(
            (endpoint.connect_host, endpoint.port), timeout=timeout
        )
        # See ClusterWorker.serve_forever: small frames + Nagle +
        # delayed ACKs would stall the credit window.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        context = client_ssl_context(endpoint)
        if context is not None:
            try:
                self.sock = context.wrap_socket(
                    self.sock, server_hostname=endpoint.connect_host
                )
            except (ssl.SSLError, ConnectionError) as exc:
                self.close()
                raise ClusterProtocolError(
                    f"worker {self.address}: TLS handshake failed: {exc} "
                    "(tls=1 endpoint against a plaintext worker?)"
                ) from exc
        self.sock.settimeout(None)
        try:
            send_frame(self.sock, ["hello", _MAGIC, PROTOCOL_VERSION, header])
            reply = recv_frame(self.sock)
            if _is_frame(reply, "auth-challenge", 2):
                reply = self._answer_challenge(reply)
            elif token is not None and (
                _is_frame(reply, "need-payload", 2) or _is_frame(reply, "welcome", 3)
            ):
                # A token is configured here but the peer skipped the
                # challenge: it cannot know the secret. Never ship an
                # engine payload — or a chunk — to an impostor.
                raise ClusterProtocolError(
                    f"worker {self.address} skipped the token handshake; "
                    "refusing to send work to an unauthenticated peer"
                )
            if _is_frame(reply, "need-payload", 2):
                send_frame(self.sock, ["payload", payload])
                reply = recv_frame(self.sock)
        except (OSError, ConnectionError, ClusterProtocolError):
            self.close()
            raise
        if not (_is_frame(reply, "welcome", 3) and isinstance(reply[2], dict)):
            reason = (
                reply[1]
                if isinstance(reply, list) and len(reply) > 1
                else "connection closed during handshake"
                + ("" if endpoint.tls else " (does the worker require tls=1?)")
            )
            self.close()
            raise ClusterProtocolError(f"worker {self.address}: {reason}")
        self.info = reply[2]
        # Everything after welcome is codec-tagged and compressed with
        # the codec the worker picked from our advertised preferences.
        self.framer = JsonFramer(self.sock, self.info.get("codec", "none"))

    def _answer_challenge(self, challenge):
        """Prove token knowledge, verify the worker's answering proof,
        and return the next protocol frame (``need-payload``/``welcome``
        — or the worker's ``reject``, handled by the caller)."""
        if self._token is None:
            raise ClusterProtocolError(
                f"worker {self.address} requires a token but none is "
                "configured here (pass ?token=... on the endpoint or set "
                "REPRO_NET_TOKEN)"
            )
        server_nonce = _hex_nonce(challenge, "auth-challenge", 2)
        if server_nonce is None:
            raise ClusterProtocolError(
                f"worker {self.address} sent a malformed auth challenge"
            )
        client_nonce = make_nonce()
        send_frame(
            self.sock,
            [
                "auth-proof",
                client_nonce.hex(),
                client_proof(self._token, server_nonce, client_nonce).hex(),
            ],
        )
        reply = recv_frame(self.sock)
        if not _is_frame(reply, "auth-ok", 2):
            return reply  # usually ["reject", readable-reason]
        if not verify_proof(
            server_proof(self._token, server_nonce, client_nonce), from_hex(reply[1])
        ):
            # Mutual auth: the worker accepted *us* but cannot prove it
            # holds the token itself — an impostor that let us in.
            raise ClusterProtocolError(
                f"worker {self.address}: server proof does not verify; "
                "peer accepted the connection without knowing the token"
            )
        return recv_frame(self.sock)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ClusterEvaluator:
    """Executes planner chunks across remote TCP workers.

    Drop-in for :class:`~repro.sim.shard.ShardedEvaluator` (``planner`` /
    ``map`` / ``reduce`` / ``close`` / context manager), so every routed
    consumer runs on a cluster through the ``executor=`` seam unchanged.

    Parameters
    ----------
    engine:
        A built execution engine. Only its
        :func:`~repro.sim.shard.engine_payload` crosses the wire; each
        worker compiles its own copy once per session.
    addresses:
        Worker endpoints — ``"host:port[?tls=1&token=...],host:port"``
        or an iterable of specs / :class:`~repro.net.Endpoint` objects
        (:func:`repro.net.parse_endpoints`). Connections are opened
        lazily on the first ``map`` and reused across calls.
    max_slab:
        Chunk memory bound, forwarded to the planner *and* to every
        worker in the handshake header.
    model:
        Optional noise model (``repro.sim.noisemodels``), forwarded to
        the planner and in the handshake header so remote chunk
        execution samples, enumerates, and weights exactly like the
        local planner would.
    connect_timeout:
        Per-worker TCP connect/handshake timeout in seconds.
    token:
        Fallback shared secret for endpoints that name neither
        ``token=`` nor ``token-file=`` (those take precedence; the
        ambient ``REPRO_NET_TOKEN`` applies when this is ``None`` too).

    A worker that cannot be reached at startup is skipped (recorded in
    :attr:`failed_addresses`) as long as at least one link comes up; a
    worker that dies mid-run has its unacknowledged chunk requeued to the
    survivors. Only when *every* worker is gone with work remaining does
    the evaluator raise :class:`ClusterError`. Security failures —
    version, TLS, or token handshake rejections — abort the whole
    evaluator with the worker's readable reason instead: silently
    "skipping" a worker that *refused* us would mask a misconfiguration.
    """

    def __init__(
        self,
        engine,
        addresses,
        *,
        max_slab: int = _DEFAULT_SLAB,
        connect_timeout: float = 10.0,
        model=None,
        pipeline_depth: int | None = None,
        token: str | None = None,
    ):
        self.engine = engine
        self.endpoints = parse_endpoints(addresses)
        self.addresses = tuple(ep.address for ep in self.endpoints)
        self.token = token
        self.max_slab = int(max_slab)
        self.model = model
        self.connect_timeout = connect_timeout
        if pipeline_depth is None:
            pipeline_depth = _DEFAULT_PIPELINE_DEPTH
        #: Outstanding chunks per worker link (credit window); 1 is the
        #: old ack-per-chunk lockstep, bit-identical either way.
        self.pipeline_depth = max(1, min(_MAX_PIPELINE_DEPTH, int(pipeline_depth)))
        self.planner = StratumPlanner(
            engine.locations, max_slab=self.max_slab, model=model
        )
        # The digest and the shipped text are one artifact: the worker
        # re-hashes exactly this text before caching under the digest.
        self._payload = engine_payload(engine)
        self.payload_digest = sha256_hex(self._payload.encode("utf-8"))
        self._header = {
            "digest": self.payload_digest,
            "max_slab": self.max_slab,
            # Refuses a model without a JSON form, readably, right here.
            "model": model_to_jsonable(model),
            # Frame codecs we can read, best first; the worker replies
            # with its pick in welcome info["codec"].
            "codecs": available_codecs(),
        }
        #: Cumulative frame-layer byte counters of retired connections;
        #: live links are folded in by :meth:`wire_stats`.
        self._wire_totals = FrameCounters()
        self._links: list[_WorkerLink] | None = None
        #: True while a map() generator is live; close() must then drop
        #: connections instead of sending "bye" frames that would race
        #: the worker threads' own sends on the same sockets.
        self._active = False
        self.failed_addresses: list[tuple[tuple[str, int], str]] = []
        #: The :class:`LocalWorkers` :meth:`close` stops, if it owns any.
        self.local_workers: LocalWorkers | None = None

    # -- connection lifecycle --------------------------------------------------

    def _endpoint_token(self, endpoint: Endpoint) -> str | None:
        """Effective secret for one link: the endpoint's own ``token=`` /
        ``token-file=`` beat the evaluator-level fallback, which beats
        the ambient ``REPRO_NET_TOKEN`` (resolved lazily, per link)."""
        if (
            endpoint.token is None
            and endpoint.token_file is None
            and self.token is not None
        ):
            return self.token
        return endpoint.resolve_token()

    def _ensure_links(self) -> list[_WorkerLink]:
        if self._links is None:
            links: list[_WorkerLink] = []
            failed: list[tuple[tuple[str, int], str]] = []
            # A tracing session propagates its context in the handshake
            # header so worker chunk spans stitch into the caller's
            # trace file; untraced sessions send no "trace" key and the
            # worker behaves exactly as before.
            trace_ctx = obs_trace.propagation_context()
            for endpoint in self.endpoints:
                token = self._endpoint_token(endpoint)
                # The hello header advertises whether we will answer a
                # token challenge — per link, since endpoints may mix.
                header = dict(self._header, auth=token is not None)
                if trace_ctx is not None:
                    header["trace"] = trace_ctx
                try:
                    links.append(
                        _WorkerLink(
                            endpoint,
                            header,
                            self._payload,
                            self.connect_timeout,
                            token=token,
                        )
                    )
                except ClusterProtocolError:
                    for link in links:
                        link.close()
                    raise
                except (OSError, ConnectionError) as exc:
                    failed.append((endpoint.address, repr(exc)))
            if not links:
                raise ClusterError(
                    f"no cluster worker reachable among {self.addresses}: "
                    f"{failed}"
                )
            self._links = links
            self.failed_addresses = failed
        return self._links

    def _absorb_wire_counters(self, link: _WorkerLink) -> None:
        framer = getattr(link, "framer", None)
        if framer is None:
            return
        self._wire_totals.absorb(framer)
        # Same seam, second audience: the process-global metrics
        # registry keeps the bytes after this evaluator is gone.
        publish_wire_counters(framer, "cluster.wire")

    def wire_stats(self) -> dict:
        """Frame-layer transport counters of this evaluator's sessions.

        ``raw_*`` are JSON bytes before compression, ``wire_*`` the
        bytes actually on the wire (length prefix + codec tag +
        payload); ``compression_ratio`` is raw/wire across both
        directions (1.0 = incompressible or ``codec == "none"``).
        ``transport``/``auth`` record the security posture — TLS adds
        record overhead *below* this layer, so wire counters are
        transport-invariant by construction.
        """
        totals = FrameCounters()
        totals.absorb(self._wire_totals)
        codecs = set()
        for link in self._links or ():
            framer = getattr(link, "framer", None)
            if framer is not None:
                codecs.add(framer.codec)
                totals.absorb(framer)
        stats = totals.stats(sorted(codecs)[0] if codecs else None)
        stats["pipeline_depth"] = self.pipeline_depth
        stats["transport"] = (
            "tls" if any(ep.tls for ep in self.endpoints) else "plaintext"
        )
        stats["auth"] = any(
            self._endpoint_token(ep) is not None for ep in self.endpoints
        )
        return stats

    def close(self) -> None:
        if self._active:
            # A map() generator was abandoned without being finalized;
            # its worker threads may still use the sockets — drop the
            # connections rather than racing them with "bye" frames.
            self._teardown()
        elif self._links is not None:
            for link in self._links:
                try:
                    link.framer.send(["bye"])
                except (OSError, ConnectionError):
                    pass
                self._absorb_wire_counters(link)
                link.close()
            self._links = None
        if self.local_workers is not None:
            self.local_workers.close()
            self.local_workers = None

    def _teardown(self) -> None:
        """Abandon the session: connections may hold in-flight frames."""
        if self._links is not None:
            for link in self._links:
                self._absorb_wire_counters(link)
                link.close()
            self._links = None

    def __enter__(self) -> "ClusterEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort; prefer close()/context manager
        try:
            self._teardown()
        except Exception:
            pass

    # -- execution -------------------------------------------------------------

    def _worker_loop(
        self,
        link_id: int,
        link: _WorkerLink,
        state: _MapState,
        cond: threading.Condition,
    ) -> None:
        # Credit-window pipelining: keep up to `pipeline_depth` chunks
        # outstanding on this link. `pending` is the send-ordered window
        # (shared with the scheduler via state.in_flight so finished()
        # and requeue-on-disconnect see it); the worker executes and
        # acknowledges strictly in order, so each reply acks the head.
        depth = self.pipeline_depth
        pending: deque = deque()
        #: (wall, monotonic) send times aligned index-for-index with
        #: ``pending`` — the dispatch span/latency window per attempt.
        sent_at: deque = deque()
        addr = f"{link.address[0]}:{link.address[1]}"
        registry = get_registry()
        with cond:
            state.in_flight[link_id] = pending
        while True:
            to_send = []
            with cond:
                if state.stop or state.failure is not None:
                    state.in_flight.pop(link_id, None)
                    state.live -= 1
                    cond.notify_all()
                    return
                while len(pending) < depth:
                    chunk = state.next_chunk()
                    if chunk is None:
                        break
                    pending.append(chunk)
                    sent_at.append((time.time(), time.monotonic()))
                    to_send.append(chunk)
                if not pending:
                    if state.finished():
                        state.in_flight.pop(link_id, None)
                        state.live -= 1
                        cond.notify_all()
                        return
                    # Another link's in-flight chunks may yet be requeued.
                    cond.wait()
                    continue
            try:
                for chunk in to_send:
                    link.framer.send(["chunk", chunk_to_jsonable(chunk)])
                reply = link.framer.recv()
                if reply is None:
                    raise ConnectionError("worker closed the connection")
            except (OSError, ConnectionError) as exc:
                link.close()
                with cond:
                    state.in_flight.pop(link_id, None)
                    state.live -= 1
                    if not state.stop:
                        # Requeue *every* unacknowledged chunk in this
                        # link's window, oldest first — exactly-once
                        # merging is preserved because only unacked work
                        # is ever retried (and `done` guards the merge).
                        if pending:
                            state.requeues += len(pending)
                            registry.counter("cluster.requeues").inc(
                                len(pending)
                            )
                            if state.tracer is not None:
                                # One "requeued" dispatch record per lost
                                # attempt; the retry lands as a sibling
                                # under the same map span.
                                now = time.monotonic()
                                for chunk, (wall, mono) in zip(
                                    pending, sent_at
                                ):
                                    state.tracer.record(
                                        "cluster.dispatch",
                                        start_wall=wall,
                                        duration=now - mono,
                                        parent=state.map_span,
                                        status="requeued",
                                        index=chunk.index,
                                        worker=addr,
                                    )
                        state.requeue.extend(pending)
                        pending.clear()
                        sent_at.clear()
                        if state.live == 0 and not state.finished():
                            state.failure = ClusterError(
                                "all cluster workers disconnected with "
                                f"work remaining (last: {link.address}: "
                                f"{exc!r})"
                            )
                    cond.notify_all()
                return
            except Exception as exc:
                # Anything else (e.g. a reply frame that is not JSON) is
                # not a transport fault: retrying elsewhere would fail
                # the same way, and dying silently would hang map()
                # forever. Fail the run.
                link.close()
                with cond:
                    state.in_flight.pop(link_id, None)
                    state.live -= 1
                    if state.failure is None and not state.stop:
                        error = (
                            ClusterProtocolError
                            if isinstance(exc, ClusterProtocolError)
                            else ClusterError
                        )
                        state.failure = error(
                            f"worker {link.address}: reply for chunk "
                            f"{pending[0].index if pending else '?'} "
                            f"could not be read: {exc!r}"
                        )
                    cond.notify_all()
                return
            with cond:
                chunk = pending.popleft()
                sent_wall, sent_mono = sent_at.popleft()
                elapsed = time.monotonic() - sent_mono
                try:
                    if reply[0] == "partial":
                        index = reply[1]
                        partial = partial_from_jsonable(reply[2], index)
                        # A tracing worker appends its buffered chunk
                        # spans as a 4th element; copy them into our
                        # trace file under their original ids.
                        if len(reply) > 3 and state.tracer is not None:
                            state.tracer.ingest(reply[3])
                        if index not in state.done:
                            state.done.add(index)
                            state.completed[index] = partial
                        registry.histogram("cluster.chunk_seconds").observe(
                            elapsed
                        )
                        if state.tracer is not None:
                            state.tracer.record(
                                "cluster.dispatch",
                                start_wall=sent_wall,
                                duration=elapsed,
                                parent=state.map_span,
                                index=chunk.index,
                                worker=addr,
                            )
                    elif reply[0] == "error":
                        if len(reply) > 3 and state.tracer is not None:
                            state.tracer.ingest(reply[3])
                        if state.tracer is not None:
                            state.tracer.record(
                                "cluster.dispatch",
                                start_wall=sent_wall,
                                duration=elapsed,
                                parent=state.map_span,
                                status="error",
                                index=chunk.index,
                                worker=addr,
                            )
                        state.failure = ClusterError(
                            f"worker {link.address} failed chunk "
                            f"{reply[1]}: {reply[2]}"
                        )
                    else:
                        state.failure = ClusterProtocolError(
                            f"worker {link.address} sent unexpected frame "
                            f"{reply!r:.200}"
                        )
                except Exception as exc:  # malformed reply shape
                    state.failure = ClusterProtocolError(
                        f"worker {link.address} sent a malformed reply "
                        f"for chunk {chunk.index}: {exc!r}"
                    )
                cond.notify_all()
                if state.failure is not None:
                    state.in_flight.pop(link_id, None)
                    state.live -= 1
                    return

    def map(self, chunks: Iterable) -> Iterator[ShardPartial]:
        """Execute chunk specs on the cluster, yielding partials in
        chunk order.

        Chunks stream lazily from the plan as workers free up (shared
        work-stealing queue); out-of-order completions are buffered so
        the yield order matches :meth:`ShardedEvaluator.map`. Consumers
        may stop early — the remaining plan is never materialized and
        the session's connections are torn down (and re-opened on the
        next call).
        """
        links = self._ensure_links()
        tracer = obs_trace.current_tracer()
        map_span = map_parent = None
        map_start_wall = map_start = 0.0
        if tracer is not None:
            # Materialize the (tiny) spec list under a plan span — same
            # trade as ShardedEvaluator.map, traced sessions only — and
            # pre-allocate the map span id so the worker-loop threads
            # (which see no contextvars) can parent dispatch records
            # under it while the map is still open.
            with tracer.span("plan", backend="cluster") as planning:
                chunks = list(chunks)
                planning.set(chunks=len(chunks))
            map_parent = obs_trace.current_span_id()
            map_span = obs_trace.new_span_id()
            map_start_wall = time.time()
            map_start = time.monotonic()
        self._active = True
        state = _MapState(iter(chunks), tracer=tracer, map_span=map_span)
        cond = threading.Condition()
        state.live = len(links)
        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(link_id, link, state, cond),
                daemon=True,
                name=f"cluster-link-{link.address[0]}:{link.address[1]}",
            )
            for link_id, link in enumerate(links)
        ]
        for thread in threads:
            thread.start()
        next_index = 0
        clean = False
        try:
            while True:
                with cond:
                    while (
                        state.failure is None
                        and next_index not in state.completed
                        and not (state.finished() and state.live == 0)
                    ):
                        cond.wait()
                    if state.failure is not None:
                        raise state.failure
                    if next_index in state.completed:
                        partial = state.completed.pop(next_index)
                        next_index += 1
                    else:
                        clean = not state.completed
                        return
                yield partial
        finally:
            with cond:
                state.stop = True
                cond.notify_all()
            if not clean:
                # Early abort or failure: links may carry unconsumed
                # frames — drop them and reconnect next session.
                self._teardown()
            for thread in threads:
                thread.join(timeout=10.0)
            self._active = False
            if tracer is not None:
                tracer.record(
                    "cluster.map",
                    span_id=map_span,
                    start_wall=map_start_wall,
                    duration=time.monotonic() - map_start,
                    parent=map_parent,
                    status="error" if state.failure is not None else "ok",
                    workers=len(links),
                    requeues=state.requeues,
                )

    def reduce(self, chunks: Iterable) -> ShardPartial:
        """:meth:`map` + :func:`merge_partials` in one call."""
        partials = list(self.map(chunks))
        with obs_trace.span("merge", partials=len(partials)):
            return merge_partials(partials)


@dataclass(frozen=True)
class ClusterExecutorFactory:
    """Picklable ``executor=`` seam adapter for the cluster backend.

    ``resolve_evaluator(engine, executor=ClusterExecutorFactory(addrs))``
    hands every routed consumer a :class:`ClusterEvaluator`; being a
    frozen dataclass it survives the ``figure4`` code-level spawn pool.
    Addresses are normalized to rendered endpoint strings
    (:meth:`repro.net.Endpoint.render`) at construction, so TLS and
    token fields survive that pickle round trip too — and ambient
    ``REPRO_NET_TOKEN`` / ``REPRO_NET_TLS`` defaults are re-resolved in
    the child, which inherits the environment.
    """

    addresses: tuple[str, ...]
    connect_timeout: float = 10.0
    #: Outstanding chunks per worker (None = the module default of 4).
    pipeline_depth: int | None = None
    #: Evaluator-level token fallback (endpoint token=/token-file= and
    #: the environment still apply; see ClusterEvaluator).
    token: str | None = None

    def __post_init__(self):
        # Accept spec strings or Endpoint objects, but *store* canonical
        # endpoint strings: picklable, render/parse round-trip exact,
        # environment-lazy.
        endpoints = parse_endpoints(self.addresses, use_env=False)
        object.__setattr__(
            self, "addresses", tuple(ep.render() for ep in endpoints)
        )

    def __call__(self, engine, max_slab: int, model=None) -> ClusterEvaluator:
        return ClusterEvaluator(
            engine,
            self.addresses,
            max_slab=max_slab,
            connect_timeout=self.connect_timeout,
            model=model,
            pipeline_depth=self.pipeline_depth,
            token=self.token,
        )


# -- loopback workers ----------------------------------------------------------

#: The child command of a :class:`LocalWorkers` launch.
_LOOPBACK_MAIN = "from repro.sim.cluster import _serve_loopback; _serve_loopback()"


def _serve_loopback() -> None:
    """One :class:`LocalWorkers` child: serve on an ephemeral loopback
    port under the ambient ``REPRO_NET_TOKEN``, print the port, and exit
    at stdin EOF, i.e. with the launcher. (``repro cluster worker`` does
    not watch stdin: its launchers may leave it open.)"""
    worker = ClusterWorker("127.0.0.1", 0)
    threading.Thread(target=worker.serve_forever, daemon=True).start()
    print(worker.port, flush=True)
    sys.stdin.buffer.read()
    worker.stop()


class LocalWorkers:
    """``count`` loopback cluster workers, the backend of ``workers=N``.

    Each is a child interpreter on ``127.0.0.1:0`` that prints its port.
    A fresh token per launch (``REPRO_NET_TOKEN`` in the children) keeps
    other local processes out. Children run one BLAS thread each and get
    no ``REPRO_TRACE``, so their spans arrive once, through the
    handshake. They exit at stdin EOF: on :meth:`close`, or when this
    process dies. Calling the instance is the ``executor=`` seam.
    """

    def __init__(self, count: int):
        if count < 1:
            raise ValueError("workers must be positive")
        self.token = secrets.token_hex(32)
        env = dict(
            os.environ,
            REPRO_NET_TOKEN=self.token,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        env.pop(obs_trace.TRACE_ENV, None)
        env.pop(obs_trace.TRACE_CTX_ENV, None)
        # The children import this very package, wherever it lives.
        package_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (package_root, env.get("PYTHONPATH")))
        )
        self._processes: list[subprocess.Popen] = []
        try:
            for _ in range(count):
                self._processes.append(
                    subprocess.Popen(
                        [sys.executable, "-c", _LOOPBACK_MAIN],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        env=env,
                    )
                )
            ports = [process.stdout.readline() for process in self._processes]
            if not all(port.strip().isdigit() for port in ports):
                raise ClusterError(
                    f"a loopback cluster worker did not report its port "
                    f"(read {ports!r}; see its stderr)"
                )
        except BaseException:
            self.close()
            raise
        self.endpoints = tuple(Endpoint("127.0.0.1", int(port)) for port in ports)

    def __call__(self, engine, max_slab: int, model=None) -> ClusterEvaluator:
        return ClusterEvaluator(
            engine, self.endpoints, max_slab=max_slab, model=model, token=self.token
        )

    def close(self) -> None:
        """Stop every worker and reap it; idempotent. A worker holds no
        state worth a graceful exit, so it is killed outright."""
        for process in self._processes:
            process.stdin.close()
            process.stdout.close()
            process.kill()
        for process in self._processes:
            process.wait()
        self._processes = []

    def __enter__(self) -> "LocalWorkers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def local_evaluator(engine, workers: int, max_slab: int, model=None):
    """A :class:`ClusterEvaluator` over ``workers`` fresh
    :class:`LocalWorkers`, which its ``close`` stops."""
    launch = LocalWorkers(workers)
    try:
        evaluator = launch(engine, max_slab, model)
    except BaseException:
        launch.close()
        raise
    evaluator.local_workers = launch
    return evaluator
