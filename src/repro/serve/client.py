"""``repro.serve.client`` — blocking client for the ``repro serve`` daemon.

Socket + JSON-lines, no dependencies beyond the stdlib. One connection
can multiplex many requests: :meth:`ServeClient.submit` returns a
request id immediately, :meth:`ServeClient.collect` blocks until that
id's result (buffering any interleaved responses for other ids), and
:meth:`ServeClient.request` is the submit+collect convenience. Progress
events are handed to an optional callback; the returned value is the
full ``result`` response line (``result["result"]`` is the payload,
``result["source"]`` says whether it was computed, ledger-served, or
coalesced onto a concurrent identical request).

Addresses are :mod:`repro.net` endpoint specs
(``HOST:PORT[?tls=1&cafile=...&token=...]``), so TLS and the token
handshake configure exactly like the cluster fabric's ``--cluster``
flag. Two timeouts, with cluster semantics: ``connect_timeout`` covers
establishing the connection — TCP connect, TLS handshake, the server
greeting, and the token challenge–response — while ``timeout`` governs
each read while waiting on a request (a slow *compute* keeps the
connection alive through its progress events; a silent *daemon* times
out readably instead of hanging ``collect`` forever).

The ``repro query`` CLI is a thin wrapper over this class.
"""

from __future__ import annotations

import socket
import ssl
from collections import deque

from ..net.auth import NONCE_BYTES, client_proof, from_hex, make_nonce, verify_proof
from ..net.auth import server_proof as _server_proof
from ..net.endpoint import Endpoint, _env_tls_default, parse_endpoint
from ..net.framing import JsonLinesTransport, WireProtocolError
from ..net.tls import client_ssl_context
from ..obs import trace as obs_trace
from .schema import SERVE_PROTOCOL_VERSION

__all__ = ["DEFAULT_SERVE_PORT", "ServeClient", "ServeError"]

#: ``repro serve``'s conventional port, filled in for bare-HOST specs.
DEFAULT_SERVE_PORT = 7790


class ServeError(RuntimeError):
    """An error event returned by the daemon for one request."""


class ServeClient:
    """Blocking JSON-lines client; use as a context manager.

    Accepts an endpoint spec (``ServeClient("host:7790?tls=1&token=s")``)
    or the classic positional pair (``ServeClient(host, port)``). The
    constructor performs the protocol-2 connection opening — greeting,
    version check, and (when a token is in play on either side) the
    mutual :mod:`repro.net.auth` handshake — so a misconfigured
    connection fails here, readably, never mid-request.

    Not thread-safe: multiplex by interleaving ``submit``/``collect``
    from one thread, or open one client per thread.
    """

    def __init__(
        self,
        host,
        port: int | None = None,
        *,
        timeout: float | None = 120.0,
        connect_timeout: float | None = 10.0,
        token: str | None = None,
    ):
        if port is None:
            endpoint = parse_endpoint(host, default_port=DEFAULT_SERVE_PORT)
        else:
            # The classic (host, port) call shape — an endpoint with
            # ambient defaults.
            endpoint = Endpoint(str(host), int(port), tls=_env_tls_default())
        self.endpoint = endpoint
        if endpoint.token is None and endpoint.token_file is None and token:
            self._token = token
        else:
            self._token = endpoint.resolve_token()
        self._timeout = timeout
        sock = socket.create_connection(
            (endpoint.connect_host, endpoint.port), timeout=connect_timeout
        )
        context = client_ssl_context(endpoint)
        if context is not None:
            try:
                sock = context.wrap_socket(
                    sock, server_hostname=endpoint.connect_host
                )
            except (ssl.SSLError, ConnectionError) as exc:
                sock.close()
                raise ServeError(
                    f"TLS handshake with {endpoint.host}:{endpoint.port} "
                    f"failed: {exc} (tls=1 against a plaintext daemon?)"
                ) from exc
        # The greeting and auth exchange run under the connect timeout;
        # request reads switch to the (longer) request timeout after.
        sock.settimeout(connect_timeout)
        # Five blank lines, which every daemon skips: a TLS daemon reads
        # them as one malformed five-byte TLS record header and drops us
        # at once, instead of both sides waiting for the other to speak.
        sock.sendall(b"\n" * 5)
        self._transport = JsonLinesTransport(sock)
        self._sock = sock
        self._file = self._transport._file
        self._next_id = 0
        # request id -> buffered response lines not yet collected.
        self._pending: dict[int, deque] = {}
        try:
            self._open_protocol()
        except BaseException:
            self.close()
            raise
        sock.settimeout(timeout)

    def _open_protocol(self) -> None:
        """Consume the server greeting; run the token handshake."""
        try:
            greeting = self._transport.recv_obj()
        except (TimeoutError, socket.timeout) as exc:
            hint = (
                "an older repro serve, or not a repro daemon?"
                if self.endpoint.tls
                else "a tls=1 daemon, an older repro serve, or not a "
                "repro daemon?"
            )
            raise ServeError(
                f"daemon at {self.endpoint.host}:{self.endpoint.port} sent "
                f"no greeting ({hint})"
            ) from exc
        if greeting is None:
            raise ConnectionError(
                "server closed the connection during the greeting"
                + ("" if self.endpoint.tls else " (does it require tls=1?)")
            )
        if greeting.get("event") == "error":
            # e.g. an allowlist/paranoia reject raced ahead of the hello
            raise ServeError(greeting.get("error", "server refused"))
        version = greeting.get("protocol_version")
        if greeting.get("event") != "hello" or version != SERVE_PROTOCOL_VERSION:
            raise ServeError(
                f"server speaks protocol v{version}, "
                f"client expects v{SERVE_PROTOCOL_VERSION}"
            )
        if not greeting.get("auth"):
            if self._token is not None:
                # Never talk to a peer that cannot prove token knowledge
                # when a token is configured on this side.
                raise ServeError(
                    f"daemon at {self.endpoint.host}:{self.endpoint.port} "
                    "runs without a token but one is configured here; "
                    "refusing to send requests to an unauthenticated server"
                )
            return
        if self._token is None:
            raise ServeError(
                "daemon requires a token: connect with ?token=... / "
                "?token-file=... on the endpoint or set REPRO_NET_TOKEN"
            )
        server_nonce = from_hex(greeting.get("nonce"), NONCE_BYTES)
        if server_nonce is None:
            raise ServeError("daemon sent a malformed auth challenge")
        client_nonce = make_nonce()
        self._transport.send_obj(
            {
                "op": "auth",
                "nonce": client_nonce.hex(),
                "proof": client_proof(
                    self._token, server_nonce, client_nonce
                ).hex(),
            }
        )
        reply = self._transport.recv_obj()
        if reply is None:
            raise ConnectionError(
                "server closed the connection during the token handshake"
            )
        if reply.get("event") == "error":
            raise ServeError(reply.get("error", "token handshake refused"))
        if reply.get("event") != "auth-ok" or not verify_proof(
            _server_proof(self._token, server_nonce, client_nonce),
            from_hex(reply.get("proof")),
        ):
            # Mutual auth: the daemon accepted *us* but cannot prove it
            # holds the token itself — an impostor that let us in.
            raise ServeError(
                "daemon accepted the connection but its answering proof "
                "does not verify; refusing to trust an impostor"
            )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def wire_stats(self) -> dict:
        """This connection's line-layer byte/frame counters — the same
        vocabulary :meth:`repro.sim.cluster.ClusterEvaluator.wire_stats`
        reports (``raw == wire``: JSON lines carry no codec)."""
        return self._transport.wire_stats()

    # -- core ------------------------------------------------------------------

    def submit(self, op: str, **params) -> int:
        """Send one request line; returns its correlation id.

        When this process is tracing, the request carries the trace
        context as a *top-level* field (never a param — the daemon keys
        its ledger off params, so a traced request dedups with its
        untraced twin) and the daemon ships its spans back on the result
        event for :meth:`collect` to ingest.
        """
        self._next_id += 1
        rid = self._next_id
        payload = {"id": rid, "op": op, "params": params}
        ctx = obs_trace.propagation_context()
        if ctx is not None:
            payload["trace"] = ctx
        self._transport.send_obj(payload)
        self._pending[rid] = deque()
        return rid

    def collect(self, rid: int, *, on_progress=None) -> dict:
        """Block until request ``rid`` resolves; returns its result line.

        Out-of-order responses for other in-flight ids are buffered, so
        any collect order is valid. Raises :class:`ServeError` on an
        error event and ``ConnectionError`` if the daemon goes away.
        """
        buffered = self._pending.get(rid)
        while True:
            if buffered:
                event = buffered.popleft()
            else:
                try:
                    event = self._transport.recv_obj()
                except WireProtocolError as exc:
                    raise ServeError(str(exc)) from exc
                if event is None:
                    raise ConnectionError("server closed the connection")
                if event.get("id") != rid:
                    other = self._pending.get(event.get("id"))
                    if other is not None:
                        other.append(event)
                    continue
            kind = event.get("event")
            if kind == "result":
                self._pending.pop(rid, None)
                shipped = event.get("trace")
                if shipped:
                    tracer = obs_trace.current_tracer()
                    if tracer is not None:
                        tracer.ingest(shipped)
                return event
            if kind == "error":
                self._pending.pop(rid, None)
                raise ServeError(event.get("error", "unknown server error"))
            if on_progress is not None:
                on_progress(event)

    def request(self, op: str, *, on_progress=None, **params) -> dict:
        """Submit one request and block for its result line."""
        with obs_trace.span(f"query.{op}"):
            return self.collect(
                self.submit(op, **params), on_progress=on_progress
            )

    # -- op helpers ------------------------------------------------------------

    def ping(self) -> dict:
        result = self.request("ping")["result"]
        version = result.get("protocol_version")
        if version != SERVE_PROTOCOL_VERSION:
            raise ServeError(
                f"server speaks protocol v{version}, "
                f"client expects v{SERVE_PROTOCOL_VERSION}"
            )
        return result

    def stats(self) -> dict:
        return self.request("stats")["result"]

    def metrics(self) -> dict:
        """The daemon's metrics registry as Prometheus text exposition:
        ``{"content_type": ..., "exposition": ...}``."""
        return self.request("metrics")["result"]

    def shutdown(self) -> dict:
        return self.request("shutdown")["result"]

    def sweep(self, code: str, *, on_progress=None, **params) -> dict:
        return self.request("sweep", code=code, on_progress=on_progress, **params)

    def ftcheck(self, code: str, *, on_progress=None, **params) -> dict:
        return self.request("ftcheck", code=code, on_progress=on_progress, **params)

    def budget(self, code: str, *, on_progress=None, **params) -> dict:
        return self.request("budget", code=code, on_progress=on_progress, **params)

    def direct(self, code: str, p: float, *, on_progress=None, **params) -> dict:
        return self.request(
            "direct", code=code, p=p, on_progress=on_progress, **params
        )
