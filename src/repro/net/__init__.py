"""``repro.net`` — the one transport layer under every repro socket.

The repo grew two disjoint TCP stacks — :mod:`repro.sim.cluster`'s sync
length-prefixed JSON framer and :mod:`repro.serve`'s asyncio JSON-lines
protocol. This package is the shared substrate both consume, so security
and every future transport feature is built once:

* :mod:`repro.net.endpoint` — one :class:`Endpoint` dataclass and one
  ``HOST:PORT[?tls=1&cafile=...&certfile=...&keyfile=...&token=...]``
  grammar (:func:`parse_endpoint`) behind every ``--listen`` /
  ``--connect`` / ``--cluster`` flag, with ``REPRO_NET_TOKEN`` /
  ``REPRO_NET_TLS`` environment defaults and a round-tripping
  :meth:`Endpoint.render`.
* :mod:`repro.net.auth` — the HMAC-SHA256 challenge–response token
  handshake (server nonce -> client proof -> server proof; both sides
  authenticate; constant-time compares; per-connection nonces make
  recorded proofs worthless on replay).
* :mod:`repro.net.tls` — ``ssl.SSLContext`` construction for servers and
  clients from :class:`Endpoint` fields, including the optional
  required-cert mutual mode.
* :mod:`repro.net.framing` — the low-level wire plumbing both stacks
  share: the length-prefixed codec-tagged JSON framer
  (:class:`JsonFramer`), the JSON-lines twin (:class:`JsonLinesTransport`),
  and the uniform byte/frame counters (:class:`FrameCounters`) behind
  every ``wire_stats()``. Both carry JSON only: nothing read off a
  socket is ever unpickled.

See ``docs/net.md`` for the endpoint grammar, the handshake diagram, and
the self-signed TLS quickstart.
"""

from .auth import (
    AuthError,
    NONCE_BYTES,
    client_proof,
    from_hex,
    make_nonce,
    server_proof,
    verify_proof,
)
from .endpoint import (
    ENV_TLS,
    ENV_TOKEN,
    AddressAllowlist,
    Endpoint,
    ambient_token,
    parse_endpoint,
    parse_endpoints,
)
from .framing import (
    FrameCounters,
    JsonFramer,
    JsonLinesTransport,
    recv_frame,
    send_frame,
)
from .tls import NetTLSError, client_ssl_context, server_ssl_context

__all__ = [
    "AddressAllowlist",
    "AuthError",
    "ENV_TLS",
    "ENV_TOKEN",
    "Endpoint",
    "FrameCounters",
    "JsonFramer",
    "JsonLinesTransport",
    "NONCE_BYTES",
    "NetTLSError",
    "ambient_token",
    "client_proof",
    "client_ssl_context",
    "from_hex",
    "make_nonce",
    "parse_endpoint",
    "parse_endpoints",
    "recv_frame",
    "send_frame",
    "server_proof",
    "server_ssl_context",
    "verify_proof",
]
