"""HMAC-SHA256 challenge–response token handshake.

Both repro wire protocols (the cluster JSON framer and the serve
JSON-lines daemon) authenticate with the same three-message exchange,
run immediately after their existing version hello::

    server                                client
      |  nonce_s  (32 random bytes)   ->   |
      |  <-  nonce_c, proof_c              |   proof_c = HMAC(token,
      |                                    |     "client" | nonce_s | nonce_c)
      |  verify proof_c (constant time)    |
      |  proof_s  ->                       |   proof_s = HMAC(token,
      |                                    |     "server" | nonce_s | nonce_c)
      |                                    |   verify proof_s (constant time)

Properties:

* **both sides authenticate** — the client proves token knowledge in
  ``proof_c``; the server proves it back in ``proof_s``, so a client
  never ships work (or a request) to an impostor that merely accepted
  the TCP connection.
* **replay-proof** — both nonces are fresh random per connection; a
  recorded ``proof_c`` is worthless against any other connection because
  the server's nonce differs (and vice versa). Domain-separated labels
  keep a client proof from ever doubling as a server proof on a
  reflected connection.
* **constant-time verification** — :func:`verify_proof` is
  ``hmac.compare_digest``; a byte-by-byte comparison would leak prefix
  matches through timing.
* **the token never crosses the wire** — only HMAC outputs do, so a
  plaintext (non-TLS) handshake still never exposes the secret, only
  the ability to detect online guesses.

The functions are transport-agnostic bytes-in/bytes-out so both the
sync socket path and the asyncio path (each hex-encoding nonces and
proofs in JSON) share one implementation — and one test suite.
"""

from __future__ import annotations

import hashlib
import hmac
import os

__all__ = [
    "AuthError",
    "NONCE_BYTES",
    "client_proof",
    "from_hex",
    "make_nonce",
    "server_proof",
    "verify_proof",
]

#: Fresh random bytes per side per connection; 256 bits makes nonce
#: collisions (the only replay hazard) astronomically unlikely.
NONCE_BYTES = 32

_CLIENT_LABEL = b"repro-net-client:"
_SERVER_LABEL = b"repro-net-server:"


class AuthError(RuntimeError):
    """The peer failed (or refused) the token handshake."""


def make_nonce() -> bytes:
    return os.urandom(NONCE_BYTES)


def from_hex(value, size: int | None = None) -> bytes | None:
    """The bytes of a hex string as both stacks send nonces and proofs
    (exactly ``size`` of them when given); ``None`` for anything else."""
    try:
        data = bytes.fromhex(value)
    except (TypeError, ValueError):
        return None
    return data if size is None or len(data) == size else None


def _token_bytes(token: str | bytes) -> bytes:
    if isinstance(token, bytes):
        return token
    return token.encode("utf-8")


def _proof(label: bytes, token, server_nonce: bytes, client_nonce: bytes) -> bytes:
    if len(server_nonce) != NONCE_BYTES or len(client_nonce) != NONCE_BYTES:
        raise AuthError(
            f"auth nonces must be {NONCE_BYTES} bytes "
            f"(got {len(server_nonce)}/{len(client_nonce)})"
        )
    return hmac.new(
        _token_bytes(token), label + server_nonce + client_nonce, hashlib.sha256
    ).digest()


def client_proof(token, server_nonce: bytes, client_nonce: bytes) -> bytes:
    """The client's proof of token knowledge over both nonces."""
    return _proof(_CLIENT_LABEL, token, server_nonce, client_nonce)


def server_proof(token, server_nonce: bytes, client_nonce: bytes) -> bytes:
    """The server's answering proof (distinct label: a reflected client
    proof can never satisfy a client waiting for the server's)."""
    return _proof(_SERVER_LABEL, token, server_nonce, client_nonce)


def verify_proof(expected: bytes, received) -> bool:
    """Constant-time digest comparison; malformed input is just False."""
    if not isinstance(received, (bytes, bytearray)):
        return False
    return hmac.compare_digest(expected, bytes(received))
