"""One endpoint grammar for every repro socket.

Every ``--listen`` / ``--connect`` / ``--cluster`` flag (and every
programmatic address argument) accepts the same spec::

    HOST:PORT[?tls=1&cafile=PATH&certfile=PATH&keyfile=PATH
              &token=SECRET|token-file=PATH]

``HOST`` may be a bracketed IPv6 literal (``[::1]:7781``); ``PORT`` may
be ``0`` for an ephemeral bind. Query parameters:

``tls=1|0``
    Encrypt the connection with TLS. Default: the ``REPRO_NET_TLS``
    environment variable (``1``/``true``/``on``), else plaintext.
``cafile=PATH``
    Clients: verify the peer certificate against this CA bundle (e.g.
    the self-signed server cert). Servers: *require and verify* client
    certificates against it (mutual TLS). A TLS client without a
    ``cafile`` encrypts but does not authenticate the server
    (self-signed quickstart mode, see ``docs/net.md``).
``certfile=PATH`` / ``keyfile=PATH``
    This side's certificate and private key (servers always need them;
    clients only under mutual TLS).
``token=SECRET`` / ``token-file=PATH``
    Shared secret for the HMAC challenge–response handshake
    (:mod:`repro.net.auth`). ``token-file`` keeps the secret out of
    process listings and pickled executor factories; the file's content
    is stripped of trailing whitespace. When neither is given the
    ``REPRO_NET_TOKEN`` environment variable applies (resolved lazily at
    connection time, so spawned pool/cluster children inherit it).

:meth:`Endpoint.render` is the exact inverse of :func:`parse_endpoint`
— specs survive a render/parse round trip byte-for-byte, which is what
lets the ``figure4`` spawn-pool pickle carry endpoint strings instead of
live sockets.
"""

from __future__ import annotations

import ipaddress
import os
from dataclasses import dataclass, replace
from typing import Iterable, Sequence
from urllib.parse import parse_qsl, quote, unquote

__all__ = [
    "ENV_TLS",
    "ENV_TOKEN",
    "AddressAllowlist",
    "Endpoint",
    "ambient_token",
    "parse_endpoint",
    "parse_endpoints",
]

#: Ambient default token: applied whenever a spec names neither
#: ``token=`` nor ``token-file=``. Resolved lazily (at connection time),
#: so pool children and cluster workers inherit the choice through the
#: environment exactly like ``REPRO_STORE`` / ``REPRO_LEDGER``.
ENV_TOKEN = "REPRO_NET_TOKEN"

#: Ambient default for the ``tls`` flag when a spec does not say.
ENV_TLS = "REPRO_NET_TLS"

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off", ""}

_KNOWN_PARAMS = ("tls", "cafile", "certfile", "keyfile", "token", "token-file")


def _parse_bool(name: str, text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise ValueError(f"{name} expects a boolean (0/1), got {text!r}")


def _env_tls_default() -> bool:
    return (os.environ.get(ENV_TLS) or "").strip().lower() in _TRUTHY


def ambient_token() -> str | None:
    """The ``REPRO_NET_TOKEN`` environment default, or ``None``.

    Servers consult this when constructed without an explicit token, so
    ``export REPRO_NET_TOKEN=...`` secures both sides of every repro
    connection in a shell (and its spawned children) at once.
    """
    token = os.environ.get(ENV_TOKEN)
    if token is not None and token.strip():
        return token.strip()
    return None


@dataclass(frozen=True)
class Endpoint:
    """One parsed network endpoint: address + transport security.

    Frozen and picklable; :meth:`render` round-trips through
    :func:`parse_endpoint`, so an endpoint can travel as a plain string
    (spawn pools, CLI flags, CI scripts) without losing its TLS or
    token configuration.
    """

    host: str
    port: int
    tls: bool = False
    cafile: str | None = None
    certfile: str | None = None
    keyfile: str | None = None
    token: str | None = None
    token_file: str | None = None

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def connect_host(self) -> str:
        """The host to dial: bracketed IPv6 literals lose the brackets."""
        if self.host.startswith("[") and self.host.endswith("]"):
            return self.host[1:-1]
        return self.host

    def resolve_token(self) -> str | None:
        """The effective shared secret, or ``None`` for open access.

        Priority: inline ``token=``, then ``token-file=`` (read now, so
        a rotated file takes effect on the next connection), then the
        ambient ``REPRO_NET_TOKEN`` environment variable.
        """
        if self.token is not None:
            return self.token
        if self.token_file is not None:
            try:
                return _read_token_file(self.token_file)
            except OSError as exc:
                raise ValueError(
                    f"endpoint token-file {self.token_file!r} unreadable: {exc}"
                ) from exc
        ambient = os.environ.get(ENV_TOKEN)
        if ambient is not None and ambient.strip():
            return ambient.strip()
        return None

    def with_address(self, host: str, port: int) -> "Endpoint":
        """Same security configuration, different address (workers use
        this to report the ephemeral port they actually bound)."""
        return replace(self, host=host, port=port)

    def render(self) -> str:
        """The canonical spec string; ``parse_endpoint(render())`` is
        the identity. Secrets given inline stay inline (that is what
        the caller wrote); ``token-file`` specs stay paths."""
        params = []
        if self.tls:
            params.append("tls=1")
        for key, value in (
            ("cafile", self.cafile),
            ("certfile", self.certfile),
            ("keyfile", self.keyfile),
            ("token", self.token),
            ("token-file", self.token_file),
        ):
            if value is not None:
                params.append(f"{key}={quote(value, safe='/~.-_')}")
        query = ("?" + "&".join(params)) if params else ""
        return f"{self.host}:{self.port}{query}"

    def describe(self) -> str:
        """Human one-liner with the security posture, never the secret."""
        traits = []
        if self.tls:
            traits.append("tls" + (" (verified)" if self.cafile else ""))
        if self.token is not None or self.token_file is not None:
            traits.append("token")
        elif os.environ.get(ENV_TOKEN, "").strip():
            traits.append("token (env)")
        suffix = f" [{', '.join(traits)}]" if traits else " [plaintext, open]"
        return f"{self.host}:{self.port}{suffix}"


def _read_token_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        token = handle.read().strip()
    if not token:
        raise ValueError(f"endpoint token-file {path!r} is empty")
    return token


def _split_hostport(text: str, default_port: int | None) -> tuple[str, int]:
    if text.startswith("["):  # bracketed IPv6 literal
        bracket = text.find("]")
        if bracket < 0:
            raise ValueError(f"unterminated IPv6 literal in {text!r}")
        host = text[: bracket + 1]
        rest = text[bracket + 1 :]
        if not rest:
            if default_port is None:
                raise ValueError(f"expected HOST:PORT, got {text!r}")
            return host, default_port
        if not rest.startswith(":"):
            raise ValueError(f"expected ':PORT' after {host!r}, got {text!r}")
        port_text = rest[1:]
    else:
        host, sep, port_text = text.rpartition(":")
        if not sep:
            if default_port is None:
                raise ValueError(f"expected HOST:PORT, got {text!r}")
            return text, default_port
        if not host:
            host = "127.0.0.1"
    if not port_text.isdigit():
        raise ValueError(f"expected a numeric port in {text!r}")
    return host, int(port_text)


def parse_endpoint(
    spec,
    *,
    default_port: int | None = None,
    use_env: bool = True,
) -> Endpoint:
    """Parse one endpoint spec into an :class:`Endpoint`.

    Accepts an :class:`Endpoint` (returned unchanged) or the canonical
    ``HOST:PORT[?params]`` string (bare ``HOST`` allowed when
    ``default_port`` is given).

    ``use_env=False`` ignores the ``REPRO_NET_TLS`` default (the token
    environment default is always lazy, see
    :meth:`Endpoint.resolve_token`).
    """
    if isinstance(spec, Endpoint):
        return spec
    if not isinstance(spec, str):
        raise ValueError(
            f"cannot parse endpoint from {spec!r}: pass an endpoint spec "
            "'HOST:PORT[?tls=1&token=...]' or an Endpoint"
        )
    text = spec.strip()
    if not text:
        raise ValueError("empty endpoint spec")
    address_text, _, query = text.partition("?")
    host, port = _split_hostport(address_text.strip(), default_port)
    fields: dict = {}
    tls: bool | None = None
    if query:
        for key, value in parse_qsl(query, keep_blank_values=True):
            if key not in _KNOWN_PARAMS:
                raise ValueError(
                    f"unknown endpoint parameter {key!r} in {spec!r} "
                    f"(known: {', '.join(_KNOWN_PARAMS)})"
                )
            if key == "tls":
                tls = _parse_bool("tls", value)
            else:
                fields[key.replace("-", "_")] = unquote(value)
    if fields.get("token") is not None and fields.get("token_file") is not None:
        raise ValueError(f"{spec!r} names both token= and token-file=")
    if tls is None:
        tls = _env_tls_default() if use_env else False
    return Endpoint(host, port, tls=tls, **fields)


def parse_endpoints(
    spec,
    *,
    default_port: int | None = None,
    use_env: bool = True,
) -> tuple[Endpoint, ...]:
    """A comma-separated spec string (or an iterable of specs /
    endpoints) into a tuple of endpoints."""
    if isinstance(spec, Endpoint):
        parts: Sequence = [spec]
    elif isinstance(spec, str):
        parts = [piece for piece in spec.split(",") if piece.strip()]
    else:
        parts = list(spec)
    endpoints = tuple(
        parse_endpoint(part, default_port=default_port, use_env=use_env)
        for part in parts
    )
    if not endpoints:
        raise ValueError(f"no endpoints in {spec!r}")
    return endpoints


class AddressAllowlist:
    """``--allow`` CIDR/host allowlist, checked before any handshake.

    Each entry is an IP network in CIDR form (``10.8.0.0/16``), a bare
    IP address (``10.8.0.7``), or a hostname (resolved per check so DHCP
    renewals are honored). An empty allowlist admits everyone — the
    localhost default stays zero-configuration.
    """

    def __init__(self, entries: Iterable[str] | None = None):
        self.networks: list = []
        self.hostnames: list[str] = []
        for entry in entries or ():
            entry = entry.strip()
            if not entry:
                continue
            try:
                self.networks.append(ipaddress.ip_network(entry, strict=False))
            except ValueError:
                self.hostnames.append(entry)

    def __bool__(self) -> bool:
        return bool(self.networks or self.hostnames)

    def permits(self, host: str) -> bool:
        """Is a peer connecting from ``host`` (a numeric address as
        reported by ``getpeername``) allowed to even start a handshake?"""
        if not self:
            return True
        try:
            address = ipaddress.ip_address(host)
        except ValueError:
            return False
        for network in self.networks:
            if address.version == network.version and address in network:
                return True
        if self.hostnames:
            import socket

            for name in self.hostnames:
                try:
                    infos = socket.getaddrinfo(name, None)
                except OSError:
                    continue
                for info in infos:
                    try:
                        if ipaddress.ip_address(info[4][0]) == address:
                            return True
                    except ValueError:
                        continue
        return False
