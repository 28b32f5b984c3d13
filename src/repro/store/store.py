"""Disk-backed content-addressed artifact store.

Synthesis is the dominant cost of this reproduction, and before this
module every CLI invocation, CI job, and cold cluster coordinator re-paid
it from scratch. :class:`ArtifactStore` persists the expensive artifact,
synthesized protocol JSON, under content-derived keys
(``repro.store.keys``) in a flat on-disk layout::

    <root>/
      objects/<kind>/<key[:2]>/<key>    one artifact per file
      quarantine/                       entries that failed verification
      tmp/                              write staging (same filesystem)

Every entry is self-describing: a magic string, a JSON header naming the
kind, key, codec, and the SHA-256 of the *raw* (uncompressed) payload,
then the payload itself. The design rules, in order of importance:

* **Never corrupt on crash** — writes go to a unique temp file in
  ``tmp/`` and land with one atomic :func:`os.replace`; readers see the
  old entry or the new one, never a torn write. Concurrent writers of
  the same key are last-writer-wins, and both writes are valid.
* **Never trust the disk** — the payload digest is re-verified on every
  read. A truncated, bit-flipped, or otherwise unreadable entry is moved
  to ``quarantine/`` and reported as a miss (the caller recomputes); it
  is never returned and never crashes the caller.
* **Never require a dependency** — payloads compress with ``zstandard``
  when importable, else with stdlib ``zlib``, else not at all; the codec
  is recorded per entry, so stores written by richer environments stay
  readable (an entry whose codec this environment lacks is a miss, not
  corruption — it is left in place).

Values are raw bytes; the one consumer, ``synthesize_protocol``, writes
UTF-8 protocol JSON. Nothing here unpickles: a forged entry can at worst
fail to parse, which quarantines it like any other defect.
Computed results (certificates, budgets, sweeps) are cached by the
results ledger (``repro.serve.ledger``), not here.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..obs.metrics import get_registry

__all__ = [
    "ArtifactStore",
    "CodecUnavailable",
    "StoreEntry",
    "StoreStats",
    "active_store",
    "available_codecs",
    "compress_blob",
    "decompress_blob",
    "default_store_root",
    "preferred_codec",
    "resolve_store",
]

_MAGIC = b"REPRO-STORE1\n"
_HEADER_LEN = struct.Struct(">I")

#: Environment switch: unset -> the default root; a path -> that root;
#: ``off`` / ``0`` / ``none`` / empty -> disabled.
ENV_VAR = "REPRO_STORE"
_DISABLED_VALUES = {"off", "0", "none", "false", ""}

try:  # optional, absent in the baked image: zlib is the working fallback
    import zstandard as _zstd
except ImportError:  # pragma: no cover - environment-dependent
    _zstd = None


def _compress(codec: str, raw: bytes) -> bytes:
    if codec == "zstd":
        return _zstd.ZstdCompressor().compress(raw)
    if codec == "zlib":
        return zlib.compress(raw, level=6)
    return raw


def _decompress(codec: str, payload: bytes) -> bytes:
    if codec == "zstd":
        if _zstd is None:
            raise CodecUnavailable("zstd")
        return _zstd.ZstdDecompressor().decompress(payload)
    if codec == "zlib":
        return zlib.decompress(payload)
    if codec == "none":
        return payload
    raise CodecUnavailable(codec)


def _preferred_codec() -> str:
    return "zstd" if _zstd is not None else "zlib"


class CodecUnavailable(Exception):
    """A payload written with a codec this environment cannot read."""


# Store internals predate the public name; both refer to one class.
_CodecUnavailable = CodecUnavailable


# -- the codec layer, public ---------------------------------------------------
#
# The same zstd-with-zlib-fallback compression the store applies to disk
# entries, exposed for other transports (the cluster wire protocol tags
# each frame with one of these codec names — see repro.sim.cluster).


def available_codecs() -> tuple[str, ...]:
    """Codecs this environment can read and write, best first.

    ``"none"`` (identity) is always last, so the tuple doubles as a
    negotiation preference list that can never be empty.
    """
    if _zstd is not None:
        return ("zstd", "zlib", "none")
    return ("zlib", "none")


def preferred_codec() -> str:
    """The best compressing codec this environment can write."""
    return _preferred_codec()


def compress_blob(raw: bytes, codec: str | None = None) -> tuple[str, bytes]:
    """Compress ``raw`` with ``codec`` (default: :func:`preferred_codec`).

    Returns ``(codec, payload)`` — with ``("none", raw)`` whenever the
    compressed payload would not be smaller than the input, so callers
    can tag and ship the result without a size check of their own.
    """
    if codec is None:
        codec = _preferred_codec()
    payload = _compress(codec, raw)
    if len(payload) >= len(raw):
        return "none", raw
    return codec, payload


def decompress_blob(codec: str, payload) -> bytes:
    """Invert :func:`compress_blob`; raises :class:`CodecUnavailable`
    when this environment lacks ``codec`` (e.g. a zstd payload on a
    zstandard-free interpreter)."""
    return _decompress(codec, payload)


class _Corrupt(Exception):
    """Entry failed structural or digest verification."""


@dataclass(frozen=True)
class StoreEntry:
    """One on-disk artifact, as listed by :meth:`ArtifactStore.entries`."""

    kind: str
    key: str
    path: Path
    size: int
    mtime: float
    atime: float


@dataclass
class StoreStats:
    """Per-instance counters (observability for benchmarks and tests).

    Instances are ephemeral (``active_store`` constructs a fresh store
    per call), so every increment is mirrored into the process-global
    :mod:`repro.obs.metrics` registry under ``store.*`` — the numbers an
    operator sees never reset with the object that happened to count
    them.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    quarantined: int = 0
    put_errors: int = 0

    def count(self, name: str, amount: int = 1) -> None:
        setattr(self, name, getattr(self, name) + amount)
        get_registry().counter(f"store.{name}").inc(amount)


@dataclass
class ArtifactStore:
    """Content-addressed artifact cache rooted at ``root``.

    Construction never touches the filesystem; directories appear on the
    first write, so pointing at a non-existent root is a valid (empty,
    read-only-in-effect) store. Instances are picklable — the ``figure4``
    code-level spawn pool ships them — and cheap to recreate; the only
    state is the root path and the (process-local) counters.
    """

    root: Path
    stats: StoreStats = field(default_factory=StoreStats)

    def __init__(self, root: Path | str):
        self.root = Path(root).expanduser()
        self.stats = StoreStats()

    # -- paths ---------------------------------------------------------------

    def _object_path(self, kind: str, key: str) -> Path:
        if not key or any(c in key for c in "/\\"):
            raise ValueError(f"malformed store key {key!r}")
        return self.root / "objects" / kind / key[:2] / key

    @property
    def _tmp_dir(self) -> Path:
        return self.root / "tmp"

    @property
    def _quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # -- raw byte interface --------------------------------------------------

    def put_bytes(self, kind: str, key: str, raw: bytes) -> Path | None:
        """Write one artifact atomically; returns its path (None on error).

        A failed write (disk full, permissions) is reported as None and
        counted in :attr:`stats` — caching is best-effort, the caller's
        freshly computed value is still good.
        """
        path = self._object_path(kind, key)
        codec = _preferred_codec()
        payload = _compress(codec, raw)
        if len(payload) >= len(raw):
            codec, payload = "none", raw
        header = json.dumps(
            {
                "kind": kind,
                "key": key,
                "codec": codec,
                "raw_sha256": hashlib.sha256(raw).hexdigest(),
                "raw_size": len(raw),
            }
        ).encode("utf-8")
        try:
            self._tmp_dir.mkdir(parents=True, exist_ok=True)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=key[:8] + ".", dir=self._tmp_dir
            )
            try:
                with os.fdopen(fd, "wb") as stream:
                    stream.write(_MAGIC)
                    stream.write(_HEADER_LEN.pack(len(header)))
                    stream.write(header)
                    stream.write(payload)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            self.stats.count("put_errors")
            return None
        self.stats.count("puts")
        return path

    def get_bytes(self, kind: str, key: str) -> bytes | None:
        """Read one artifact; None on miss, corruption, or unknown codec.

        Corrupt entries are quarantined; entries with an unavailable
        codec are left in place (another environment can read them).
        A hit refreshes the entry's access time for LRU eviction.
        """
        raw = self._read_verified(kind, key)
        if raw is not None:
            self._count_hit(kind, key)
        return raw

    def _read_verified(self, kind: str, key: str) -> bytes | None:
        """The verified payload, or None after counting the miss (and
        quarantining a corrupt entry). A hit is left to the caller to
        count, once it has decoded the payload."""
        path = self._object_path(kind, key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.count("misses")
            return None
        try:
            return self._verify_blob(blob, kind, key)
        except _CodecUnavailable:
            self.stats.count("misses")
            return None
        except _Corrupt as exc:
            self._quarantine(path, str(exc))
            self.stats.count("misses")
            return None

    def _count_hit(self, kind: str, key: str) -> None:
        self._touch(self._object_path(kind, key))
        self.stats.count("hits")

    def _verify_blob(self, blob: bytes, kind: str | None, key: str | None) -> bytes:
        """Parse + digest-check one entry; raises on any defect."""
        if not blob.startswith(_MAGIC):
            raise _Corrupt("bad magic")
        offset = len(_MAGIC)
        if len(blob) < offset + _HEADER_LEN.size:
            raise _Corrupt("truncated header length")
        (header_len,) = _HEADER_LEN.unpack_from(blob, offset)
        offset += _HEADER_LEN.size
        if len(blob) < offset + header_len:
            raise _Corrupt("truncated header")
        try:
            header = json.loads(blob[offset : offset + header_len])
        except ValueError as exc:
            raise _Corrupt(f"unparsable header: {exc}") from None
        offset += header_len
        if kind is not None and header.get("kind") != kind:
            raise _Corrupt(f"kind mismatch: {header.get('kind')!r}")
        if key is not None and header.get("key") != key:
            raise _Corrupt(f"key mismatch: {header.get('key')!r}")
        try:
            raw = _decompress(header.get("codec"), blob[offset:])
        except _CodecUnavailable:
            raise
        except Exception as exc:
            raise _Corrupt(f"decompression failed: {exc}") from None
        if hashlib.sha256(raw).hexdigest() != header.get("raw_sha256"):
            raise _Corrupt("payload digest mismatch")
        if len(raw) != header.get("raw_size"):
            raise _Corrupt("payload size mismatch")
        return raw

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a defective entry aside; never raises."""
        try:
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self._quarantine_dir / path.name)
            self.stats.count("quarantined")
        except OSError:
            # Even quarantine failed (e.g. read-only store): drop the
            # reference; the caller still just sees a miss.
            pass

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh atime (LRU recency) without disturbing mtime (age)."""
        try:
            stat = path.stat()
            os.utime(path, ns=(time.time_ns(), stat.st_mtime_ns))
        except OSError:
            pass

    # -- typed convenience ---------------------------------------------------

    def put_text(self, kind: str, key: str, text: str) -> Path | None:
        return self.put_bytes(kind, key, text.encode("utf-8"))

    def get_text(self, kind: str, key: str, parse=None):
        """Read one UTF-8 artifact, passed through ``parse`` when given.

        An entry that verifies but does not decode, or that ``parse``
        rejects, can never become loadable: it is quarantined and
        counted as a miss, never as a hit.
        """
        raw = self._read_verified(kind, key)
        if raw is None:
            return None
        try:
            value = raw.decode("utf-8")
            if parse is not None:
                value = parse(value)
        except Exception:
            self._quarantine(self._object_path(kind, key), "unloadable")
            self.stats.count("misses")
            return None
        self._count_hit(kind, key)
        return value

    # -- maintenance (repro store ls / verify / gc) --------------------------

    def entries(self) -> Iterator[StoreEntry]:
        """All on-disk artifacts (unverified), deterministic order."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for kind_dir in sorted(objects.iterdir()):
            if not kind_dir.is_dir():
                continue
            for shard_dir in sorted(kind_dir.iterdir()):
                if not shard_dir.is_dir():
                    continue
                for path in sorted(shard_dir.iterdir()):
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    yield StoreEntry(
                        kind=kind_dir.name,
                        key=path.name,
                        path=path,
                        size=stat.st_size,
                        mtime=stat.st_mtime,
                        atime=stat.st_atime,
                    )

    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.entries())

    def verify(self) -> dict:
        """Re-hash every entry; quarantine defects. Returns a report."""
        ok = 0
        unreadable = 0
        quarantined: list[tuple[str, str, str]] = []
        for entry in list(self.entries()):
            try:
                blob = entry.path.read_bytes()
            except OSError:
                continue  # raced with eviction/quarantine
            try:
                self._verify_blob(blob, entry.kind, entry.key)
            except _CodecUnavailable:
                unreadable += 1
                continue
            except _Corrupt as exc:
                self._quarantine(entry.path, str(exc))
                quarantined.append((entry.kind, entry.key, str(exc)))
                continue
            ok += 1
        return {
            "ok": ok,
            "unreadable_codec": unreadable,
            "quarantined": quarantined,
        }

    def gc(self, max_bytes: int) -> dict:
        """Evict least-recently-used entries until the store fits.

        Recency is the access time our own reads refresh explicitly
        (:meth:`_touch`), so it works on ``noatime`` mounts too. Stray
        staging files (crashed writers) are always removed.
        """
        for stray in list(self._tmp_dir.glob("*")) if self._tmp_dir.is_dir() else []:
            try:
                stray.unlink()
            except OSError:
                pass
        entries = sorted(self.entries(), key=lambda e: (e.atime, e.key))
        total = sum(entry.size for entry in entries)
        evicted: list[StoreEntry] = []
        for entry in entries:
            if total <= max_bytes:
                break
            try:
                entry.path.unlink()
            except OSError:
                continue
            total -= entry.size
            evicted.append(entry)
        return {
            "evicted": len(evicted),
            "evicted_bytes": sum(entry.size for entry in evicted),
            "remaining_bytes": total,
        }


# -- ambient resolution --------------------------------------------------------


def default_store_root() -> Path:
    """``$XDG_CACHE_HOME/repro-store`` or ``~/.cache/repro-store``."""
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro-store"


def active_store() -> ArtifactStore | None:
    """The environment-selected store; None when disabled.

    Resolved from ``REPRO_STORE`` on every call (cheap — construction is
    just a path), so subprocess workers and tests see the current
    environment rather than an import-time snapshot.
    """
    value = os.environ.get(ENV_VAR)
    if value is None:
        return ArtifactStore(default_store_root())
    if value.strip().lower() in _DISABLED_VALUES:
        return None
    return ArtifactStore(value)


def resolve_store(store=None) -> ArtifactStore | None:
    """The ``store=`` parameter convention shared by every consumer.

    ``None`` -> the ambient environment-selected store; ``False`` -> no
    store (the ``--no-store`` escape hatch); an :class:`ArtifactStore`
    -> itself.
    """
    if store is None:
        return active_store()
    if store is False:
        return None
    if isinstance(store, ArtifactStore):
        return store
    raise TypeError(
        f"store must be None, False, or an ArtifactStore, got {store!r}"
    )
