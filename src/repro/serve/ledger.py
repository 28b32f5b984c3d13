"""Append-only, content-addressed results ledger.

The artifact store (``repro.store``) caches *inputs* to a computation —
synthesized protocols. The ledger
caches *outputs*: stratum tallies, direct-MC counts, certificates,
budgets, and individual shard-chunk partials, all keyed by
``repro.store.keys`` digests of (protocol, noise model, seed plan, shot
plan). Repeated queries become lookups; sweeps compute only the chunks
the ledger does not already cover and merge stored partials through the
exact :func:`repro.sim.shard.merge_partials` accumulator.

Layout::

    <root>/segments/<kind>.jsonl     one append-only segment per key kind
    <root>/quarantine/               lines that failed verification

Each segment line is a self-verifying JSON record::

    {"kind": ..., "key": ..., "ts": ..., "record": ..., "sha256": ...}

where ``sha256`` digests the canonical JSON of the other four fields.
Appends are O(1) ``O_APPEND`` writes; every load re-verifies every line
and the **last valid record per key wins** (append-only history — a
re-put supersedes, never mutates). Corruption never crashes a reader
and never surfaces as a wrong tally: lines that fail to parse or whose
digest mismatches (truncated tail from a mid-append crash, bit flips,
torn writes) are moved to ``quarantine/`` and the segment is rewritten
atomically (write-temp-then-rename, like ``repro.store``) with only the
verified lines, so a subsequent append never extends a torn line.

Selection mirrors the store exactly: ``REPRO_LEDGER`` unset -> on by
default at ``~/.cache/repro-ledger``; ``off``/``0``/``none``/``false``/
empty -> disabled; any other value -> that root. ``resolve_ledger``
implements the ``ledger=`` parameter convention (``None`` -> ambient,
``False`` -> off, an instance -> itself).
"""

from __future__ import annotations

import json
import os
import re
import secrets
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..obs.metrics import get_registry
from ..obs.trace import span as _obs_span
from ..sim.shard import (
    merge_partials,
    partial_from_jsonable,
    partial_to_jsonable,
)
from ..store.keys import chunk_key, protocol_digest, sha256_hex

__all__ = [
    "ENV_VAR",
    "LedgerEntry",
    "LedgerEvaluator",
    "LedgerStats",
    "ResultsLedger",
    "active_ledger",
    "default_ledger_root",
    "resolve_ledger",
]

ENV_VAR = "REPRO_LEDGER"
_DISABLED_VALUES = {"off", "0", "none", "false", ""}

_KIND_RE = re.compile(r"[a-z0-9_-]{1,64}")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _line_digest(kind: str, key: str, ts: float, record) -> str:
    return sha256_hex(
        _canonical({"kind": kind, "key": key, "ts": ts, "record": record}).encode(
            "utf-8"
        )
    )


@dataclass
class LedgerStats:
    """Per-instance counters (lookups, appends, corruption events)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    dedup_puts: int = 0
    quarantined: int = 0

    def snapshot(self) -> dict:
        return dict(vars(self))

    def count(self, name: str, amount: int = 1) -> None:
        """Increment a counter here *and* in the process-global metrics
        registry (``ledger.<name>``) — ledger instances are ephemeral
        (``active_ledger`` builds a fresh one per call, each daemon its
        own), so the registry is what survives them."""
        setattr(self, name, getattr(self, name) + amount)
        get_registry().counter(f"ledger.{name}").inc(amount)


@dataclass(frozen=True)
class LedgerEntry:
    """One live (latest-per-key) ledger record, as listed by ``ls``."""

    kind: str
    key: str
    ts: float
    size: int


class ResultsLedger:
    """Content-addressed results ledger over JSONL segments.

    Construction never touches the filesystem; segments are loaded (and
    verified, and — if corrupt — quarantined) lazily on first access per
    kind. Instances are picklable (the path travels, the in-memory index
    does not), so a ledger can cross the figure4 spawn-pool boundary the
    same way :class:`repro.store.ArtifactStore` does.

    ``repro serve``'s loop thread reads one instance while its pool
    threads append: the daemon loads every kind it reads before it
    listens, and a ``put`` publishes its entry with one dict assignment.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root).expanduser()
        self.stats = LedgerStats()
        # kind -> key -> {"record": ..., "ts": ..., "size": ...}
        self._index: dict[str, dict[str, dict]] = {}

    # -- pickling (cross the pool boundary as a path) --------------------------

    def __getstate__(self):
        return {"root": self.root}

    def __setstate__(self, state):
        self.root = state["root"]
        self.stats = LedgerStats()
        self._index = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultsLedger({str(self.root)!r})"

    # -- paths -----------------------------------------------------------------

    def segment_path(self, kind: str) -> Path:
        if not _KIND_RE.fullmatch(kind):
            raise ValueError(f"invalid ledger kind {kind!r}")
        return self.root / "segments" / f"{kind}.jsonl"

    def _quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # -- segment load / verify / quarantine ------------------------------------

    def _quarantine(self, kind: str, bad_lines: list[bytes]) -> None:
        qdir = self._quarantine_dir()
        qdir.mkdir(parents=True, exist_ok=True)
        name = f"{kind}.{os.getpid()}.{secrets.token_hex(4)}.jsonl"
        with open(qdir / name, "wb") as fh:
            for raw in bad_lines:
                fh.write(raw.rstrip(b"\n") + b"\n")
        self.stats.count("quarantined", len(bad_lines))

    def _rewrite(self, kind: str, good_lines: list[bytes]) -> None:
        """Atomically replace a segment with its verified lines only."""
        path = self.segment_path(kind)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
        with open(tmp, "wb") as fh:
            for raw in good_lines:
                fh.write(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def load(self, kind: str) -> dict[str, dict]:
        """The verified key -> entry index of one kind, read once, kept."""
        cached = self._index.get(kind)
        if cached is not None:
            return cached
        path = self.segment_path(kind)
        index: dict[str, dict] = {}
        good: list[bytes] = []
        bad: list[bytes] = []
        try:
            raw_lines = path.read_bytes().splitlines(keepends=True)
        except FileNotFoundError:
            raw_lines = []
        for raw in raw_lines:
            stripped = raw.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
                kind_f = obj["kind"]
                key = obj["key"]
                ts = obj["ts"]
                record = obj["record"]
                digest = obj["sha256"]
            except Exception:
                bad.append(raw)
                continue
            if (
                kind_f != kind
                or not isinstance(key, str)
                or _line_digest(kind_f, key, ts, record) != digest
            ):
                bad.append(raw)
                continue
            good.append(stripped + b"\n")
            index[key] = {"record": record, "ts": ts, "size": len(stripped) + 1}
        if bad:
            # Never crash, never serve a corrupt record: bad lines move
            # to quarantine and the segment is rewritten clean, so the
            # next O_APPEND write cannot extend a torn tail.
            self._quarantine(kind, bad)
            try:
                self._rewrite(kind, good)
            except OSError:  # pragma: no cover - e.g. read-only roots
                pass
        self._index[kind] = index
        return index

    def refresh(self) -> None:
        """Drop the in-memory index; next access re-reads from disk."""
        self._index.clear()

    # -- core API --------------------------------------------------------------

    def get(self, kind: str, key: str | None):
        """The latest verified record for ``key``, or None."""
        if key is None:
            return None
        entry = self.load(kind).get(key)
        if entry is None:
            self.stats.count("misses")
            return None
        self.stats.count("hits")
        return entry["record"]

    def put(self, kind: str, key: str | None, record) -> bool:
        """Append a record; returns False on dedup (identical live record).

        ``record`` must be JSON-serializable; it is stored canonically,
        and Python floats survive the JSON round-trip bit-exactly.
        """
        if key is None:
            return False
        index = self.load(kind)
        live = index.get(key)
        # Compare post-round-trip so an in-memory record equal to the
        # stored one (floats and all) is recognized as a duplicate.
        record = json.loads(_canonical(record))
        if live is not None and live["record"] == record:
            self.stats.count("dedup_puts")
            return False
        ts = time.time()
        line = (
            _canonical(
                {
                    "kind": kind,
                    "key": key,
                    "ts": ts,
                    "record": record,
                    "sha256": _line_digest(kind, key, ts, record),
                }
            ).encode("utf-8")
            + b"\n"
        )
        path = self.segment_path(kind)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "ab") as fh:
            fh.write(line)
        index[key] = {"record": record, "ts": ts, "size": len(line)}
        self.stats.count("puts")
        return True

    # -- maintenance (repro ledger ls|show|verify|gc) --------------------------

    def kinds(self) -> list[str]:
        segments = self.root / "segments"
        try:
            names = sorted(p.stem for p in segments.glob("*.jsonl"))
        except OSError:  # pragma: no cover
            names = []
        return [n for n in names if _KIND_RE.fullmatch(n)]

    def entries(self, kind: str | None = None) -> Iterator[LedgerEntry]:
        """Live (latest-per-key) records, newest first within a kind."""
        for k in [kind] if kind else self.kinds():
            index = self.load(k)
            for key, entry in sorted(
                index.items(), key=lambda item: item[1]["ts"], reverse=True
            ):
                yield LedgerEntry(k, key, entry["ts"], entry["size"])

    def verify(self) -> dict:
        """Re-read and re-verify every segment from disk.

        Quarantines whatever fails (same path as a normal load) and
        reports totals; a clean ledger reports ``quarantined == 0``.
        """
        self.refresh()
        before = self.stats.quarantined
        records = 0
        size = 0
        for kind in self.kinds():
            index = self.load(kind)
            records += len(index)
            size += sum(entry["size"] for entry in index.values())
        return {
            "kinds": len(self.kinds()),
            "records": records,
            "bytes": size,
            "quarantined": self.stats.quarantined - before,
        }

    def gc(self, max_bytes: int) -> dict:
        """Compact to latest-per-key, then evict oldest until under budget.

        Superseded lines (re-puts of the same key) are dropped first;
        if the live set still exceeds ``max_bytes``, whole records are
        evicted oldest-``ts``-first. Segments are rewritten atomically.
        """
        self.refresh()
        live: list[tuple[float, str, str]] = []  # (ts, kind, key)
        for kind in self.kinds():
            for key, entry in self.load(kind).items():
                live.append((entry["ts"], kind, key))
        total = sum(self._index[kind][key]["size"] for _, kind, key in live)
        evicted = 0
        live.sort()
        while total > max_bytes and live:
            ts, kind, key = live.pop(0)
            total -= self._index[kind].pop(key)["size"]
            evicted += 1
        for kind in self.kinds():
            index = self._index.get(kind, {})
            lines = []
            for key, entry in sorted(index.items(), key=lambda item: item[1]["ts"]):
                payload = {
                    "kind": kind,
                    "key": key,
                    "ts": entry["ts"],
                    "record": entry["record"],
                }
                payload["sha256"] = _line_digest(
                    kind, key, entry["ts"], entry["record"]
                )
                lines.append(_canonical(payload).encode("utf-8") + b"\n")
            if lines:
                self._rewrite(kind, lines)
            else:
                try:
                    self.segment_path(kind).unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        return {"evicted": evicted, "bytes": total, "records": len(live)}


# -- selection (mirrors repro.store) ------------------------------------------


def default_ledger_root() -> Path:
    """``$XDG_CACHE_HOME/repro-ledger`` or ``~/.cache/repro-ledger``."""
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro-ledger"


def active_ledger() -> ResultsLedger | None:
    """The environment-selected ledger; None when disabled.

    Resolved from ``REPRO_LEDGER`` on every call, so pool workers and
    tests see the current environment, not an import-time snapshot.
    """
    value = os.environ.get(ENV_VAR)
    if value is None:
        return ResultsLedger(default_ledger_root())
    if value.strip().lower() in _DISABLED_VALUES:
        return None
    return ResultsLedger(value)


def resolve_ledger(ledger=None) -> ResultsLedger | None:
    """The ``ledger=`` parameter convention shared by every consumer.

    ``None`` -> the ambient environment-selected ledger; ``False`` ->
    no ledger (the ``--no-ledger`` escape hatch); a
    :class:`ResultsLedger` -> itself; a path -> a ledger at that root.
    """
    if ledger is None:
        return active_ledger()
    if ledger is False:
        return None
    if isinstance(ledger, ResultsLedger):
        return ledger
    return ResultsLedger(ledger)


# -- the partial-reuse seam ----------------------------------------------------


class LedgerEvaluator:
    """Wraps any chunk evaluator with ledger-backed partial reuse.

    ``map`` subtracts ledger-covered chunks from the plan before
    dispatching: chunks whose :func:`repro.store.keys.chunk_key` has a
    stored partial are restored from JSON (bit-exactly — dtypes and
    floats recorded), only the misses reach ``inner.map``, and partials
    are yielded in original chunk order so
    :func:`repro.sim.shard.merge_partials` produces the same result a
    cold run would. A fully-covered plan dispatches **zero** chunks.

    ``on_partial`` (optional) is invoked once per yielded partial with
    a small progress dict — the daemon streams these to clients.

    ``ledger=None`` degrades to a pure pass-through/progress wrapper.
    """

    def __init__(
        self,
        inner,
        ledger: ResultsLedger | None,
        protocol_digest_hex: str | None = None,
        model=None,
        *,
        on_partial=None,
    ):
        self.inner = inner
        self.ledger = ledger
        self.model = model
        self.on_partial = on_partial
        if protocol_digest_hex is None and ledger is not None:
            engine = getattr(inner, "engine", None)
            protocol = getattr(engine, "protocol", None)
            if protocol is not None:
                try:
                    protocol_digest_hex = protocol_digest(protocol)
                except Exception:
                    protocol_digest_hex = None
        self.protocol_digest = protocol_digest_hex
        self.chunk_hits = 0
        self.chunk_computes = 0

    # -- delegation ------------------------------------------------------------

    @property
    def planner(self):
        return self.inner.planner

    @property
    def engine(self):
        return self.inner.engine

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "LedgerEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    # -- execution -------------------------------------------------------------

    def _key(self, chunk) -> str | None:
        if self.ledger is None or self.protocol_digest is None:
            return None
        return chunk_key(self.protocol_digest, self.model, chunk)

    def map(self, chunks: Iterable) -> Iterator:
        specs = list(chunks)
        cached: list = [None] * len(specs)
        misses = []
        for pos, chunk in enumerate(specs):
            key = self._key(chunk)
            record = self.ledger.get("chunk", key) if key is not None else None
            if record is not None:
                cached[pos] = partial_from_jsonable(record, index=chunk.index)
            else:
                misses.append((pos, chunk, key))
        computed = (
            self.inner.map([chunk for _, chunk, _ in misses]) if misses else iter(())
        )
        try:
            miss_at = {pos: key for pos, _, key in misses}
            registry = get_registry()
            for pos, chunk in enumerate(specs):
                if cached[pos] is not None:
                    self.chunk_hits += 1
                    registry.counter("ledger.chunk_hits").inc()
                    partial = cached[pos]
                    source = "ledger"
                else:
                    partial = next(computed)
                    self.chunk_computes += 1
                    registry.counter("ledger.chunk_computes").inc()
                    key = miss_at[pos]
                    if key is not None:
                        self.ledger.put("chunk", key, partial_to_jsonable(partial))
                    source = "computed"
                if self.on_partial is not None:
                    self.on_partial(
                        {
                            "chunk": int(partial.index),
                            "source": source,
                            "trials": int(partial.trials),
                        }
                    )
                yield partial
        finally:
            close = getattr(computed, "close", None)
            if close is not None:
                close()

    def reduce(self, chunks: Iterable):
        # The merge span lives here, not only in the inner evaluator's
        # reduce: wrapping bypasses the inner reduce, and the map
        # generator must fully close (shipping every cluster span) before
        # the merge window opens.
        partials = list(self.map(chunks))
        with _obs_span("merge", partials=len(partials)):
            return merge_partials(partials)
