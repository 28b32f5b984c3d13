"""Persistent content-addressed artifact caching (``repro.store``).

The synthesis tax killer: synthesized protocols are cached on disk as
JSON under content-derived keys, so only the first run of a
configuration pays SAT time. Nothing in the store is unpickled; computed
results (certificates, budgets, sweeps) live in the results ledger
(``repro.serve.ledger``) instead. See ``docs/store.md`` for the layout,
key derivation, and corruption policy.

The store is on by default (rooted at ``~/.cache/repro-store``); set
``REPRO_STORE=off`` (or pass ``--no-store`` / ``store=False``) to
disable it, or point ``REPRO_STORE`` / ``--store`` at another root.
Results are bit-identical with the store enabled or disabled.
"""

from . import keys
from .store import (
    ArtifactStore,
    CodecUnavailable,
    StoreEntry,
    StoreStats,
    active_store,
    available_codecs,
    compress_blob,
    decompress_blob,
    default_store_root,
    preferred_codec,
    resolve_store,
)

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
    "keys",
    "preferred_codec",
    "resolve_store",
]
