"""Persistent content-addressed artifact caching (``repro.store``).

The synthesis tax killer: protocols, certificates, and error budgets
are cached on disk under content-derived
keys, so only the first run of a configuration pays SAT time. See
``docs/store.md`` for the layout, key derivation, and corruption policy.

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
