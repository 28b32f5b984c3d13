"""Stable content keys for the artifact store and the results ledger.

One digest scheme, shared by every layer that names expensive artifacts:

* :func:`protocol_key` — what ``synthesize_protocol`` is *about to
  compute*: the code's check matrices plus every synthesis parameter
  (and the serialization format version and :data:`SYNTHESIS_REVISION`,
  so format bumps and synthesis changes never collide with old entries).
* :func:`protocol_digest` — what a synthesis *produced*: SHA-256 of the
  canonical protocol JSON. Stable across processes and across
  pickle/JSON round-trips (the JSON round-trip is pinned
  instruction-for-instruction identical), which makes it the right base
  for the results ledger's keys (:func:`result_key` and its wrappers).

The cluster session digest is :func:`sha256_hex` of the canonical JSON
engine payload (``repro.sim.shard.engine_payload``).

:func:`model_token` hashes a model's pickle bytes; nothing here ever
unpickles them. A pickle digest is representation-sensitive: two
*functionally* identical objects with different in-memory provenance
can pickle differently. That is fine for cache keys — a key split costs
a recompute, never a wrong result — but it is why result keys are built
on :func:`protocol_digest` (canonical JSON) rather than protocol
pickles: the JSON digest is identical across processes, start methods,
and pickle round-trips (verified across fork and spawn workers in
``tests/store/test_keys.py``).
"""

from __future__ import annotations

import hashlib
import json
import pickle

__all__ = [
    "DRAW_REVISION",
    "SYNTHESIS_REVISION",
    "chunk_key",
    "direct_key",
    "model_token",
    "protocol_digest",
    "protocol_key",
    "result_key",
    "series_key",
    "sha256_hex",
]


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_key(obj) -> str:
    """Digest of a canonical-JSON-encoded key description."""
    return sha256_hex(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


# -- protocols ----------------------------------------------------------------

#: Revision of the synthesis algorithms, part of every :func:`protocol_key`.
#: Bump it whenever ``synthesize_protocol`` may return a different protocol
#: for the same code and parameters, so a store filled by older code misses
#: instead of serving the older protocols. Revision 2: correction probes the
#: span-weight floor first. Revision 3: correction encodes only the maximal
#: recovery candidates. Revision 4: correction picks its u = 1 measurement
#: and its floor-weight sets by enumeration, so tied optima move to the
#: lexicographically first.
SYNTHESIS_REVISION = 4

#: Revision of the sampled draw stream, part of every :func:`series_key`
#: and stratum :func:`chunk_key`. Bump it whenever the same seed and plan
#: may draw different configurations, so a ledger filled by older code
#: misses instead of serving tallies of the older stream. Revision 2:
#: Floyd k-subset stratum draws, and byte-budget slabs sized by the
#: compiled fault image. Revision 3: DSS allocation rounds of
#: ``max(500, shots // 32)`` shots (budgets up to 16,031 shots draw as in 2).
DRAW_REVISION = 3


def protocol_key(
    code,
    *,
    prep_method: str,
    verification_method: str,
    max_correction_measurements: int,
) -> str:
    """Key of a ``synthesize_protocol`` call: code + every parameter."""
    from ..core.serialize import _FORMAT_VERSION

    return _json_key(
        {
            "artifact": "protocol",
            "format_version": _FORMAT_VERSION,
            "synthesis_revision": SYNTHESIS_REVISION,
            "code": {
                "name": code.name,
                "hx": code.hx.tolist(),
                "hz": code.hz.tolist(),
            },
            "prep_method": prep_method,
            "verification_method": verification_method,
            "max_correction_measurements": max_correction_measurements,
        }
    )


def protocol_digest(protocol) -> str:
    """Canonical digest of a synthesized protocol (its JSON form)."""
    from ..core.serialize import protocol_to_json

    return sha256_hex(protocol_to_json(protocol).encode("utf-8"))


# -- models and derived results -----------------------------------------------


def model_token(model) -> str:
    """Short stable token for a noise model (None = the uniform E1_1)."""
    if model is None:
        return "none"
    try:
        return sha256_hex(
            pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        )
    except Exception:
        # An unpicklable model cannot be named stably; the caller treats
        # this as "don't cache".
        return ""


# -- results ledger -----------------------------------------------------------
#
# Result keys name *what a computation is about*, never how it was run:
# the engine name is deliberately absent (results are engine-invariant —
# the batched and reference engines produce bit-identical tallies), while
# anything that perturbs the random stream (seed, shot plan, slab size)
# is included. Built on :func:`protocol_digest`, so the same key
# comes out of the CLI, the daemon, fork/spawn pool workers, and a fresh
# interpreter (property-tested in ``tests/serve/test_keys.py``).


def result_key(kind: str, protocol_digest_hex: str, model, plan: dict) -> str | None:
    """Generic ledger key: (kind, protocol digest, noise model, plan).

    ``plan`` must be a JSON-serializable description of the seed/shot
    plan. Returns None when the model cannot be tokenized (unpicklable
    models disable ledger dedup for that call).
    """
    token = model_token(model)
    if not token:
        return None
    return _json_key(
        {
            "artifact": "result",
            "kind": kind,
            "protocol": protocol_digest_hex,
            "model": token,
            "plan": plan,
        }
    )


def series_key(
    protocol_digest_hex: str,
    model,
    *,
    shots: int,
    k_max: int,
    seed: int,
    exact_k1: bool = True,
    max_slab: int | None = None,
    direct_check_at: float | None = None,
    direct_shots: int = 0,
) -> str | None:
    """Key of one sampled stratum-tally series (a ``run_series`` point).

    Series come from StratumPlanner chunks, identical for any worker
    count, so the worker count is *not* part of the key. ``max_slab``
    re-seeds sampled strata chunk-by-chunk, so it is part of the plan;
    None means the default slab.
    """
    plan = {
        "shots": int(shots),
        "k_max": int(k_max),
        "seed": int(seed),
        "exact_k1": bool(exact_k1),
        "draw_revision": DRAW_REVISION,
        "max_slab": None if max_slab is None else int(max_slab),
        # A retired byte-budget slab field, always null: it keeps the key
        # bytes pinned by tests/serve/test_keys.py::
        # test_series_key_bytes_are_pinned, so warm ledgers keep hitting.
        "mem_budget": None,
        "direct_check_at": direct_check_at,
        "direct_shots": int(direct_shots) if direct_check_at is not None else 0,
    }
    return result_key("series", protocol_digest_hex, model, plan)


def direct_key(
    protocol_digest_hex: str,
    model,
    *,
    shots: int,
    seed: int,
    max_slab: int | None = None,
) -> str | None:
    """Key of a direct Monte-Carlo tally (``direct_mc``).

    ``model`` is the *effective* model the Bernoulli draws use (i.e.
    after any ``with_p`` rescaling), so the physical rate is inside the
    token and needs no separate plan field. ``max_slab`` sizes the
    Bernoulli chunks, so it is in the plan.
    """
    plan = {
        "shots": int(shots),
        "seed": int(seed),
        "max_slab": None if max_slab is None else int(max_slab),
        # Always null, like the series plan's field: it keeps existing
        # direct keys unchanged.
        "mem_budget": None,
    }
    return result_key("direct", protocol_digest_hex, model, plan)


def chunk_key(protocol_digest_hex: str, model, chunk) -> str | None:
    """Key of one shard-chunk partial (the fine-grained ledger grain).

    Delegates the chunk description to ``repro.sim.shard.chunk_token``;
    chunks that cannot be named (e.g. a BernoulliChunk carrying an
    unpicklable model) return None and are always computed.
    """
    from ..sim.shard import chunk_token

    token = model_token(model)
    if not token:
        return None
    chunk_desc = chunk_token(chunk)
    if chunk_desc is None:
        return None
    return _json_key(
        {
            "artifact": "result",
            "kind": "chunk",
            "protocol": protocol_digest_hex,
            "model": token,
            "plan": chunk_desc,
        }
    )
