"""Streamed intra-code sharding of batch-engine workloads.

Parallelism and bounded memory *within* one code's engine workload:

* :class:`StratumPlanner` splits any index-stratum workload — sampled
  strata of fixed weight ``k``, Bernoulli (direct-MC) batches, the exact
  k = 1 (location, draw) enumeration, the exact k = 2 pair enumeration,
  and explicit lists of checkable row pairs — into **bounded-memory
  chunks**. Chunk *specs* are plain integers (a shot count plus a
  deterministic seed, an index range, or row-id pairs that the executing
  side re-materializes), so a stratum of a billion shots plans in O(1)
  memory: nothing is
  materialized until a worker executes its chunk, and no chunk
  materializes more than ``max_slab`` configurations — except that a
  pair chunk never splits a single location pair, so its true bound is
  ``max(max_slab, largest single pair)`` (at most 15 × 15 = 225 runs
  under the E1_1 draw tables).

* :class:`ShardedEvaluator` executes chunks inline, and
  :func:`resolve_evaluator` is the one seam that picks the backend: that
  inline evaluator, or at ``workers > 1`` a cluster evaluator over that
  many loopback workers (:mod:`repro.sim.cluster`), which rebuild the
  engine from its JSON :func:`engine_payload`. Only the tiny chunk specs
  travel per task. Results depend only on the plan, never on the worker
  count, so the parallel path is *bit-identical* to the inline one.

* :class:`ShardPartial` is the accumulator protocol: each chunk returns
  a small partial (failure counts, residual-weight histograms, heavy
  masks, violating rows, sparse per-pair tallies, probability-weighted
  masses) and :func:`merge_partials` folds them **exactly** — integer
  tallies are order-free, float masses merge in chunk order so the same
  plan always reproduces the same bits.

Determinism contract: sampled chunks are seeded
``SeedSequence((base_entropy, chunk_index))``, so the draw of chunk
``i`` depends only on the base entropy and ``i`` — not on which worker
executes it, how many workers exist, or when it runs. Enumerated chunks
carry no randomness at all. Note that ``max_slab`` is part of the plan:
changing it re-chunks (and therefore re-seeds) sampled strata — a
different, equally valid draw stream — while enumerated workloads are
slab-independent. The cross-worker-count identity is pinned in
``tests/sim/test_shard.py`` and exercised per catalog code in the
integration suite.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.errors import error_reducer
from ..obs import metrics, trace
from ..store import keys as store_keys
from . import sampler as sim_sampler
from .logical import LogicalJudge
from .noise import sample_injections_model_batch
from .noisemodels import (
    SiteUniverse,
    model_to_jsonable,
    tagged_from_jsonable,
    tagged_to_jsonable,
)

__all__ = [
    "StratumChunk",
    "BernoulliChunk",
    "RowChunk",
    "PairChunk",
    "RowPairChunk",
    "ShardPartial",
    "merge_partials",
    "chunk_token",
    "chunk_to_jsonable",
    "chunk_from_jsonable",
    "partial_to_jsonable",
    "partial_from_jsonable",
    "StratumPlanner",
    "ShardedEvaluator",
    "engine_payload",
    "engine_from_payload",
    "resolve_evaluator",
    "shared_executor",
]

_DEFAULT_SLAB = 8192


# -- chunk specs ---------------------------------------------------------------
#
# Every spec is tiny and JSON-able (the cluster wire,
# :func:`chunk_to_jsonable`): it describes how to *re-create* one
# bounded batch, not the batch itself. ``index`` orders the exact merge.


@dataclass(frozen=True)
class StratumChunk:
    """``shots`` fixed-weight-``k`` configurations with a deterministic seed."""

    index: int
    k: int
    shots: int
    entropy: tuple[int, int]  # SeedSequence entropy: (base, chunk index)


@dataclass(frozen=True)
class BernoulliChunk:
    """``shots`` direct-MC configurations under ``model`` (variable weight)."""

    index: int
    shots: int
    entropy: tuple[int, int]
    model: object  # frozen noise-model dataclass (tiny, picklable)


@dataclass(frozen=True)
class RowChunk:
    """Rows ``[lo, hi)`` of the exact k = 1 (location, draw) enumeration.

    ``checkable_only`` restricts the row universe to always-executed
    locations (the FT-certificate fault set); ``threshold`` is the
    residual-weight bound tested by residual tasks (``wt_S > threshold``).
    """

    index: int
    lo: int
    hi: int
    checkable_only: bool = False
    threshold: int = 1


@dataclass(frozen=True)
class PairChunk:
    """Location pairs ``[lo, hi)`` of the exact k = 2 enumeration.

    The executing side expands every (draw × draw) combination of each
    pair in the range; the planner bounds the total expansion by
    ``max_slab`` runs per chunk.
    """

    index: int
    lo: int
    hi: int


@dataclass(frozen=True)
class RowPairChunk:
    """Explicit pairs of ``checkable_only`` row ids (e.g. the sampled fault
    pairs of ``second_order_survey``), each run as one two-fault shot.

    ``pairs`` holds ``(row_a, row_b)`` int tuples; ``threshold`` is the
    residual-weight bound counted as heavy (``wt_S > threshold``).
    """

    index: int
    pairs: tuple
    threshold: int = 2


# -- the accumulator protocol --------------------------------------------------


@dataclass
class ShardPartial:
    """One chunk's contribution to a sharded workload, mergeable exactly.

    Integer tallies (``trials`` / ``failures`` / ``heavy`` and the
    histograms) merge order-free; ``weighted_mass`` merges in chunk order
    (left-to-right float adds), and the row/pair evidence arrays
    concatenate in chunk order so enumeration order survives sharding.
    """

    index: int
    trials: int = 0
    failures: int = 0
    #: Shots whose residual exceeded the chunk's threshold in either plane.
    heavy: int = 0
    #: Probability-weighted failing mass (exact-enumeration strata).
    weighted_mass: float = 0.0
    #: Residual-weight histograms (``x_hist[w]`` = shots with wt_S(x) = w).
    x_hist: np.ndarray | None = None
    z_hist: np.ndarray | None = None
    #: Violating rows (global enumeration ids) and their residual weights.
    rows: np.ndarray | None = None
    row_x: np.ndarray | None = None
    row_z: np.ndarray | None = None
    #: Sparse per-pair failing counts (exact k = 2 enumeration).
    pair_ids: np.ndarray | None = None
    pair_counts: np.ndarray | None = None
    #: Sparse per-pair failing *mass* (exact k = 2 enumeration).
    pair_mass: np.ndarray | None = None


def _merge_hist(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    if a is None:
        return b
    if b is None:
        return a
    size = max(a.size, b.size)
    out = np.zeros(size, dtype=np.int64)
    out[: a.size] += a
    out[: b.size] += b
    return out


def _concat(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    if a is None:
        return b
    if b is None:
        return a
    return np.concatenate([a, b])


def merge_partials(partials: Iterable[ShardPartial]) -> ShardPartial:
    """Fold chunk partials into one, exactly.

    Chunks are merged in ``index`` order regardless of arrival order, so
    a plan evaluated with any worker count (including inline) produces
    bit-identical merged results. Sparse pair tallies are re-aggregated
    with an exact integer scatter-add.
    """
    merged = ShardPartial(index=0)
    for partial in sorted(partials, key=lambda p: p.index):
        merged.trials += partial.trials
        merged.failures += partial.failures
        merged.heavy += partial.heavy
        merged.weighted_mass += partial.weighted_mass
        merged.x_hist = _merge_hist(merged.x_hist, partial.x_hist)
        merged.z_hist = _merge_hist(merged.z_hist, partial.z_hist)
        merged.rows = _concat(merged.rows, partial.rows)
        merged.row_x = _concat(merged.row_x, partial.row_x)
        merged.row_z = _concat(merged.row_z, partial.row_z)
        merged.pair_ids = _concat(merged.pair_ids, partial.pair_ids)
        merged.pair_counts = _concat(merged.pair_counts, partial.pair_counts)
        merged.pair_mass = _concat(merged.pair_mass, partial.pair_mass)
    if merged.pair_ids is not None and merged.pair_ids.size:
        unique, inverse = np.unique(merged.pair_ids, return_inverse=True)
        counts = np.zeros(unique.size, dtype=np.int64)
        np.add.at(counts, inverse, merged.pair_counts)
        if merged.pair_mass is not None:
            mass = np.zeros(unique.size, dtype=np.float64)
            np.add.at(mass, inverse, merged.pair_mass)
            merged.pair_mass = mass
        merged.pair_ids = unique
        merged.pair_counts = counts
    return merged


# -- ledger serialization ------------------------------------------------------
#
# The results ledger (``repro.serve.ledger``) persists chunk partials as
# JSON. Python floats round-trip exactly through JSON (repr-based), so a
# partial restored from its JSON form merges bit-identically with live
# computes; the per-array dtype is recorded so integer/float planes come
# back with the exact types ``merge_partials`` produced them with.

_PARTIAL_ARRAYS = (
    "x_hist",
    "z_hist",
    "rows",
    "row_x",
    "row_z",
    "pair_ids",
    "pair_counts",
    "pair_mass",
)


_CHUNK_TYPES = {
    "stratum": StratumChunk,
    "bernoulli": BernoulliChunk,
    "rows": RowChunk,
    "pairs": PairChunk,
    "row_pairs": RowPairChunk,
}
_CHUNK_NAMES = {cls: name for name, cls in _CHUNK_TYPES.items()}


def chunk_to_jsonable(chunk) -> dict:
    """JSON form of a chunk spec (the cluster wire form): its ``type``
    plus every field, ``index`` and a row-pair chunk's explicit pairs
    included; a Bernoulli chunk's model in its
    :func:`~repro.sim.noisemodels.model_to_jsonable` form."""
    return tagged_to_jsonable(chunk, _CHUNK_NAMES)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def chunk_from_jsonable(data) -> object:
    """Rebuild a chunk spec from :func:`chunk_to_jsonable` output.

    A wrong type, a missing or unknown field, or a value out of range
    (a negative count, a non-boolean flag, an entropy that is not two
    non-negative integers, a pair that is not two row ids, a model
    that is not one of the built-in ones) raises ``ValueError``.
    """
    chunk = tagged_from_jsonable(data, _CHUNK_TYPES)
    for item in fields(chunk):
        value = getattr(chunk, item.name)
        if item.name == "checkable_only":
            valid = type(value) is bool
        elif item.name == "model":
            model_to_jsonable(value)  # ValueError unless a built-in model
            valid = True
        elif item.name in ("entropy", "pairs"):
            rows = (value,) if item.name == "entropy" else value
            valid = isinstance(rows, tuple) and all(
                isinstance(row, tuple) and len(row) == 2 and all(map(_is_count, row))
                for row in rows
            )
        else:
            valid = _is_count(value)
        if not valid:
            raise ValueError(
                f"{data['type']} chunk field {item.name!r} out of range: {value!r}"
            )
    return chunk


def chunk_token(chunk) -> dict | None:
    """Canonical JSON-able description of a chunk spec (for ledger keys).

    The :func:`chunk_to_jsonable` form without ``index``: it orders the
    merge within one plan but does not change the chunk's content (the
    entropy tuple and row/pair ranges already pin the draws), so the
    same chunk reached at a different position in a different plan still
    dedups. A stratum token adds the draw revision, a pair token
    ``"mass": 1`` (pair partials carry ``pair_mass`` for every model;
    the field keeps records written before E1_1 ones did from matching)
    and a Bernoulli token names its model by
    :func:`~repro.store.keys.model_token`. Returns None for chunks that
    cannot be named stably (an unpicklable model) and for row-pair
    chunks, which no ledger stores.
    """
    if isinstance(chunk, RowPairChunk):
        return None
    if isinstance(chunk, BernoulliChunk):
        model = store_keys.model_token(chunk.model)
        if not model:
            return None
        chunk = replace(chunk, model=None)
    token = chunk_to_jsonable(chunk)
    del token["index"]
    if isinstance(chunk, StratumChunk):
        token["draw_revision"] = store_keys.DRAW_REVISION
    elif isinstance(chunk, BernoulliChunk):
        token["model"] = model
    elif isinstance(chunk, PairChunk):
        token["mass"] = 1
    return token


def partial_to_jsonable(partial: ShardPartial) -> dict:
    """Lossless JSON form of a partial (dtype-recorded arrays)."""
    out = {
        "trials": int(partial.trials),
        "failures": int(partial.failures),
        "heavy": int(partial.heavy),
        "weighted_mass": float(partial.weighted_mass),
    }
    for name in _PARTIAL_ARRAYS:
        value = getattr(partial, name)
        if value is None:
            out[name] = None
        else:
            arr = np.asarray(value)
            out[name] = {"dtype": str(arr.dtype), "data": arr.tolist()}
    return out


def partial_from_jsonable(data: dict, index: int = 0) -> ShardPartial:
    """Rebuild a partial from :func:`partial_to_jsonable` output.

    ``index`` is assigned by the caller (the position of the chunk in
    *this* plan), since stored partials are position-independent.
    """
    partial = ShardPartial(
        index=index,
        trials=int(data["trials"]),
        failures=int(data["failures"]),
        heavy=int(data["heavy"]),
        weighted_mass=float(data["weighted_mass"]),
    )
    for name in _PARTIAL_ARRAYS:
        value = data.get(name)
        if value is not None:
            setattr(
                partial,
                name,
                np.asarray(value["data"], dtype=np.dtype(value["dtype"])),
            )
    return partial


# -- planning ------------------------------------------------------------------


class _RowUniverse:
    """Flat row ids over the (site, draw) enumeration of a universe.

    ``included`` are the enumerated site indices and ``counts`` their
    per-site draw counts; row ``r`` maps back to (site, draw-within-site)
    through the offsets.
    """

    def __init__(self, included, counts):
        self.included = np.asarray(included, dtype=np.intp)
        self.offsets = np.concatenate(
            ([0], np.cumsum(np.asarray(counts, dtype=np.int64)))
        ).astype(np.int64)
        self.num_rows = int(self.offsets[-1])

    def materialize(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``[lo, hi)`` as ``(rows, 1)`` index arrays."""
        return self.rows(np.arange(lo, hi, dtype=np.int64)[:, None])

    def rows(self, row_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Global row ids as (site, draw) index arrays of the same shape."""
        slot = np.searchsorted(self.offsets, row_ids, side="right") - 1
        return self.included[slot], (row_ids - self.offsets[slot]).astype(np.intp)


class StratumPlanner:
    """Splits index-stratum workloads into bounded, deterministic chunks.

    Parameters
    ----------
    locations:
        Static location universe (``repro.sim.frame.protocol_locations``).
    max_slab:
        Upper bound on the configurations any single chunk materializes —
        the peak-memory knob (``--max-slab`` on the CLI). Sampled chunks
        hold at most ``max_slab`` shots; pair chunks expand to at most
        ``max_slab`` runs (or one site pair, whichever is larger).
    model:
        Optional noise model (``repro.sim.noisemodels`` seam; ``None`` is
        E1_1), compiled into :attr:`universe`. Exact enumerations run
        over the universe's *sites* (the locations, plus any correlated
        pair sites) with its weights, and sampled strata take its draws;
        the universe alone decides what is uniform.

    All ``plan_*`` methods return lazy iterators of specs: planning a
    billion-shot stratum allocates nothing beyond the next spec.
    """

    def __init__(
        self, locations, *, max_slab: int = _DEFAULT_SLAB, model=None
    ):
        if max_slab < 1:
            raise ValueError("max_slab must be positive")
        self.locations = list(locations)
        self.max_slab = int(max_slab)
        self.model = model
        self.universe = SiteUniverse(self.locations, model)
        self._row_universes: dict[bool, _RowUniverse] = {}

    # -- sampled strata -------------------------------------------------------

    def num_chunks(self, shots: int) -> int:
        """Chunk count of a ``shots``-sized sampled workload."""
        return max(0, -(-shots // self.max_slab))

    def plan_stratum(
        self, k: int, shots: int, entropy: int
    ) -> Iterator[StratumChunk]:
        """Chunk a fixed-``k`` sampled stratum with per-chunk seeds."""
        if k > len(self.locations):
            raise ValueError("more faults than locations")
        index = 0
        remaining = shots
        while remaining > 0:
            step = min(remaining, self.max_slab)
            yield StratumChunk(
                index=index, k=k, shots=step, entropy=(int(entropy), index)
            )
            remaining -= step
            index += 1

    def plan_bernoulli(
        self, model, shots: int, entropy: int
    ) -> Iterator[BernoulliChunk]:
        """Chunk a direct-MC (Bernoulli) workload with per-chunk seeds."""
        index = 0
        remaining = shots
        while remaining > 0:
            step = min(remaining, self.max_slab)
            yield BernoulliChunk(
                index=index,
                shots=step,
                entropy=(int(entropy), index),
                model=model,
            )
            remaining -= step
            index += 1

    # -- exact k = 1 rows -----------------------------------------------------

    def row_universe(self, checkable_only: bool = False) -> _RowUniverse:
        rows = self._row_universes.get(checkable_only)
        if rows is None:
            sites = self.universe.enumeration_sites(checkable_only)
            rows = _RowUniverse(sites, self.universe.site_draw_counts[sites])
            self._row_universes[checkable_only] = rows
        return rows

    def num_rows(self, checkable_only: bool = False) -> int:
        return self.row_universe(checkable_only).num_rows

    def plan_rows(
        self, *, checkable_only: bool = False, threshold: int = 1
    ) -> Iterator[RowChunk]:
        """Chunk the exact (site, draw) enumeration into row ranges."""
        total = self.num_rows(checkable_only)
        for index, lo in enumerate(range(0, total, self.max_slab)):
            yield RowChunk(
                index=index,
                lo=lo,
                hi=min(lo + self.max_slab, total),
                checkable_only=checkable_only,
                threshold=threshold,
            )

    def _site_rows(self, chunk: RowChunk) -> tuple[np.ndarray, np.ndarray]:
        """One row chunk as flat (site, draw-within-site) arrays."""
        sites, draws = self.row_universe(chunk.checkable_only).materialize(
            chunk.lo, chunk.hi
        )
        return sites[:, 0], draws[:, 0]

    def materialize_rows(
        self, chunk: RowChunk
    ) -> tuple[np.ndarray, np.ndarray]:
        """Re-create one row chunk's engine index arrays: ``(rows, 1)``
        (location, draw) arrays, or masked ``(rows, 2)`` arrays when the
        model has correlated pair sites, so a pair site's single row
        injects at both member locations."""
        return self.universe.expand(
            *self.row_universe(chunk.checkable_only).materialize(
                chunk.lo, chunk.hi
            )
        )

    def materialize_rows_with_weights(
        self, chunk: RowChunk
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One row chunk's engine index arrays plus its conditional
        weights, from a single row-universe materialization (the exact
        k = 1 executor path pays the expansion once, not twice)."""
        sites, draws = self._site_rows(chunk)
        loc_idx, draw_idx = self.universe.expand(sites[:, None], draws[:, None])
        return loc_idx, draw_idx, self.universe.row_weights_for(sites, draws)

    def row_info(self, row: int, *, checkable_only: bool = False):
        """(location key, Injection) of one global row id.

        Pair sites return a key tuple and an Injection tuple (one per
        member location); see :meth:`row_case` for the replayable dict
        form.
        """
        location, injection, _ = self.row_case(
            row, checkable_only=checkable_only
        )
        return location, injection

    def row_case(self, row: int, *, checkable_only: bool = False):
        """``(location, injection, injections_dict)`` of one global row.

        The dict is directly replayable by a per-shot runner (the FT
        certificate's evidence path); location/injection are the
        reporting labels — for a pair site, tuples of the two member
        keys/draws.
        """
        universe = self.row_universe(checkable_only)
        slot = int(np.searchsorted(universe.offsets, row, side="right") - 1)
        site = int(universe.included[slot])
        draw = row - int(universe.offsets[slot])
        injection, injections = self.universe.site_injections(site, draw)
        return self.universe.site_key(site), injection, injections

    # -- exact k = 2 pairs ----------------------------------------------------
    #
    # The pair enumeration runs over the universe's enumeration sites
    # (every location, plus active pair sites). Pair ids index the
    # lexicographic (a < b) enumeration of site *positions*, which are the
    # location indices for a model without pair sites.

    @functools.cached_property
    def _pair_units(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(site ids, per-site draw counts, first pair id of each row) of
        the pair enumeration."""
        sites = self.universe.enumeration_sites()
        num = sites.size
        before = np.arange(num, dtype=np.int64)
        starts = before * num - before * (before + 1) // 2
        return sites, self.universe.site_draw_counts[sites], starts

    def num_pairs(self) -> int:
        num = self._pair_units[0].size
        return num * (num - 1) // 2

    def total_pair_runs(self) -> int:
        """Total (draw × draw) runs of the full pair enumeration."""
        return self.universe.total_pair_runs()

    def pair_of(self, pair_id: int) -> tuple[int, int]:
        """Inverse of the lexicographic (a < b) pair enumeration
        (positions in the site list)."""
        starts = self._pair_units[2]
        i = int(np.searchsorted(starts, pair_id, side="right")) - 1
        return i, i + 1 + pair_id - int(starts[i])

    def plan_pairs(self) -> Iterator[PairChunk]:
        """Chunk the pair enumeration, bounding expanded runs per chunk."""
        counts = self._pair_units[1]
        num = counts.size
        index = 0
        lo = 0
        budget = 0
        pair_id = 0
        for i in range(num):
            for j in range(i + 1, num):
                runs = int(counts[i]) * int(counts[j])
                if budget and budget + runs > self.max_slab:
                    yield PairChunk(index=index, lo=lo, hi=pair_id)
                    index += 1
                    lo = pair_id
                    budget = 0
                budget += runs
                pair_id += 1
        if budget:
            yield PairChunk(index=index, lo=lo, hi=pair_id)

    def materialize_pairs(
        self, chunk: PairChunk
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One pair chunk as ``(runs, 2)`` (site, draw) arrays plus each
        run's pair id. The sites are locations unless the model has pair
        sites; ``universe.expand`` gives the engine arrays either way."""
        sites, counts, _ = self._pair_units
        num = counts.size
        i, j = self.pair_of(chunk.lo)
        site_blocks: list[np.ndarray] = []
        draw_blocks: list[np.ndarray] = []
        pair_blocks: list[np.ndarray] = []
        for pair_id in range(chunk.lo, chunk.hi):
            num_i, num_j = int(counts[i]), int(counts[j])
            runs = num_i * num_j
            site = np.empty((runs, 2), dtype=np.intp)
            site[:, 0] = sites[i]
            site[:, 1] = sites[j]
            draw = np.empty((runs, 2), dtype=np.intp)
            draw[:, 0] = np.repeat(np.arange(num_i, dtype=np.intp), num_j)
            draw[:, 1] = np.tile(np.arange(num_j, dtype=np.intp), num_i)
            site_blocks.append(site)
            draw_blocks.append(draw)
            pair_blocks.append(np.full(runs, pair_id, dtype=np.intp))
            j += 1
            if j == num:
                i += 1
                j = i + 1
        return (
            np.concatenate(site_blocks),
            np.concatenate(draw_blocks),
            np.concatenate(pair_blocks),
        )

    def pair_case(self, pair_id: int):
        """Reporting labels of one pair id: ``((key_a, key_b),
        (kind_a, kind_b), (segment_a, segment_b))``."""
        a, b = self.pair_of(pair_id)
        sites = self._pair_units[0]
        sa, sb = int(sites[a]), int(sites[b])
        universe = self.universe
        return (
            (universe.site_key(sa), universe.site_key(sb)),
            (universe.site_kind(sa), universe.site_kind(sb)),
            (universe.site_segment(sa), universe.site_segment(sb)),
        )

    # -- explicit row pairs ---------------------------------------------------

    def plan_row_pairs(
        self, pairs: Sequence[tuple[int, int]], *, threshold: int = 2
    ) -> Iterator[RowPairChunk]:
        """Chunk explicit pairs of ``checkable_only`` row ids."""
        for index, lo in enumerate(range(0, len(pairs), self.max_slab)):
            yield RowPairChunk(
                index=index,
                pairs=tuple(pairs[lo : lo + self.max_slab]),
                threshold=threshold,
            )


# -- chunk execution -----------------------------------------------------------


def _run_chunk(ctx: ShardedEvaluator, chunk) -> ShardPartial:
    """Execute one chunk spec on ``ctx``'s engine (inline, or in a
    cluster worker)."""
    engine = ctx.engine
    planner = ctx.planner
    if isinstance(chunk, (StratumChunk, BernoulliChunk)):
        rng = np.random.default_rng(np.random.SeedSequence(chunk.entropy))
        if isinstance(chunk, StratumChunk):
            # The model travels with the worker context, not the chunk.
            loc_idx, draw_idx = planner.universe.sample_stratum(
                chunk.k, chunk.shots, rng
            )
        elif chunk.model == planner.model:
            # Same model as the worker context: reuse its compiled
            # universe (rate vectors, pair adjacency, draw CDFs) instead
            # of rebuilding one per chunk; the draw stream is identical.
            loc_idx, draw_idx = planner.universe.sample_bernoulli(
                chunk.shots, rng
            )
        else:
            loc_idx, draw_idx = sample_injections_model_batch(
                engine.locations, chunk.model, chunk.shots, rng
            )
        verdicts = np.asarray(
            engine.failures_indexed(loc_idx, draw_idx), dtype=bool
        )
        return ShardPartial(
            index=chunk.index,
            trials=chunk.shots,
            failures=int(verdicts.sum()),
        )
    if isinstance(chunk, RowChunk):
        if chunk.checkable_only:
            loc_idx, draw_idx = planner.materialize_rows(chunk)
        else:
            # Exact-k1 mode needs the weights too — one materialization
            # covers both instead of expanding the row range twice.
            loc_idx, draw_idx, row_weights = (
                planner.materialize_rows_with_weights(chunk)
            )
        if chunk.checkable_only:
            # Certificate mode: residual weights + violation evidence.
            x_reducer, z_reducer = ctx.reducers
            x_weights, z_weights = engine.residual_weights_indexed(
                loc_idx, draw_idx, x_reducer, z_reducer
            )
            bad = (x_weights > chunk.threshold) | (
                z_weights > chunk.threshold
            )
            return ShardPartial(
                index=chunk.index,
                trials=int(loc_idx.shape[0]),
                heavy=int(bad.sum()),
                x_hist=np.bincount(x_weights),
                z_hist=np.bincount(z_weights),
                rows=chunk.lo + np.nonzero(bad)[0],
                row_x=x_weights[bad],
                row_z=z_weights[bad],
            )
        # Exact k = 1 stratum mode: probability-weighted failing mass.
        verdicts = np.asarray(
            engine.failures_indexed(loc_idx, draw_idx), dtype=bool
        )
        weights = row_weights
        return ShardPartial(
            index=chunk.index,
            trials=int(loc_idx.shape[0]),
            failures=int(verdicts.sum()),
            weighted_mass=float(weights[verdicts].sum()),
        )
    if isinstance(chunk, PairChunk):
        sites, draws, pair_ids = planner.materialize_pairs(chunk)
        loc_idx, draw_idx = planner.universe.expand(sites, draws)
        verdicts = np.asarray(
            engine.failures_indexed(loc_idx, draw_idx), dtype=bool
        )
        # Runs come out grouped by ascending pair id, so each distinct
        # failing pair is one contiguous block.
        unique, counts = np.unique(pair_ids[verdicts], return_counts=True)
        pair_mass, total = planner.universe.pair_masses(
            sites[verdicts], draws[verdicts], counts
        )
        return ShardPartial(
            index=chunk.index,
            trials=int(loc_idx.shape[0]),
            failures=int(verdicts.sum()),
            weighted_mass=total,
            pair_ids=unique.astype(np.int64),
            pair_counts=counts.astype(np.int64),
            pair_mass=pair_mass,
        )
    if isinstance(chunk, RowPairChunk):
        loc_idx, draw_idx = planner.row_universe(True).rows(
            np.asarray(chunk.pairs, dtype=np.int64).reshape(-1, 2)
        )
        x_reducer, z_reducer = ctx.reducers
        x_weights, z_weights = engine.residual_weights_indexed(
            loc_idx, draw_idx, x_reducer, z_reducer
        )
        bad = (x_weights > chunk.threshold) | (z_weights > chunk.threshold)
        # Only the heavy count crosses the wire: the survey (the one
        # RowPairChunk consumer) reads nothing else from these partials.
        return ShardPartial(
            index=chunk.index,
            trials=len(chunk.pairs),
            heavy=int(bad.sum()),
        )
    raise TypeError(f"unknown chunk spec {chunk!r}")


def _observed_run_chunk(ctx: ShardedEvaluator, chunk) -> ShardPartial:
    """:func:`_run_chunk` under observability: a ``shard.chunk`` span
    (no-op unless a tracer is active) plus the per-chunk latency
    histogram. Observation only: the compute, its seeds, and the partial
    are untouched, so traced runs stay bit-identical to untraced ones."""
    start = time.perf_counter()
    with trace.span(
        "shard.chunk", kind=type(chunk).__name__, index=chunk.index
    ):
        partial = _run_chunk(ctx, chunk)
    registry = metrics.get_registry()
    registry.counter("shard.chunks").inc()
    registry.histogram("shard.chunk_seconds").observe(
        time.perf_counter() - start
    )
    return partial


def _plus_judge(code):
    from ..synth.plus import PlusStateJudge

    return PlusStateJudge(code.dual())


#: The judges an engine payload can name, each rebuilt from the
#: protocol's code (a plus-state protocol's code is the dual frame).
_JUDGES = {
    "lookup": LogicalJudge,
    "plus": _plus_judge,
    "matching": LogicalJudge.with_matching,
}


def _judge_name(judge, code) -> str:
    """The registry name whose rebuild from ``code`` is exactly ``judge``:
    the same classes, decoder checks and logical operators."""
    for name, build in _JUDGES.items():
        try:
            rebuilt = build(code)
        except ValueError:  # a code the matching decoder cannot match
            continue
        if (
            (type(rebuilt), type(rebuilt.x_decoder))
            == (type(judge), type(judge.x_decoder))
            and np.array_equal(rebuilt.x_decoder.checks, judge.x_decoder.checks)
            and np.array_equal(rebuilt.logical_z, judge.logical_z)
        ):
            return name
    raise ValueError(
        f"cannot ship a {type(judge).__name__} over "
        f"{type(judge.x_decoder).__name__} to another process: only the "
        f"{sorted(_JUDGES)} judges of the protocol's own code can be "
        "rebuilt from a payload, so it cannot run on workers; run it "
        "with workers=1"
    )


def engine_payload(engine) -> str:
    """Canonical JSON text that rebuilds ``engine`` elsewhere: the
    engine name, the judge's registry name and the protocol's
    :func:`~repro.core.serialize.protocol_to_json` text.

    The one payload that crosses a process or machine boundary: every
    cluster worker (loopback ones included) rebuilds its engine with
    :func:`engine_from_payload`, and the cluster session digest is the
    SHA-256 of these bytes. Only the registered engines and the judges
    the registry rebuilds exactly qualify — a custom engine or judge
    refuses loudly here instead of being silently replaced by a default.
    """
    from ..core.serialize import protocol_to_json

    name = getattr(engine, "name", None)
    if sim_sampler._ENGINES.get(name) is not type(engine):
        raise ValueError(
            f"cannot ship a {type(engine).__name__} to another process: "
            f"only the registered engines {sorted(sim_sampler._ENGINES)} can be "
            "rebuilt from a payload, so it cannot run on workers; "
            "run it with workers=1"
        )
    payload = {
        "engine": name,
        "judge": _judge_name(engine.judge, engine.protocol.code),
        "protocol": protocol_to_json(engine.protocol),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def engine_from_payload(payload: str):
    """Compile the engine an :func:`engine_payload` text describes.

    One fault-free run follows the compile, so a payload whose circuits
    do not fit its wires fails here rather than on its first chunk.
    """
    from ..core.serialize import protocol_from_json

    data = json.loads(payload)
    protocol = protocol_from_json(data["protocol"])
    judge = _JUDGES[data["judge"]](protocol.code)
    engine = sim_sampler.make_sampler(protocol, engine=data["engine"], judge=judge)
    no_faults = np.zeros((1, 0), dtype=np.intp)
    engine.failures_indexed(no_faults, no_faults)
    return engine


class ShardedEvaluator:
    """Executes planner chunks inline on an engine.

    Parameters
    ----------
    engine:
        A built execution engine (:func:`repro.sim.sampler.make_sampler`).
    max_slab:
        Peak configurations per chunk (see :class:`StratumPlanner`).

    It runs the same chunk plan the cluster backend distributes, so
    results are bit-identical to any worker set;
    :func:`resolve_evaluator` picks the backend::

        with ShardedEvaluator(engine, max_slab=4096) as ev:
            merged = merge_partials(ev.map(ev.planner.plan_stratum(3, 10**6, 7)))
    """

    def __init__(self, engine, *, max_slab: int = _DEFAULT_SLAB, model=None):
        self.engine = engine
        self.max_slab = int(max_slab)
        self.planner = StratumPlanner(
            engine.locations, max_slab=max_slab, model=model
        )

    @functools.cached_property
    def reducers(self):
        """The code's (X, Z) error reducers, built on first use."""
        code = self.engine.protocol.code
        return error_reducer(code, "X"), error_reducer(code, "Z")

    def close(self) -> None:
        """Nothing to release inline; kept so every evaluator closes alike."""

    def __enter__(self) -> "ShardedEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------------

    def map(self, chunks: Iterable) -> Iterator[ShardPartial]:
        """Execute chunk specs, yielding partials in chunk order.

        Streams: chunks are materialized one slab at a time, and
        consumers may stop iterating early (e.g. a violation cap) — the
        remaining chunks are never executed.
        """
        tracer = trace.current_tracer()
        if tracer is not None:
            # Materialize the (tiny) spec list under a plan span so the
            # trace shows planning as its own phase; the chunk contents
            # are identical either way.
            with tracer.span("plan", backend="shard") as planning:
                chunks = list(chunks)
                planning.set(chunks=len(chunks))
        for chunk in chunks:
            yield _observed_run_chunk(self, chunk)

    def reduce(self, chunks: Iterable) -> ShardPartial:
        """:meth:`map` + :func:`merge_partials` in one call."""
        partials = list(self.map(chunks))
        with trace.span("merge", partials=len(partials)):
            return merge_partials(partials)


# -- the executor seam ---------------------------------------------------------


def resolve_evaluator(
    engine,
    *,
    workers: int = 1,
    max_slab: int | None = None,
    executor=None,
    model=None,
):
    """Build the chunk executor every routed consumer evaluates through.

    The single seam behind ``SubsetSampler``, ``direct_mc``,
    ``check_fault_tolerance``, ``second_order_survey``,
    ``two_fault_error_budget``, ``figure4``, and ``table1 --verify-ft``:

    * ``executor`` — a callable ``(engine, max_slab, model) -> evaluator`` (e.g.
      :class:`repro.sim.cluster.ClusterExecutorFactory` behind the CLI's
      ``--cluster`` flag). When given, it supplies the backend and
      ``workers`` is ignored.
    * ``workers > 1`` — a :class:`~repro.sim.cluster.ClusterEvaluator`
      over ``workers`` loopback cluster workers started for it
      (:class:`~repro.sim.cluster.LocalWorkers`); closing it stops them.
    * otherwise an inline :class:`ShardedEvaluator`.

    ``max_slab`` bounds every chunk (``None`` = the module default,
    8192 configurations). Every evaluator returned here supports
    ``map``/``reduce``/``close`` and the context manager protocol, and
    executes the *same* chunk plans — results are bit-identical across
    backends, worker counts, and worker sets.

    ``model`` threads a noise model (``repro.sim.noisemodels``) into the
    planner and — through the cluster handshake — every worker, so every
    model's workloads shard and distribute the same way.
    """
    if max_slab is None:
        max_slab = _DEFAULT_SLAB
    if executor is not None:
        return executor(engine, int(max_slab), model)
    if workers > 1:
        from .cluster import local_evaluator

        return local_evaluator(engine, workers, int(max_slab), model)
    if workers < 1:
        raise ValueError("workers must be positive")
    return ShardedEvaluator(engine, max_slab=int(max_slab), model=model)


@contextlib.contextmanager
def shared_executor(workers: int = 1, executor=None):
    """The ``executor=`` that several evaluations share.

    ``executor`` itself when given; else, at ``workers > 1``, one
    :class:`~repro.sim.cluster.LocalWorkers` set, stopped on exit, so a
    caller that evaluates many times launches workers once; else
    ``None`` (inline). Pass the result as ``executor=`` beside the same
    ``workers`` to every :func:`resolve_evaluator` consumer. The cluster
    module (and its socket/TLS imports) loads only for a launch.
    """
    if executor is not None or workers <= 1:
        yield executor
        return
    from .cluster import LocalWorkers

    with LocalWorkers(workers) as launched:
        yield launched
