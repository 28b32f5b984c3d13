"""(Dynamic) subset sampling of logical error rates (paper Sec. V.B).

The paper estimates ``p_L(p)`` with Dynamic Subset Sampling [14] via the
Qsample package [37]. Under the one-parameter ``E1_1`` model all ``N``
fault locations fail i.i.d. with probability ``p``, so the number of
failing locations ``K`` is Binomial(N, p) and — crucially — *conditioned on
K = k the fault configuration does not depend on p*. The logical error
rate therefore decomposes exactly as::

    p_L(p) = sum_k  w_k(p) * f_k,      w_k(p) = C(N, k) p^k (1-p)^(N-k)

where ``f_k`` is the p-independent conditional failure probability given
exactly ``k`` faults. Estimating each ``f_k`` once by Monte-Carlo and
re-weighting analytically reproduces the whole ``p_L`` curve from a single
sampling pass — the same economy Qsample gets from sampling at ``p_max``
and extrapolating downward.

The "dynamic" part of DSS is the sample allocation across strata: after
a seed round, each ``max(500, shots // 32)``-shot round goes to the
stratum whose uncertainty contributes most to ``Var[p_L(p_ref)]``
(``DRAW_REVISION`` 3; budgets up to 16,031 shots draw as in revision 2).

Strata above ``k_max`` are not sampled; their total weight bounds the
truncation error, reported as ``tail`` and folded into the upper
confidence bound (``f_k <= 1``). Stratum ``k = 0`` is deterministic and
evaluated once; stratum ``k = 1`` can optionally be *enumerated exactly*
(every location and every fault draw, probability-weighted), which pins
the leading coefficient of FT circuits (``f_1 = 0``) with zero variance.

The sampler evaluates every stratum on a batch engine
(``repro.sim.sampler``; :meth:`SubsetSampler.for_protocol` builds one,
default the bit-packed ``"batched"`` engine, and ``judge=`` swaps the
failure criterion). Each stratum has one draw stream: chunk plans from
:class:`repro.sim.shard.StratumPlanner` (bounded ``max_slab`` memory,
deterministic per-chunk seeds), executed inline at ``workers=1`` or
across loopback or remote cluster workers with results identical for
every worker count and backend. The independent reference for the planner's
exact enumerations is a per-shot sum in the test suite:
``SiteUniverse.iter_rows`` / ``iter_pair_runs`` judged one run at a time
by :class:`repro.sim.sampler.ReferenceSampler`. See ``docs/sampler.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..obs.trace import span as _obs_span
from . import sampler as sim_sampler
from .noisemodels import SiteUniverse
from .shard import merge_partials, resolve_evaluator

__all__ = [
    "SubsetEstimate",
    "StratumStats",
    "SubsetSampler",
    "DirectEstimate",
    "direct_mc",
    "wilson_interval",
]


def wilson_interval(
    failures: int, trials: int, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = failures / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class StratumStats:
    """Monte-Carlo tallies for one subset stratum."""

    k: int
    trials: int = 0
    failures: int = 0
    exact: bool = False

    @property
    def rate(self) -> float:
        if self.trials == 0:
            return 0.0
        return self.failures / self.trials

    def interval(self, z: float = 1.96) -> tuple[float, float]:
        if self.exact:
            return self.rate, self.rate
        return wilson_interval(self.failures, self.trials, z)

    def std_error(self) -> float:
        if self.exact or self.trials == 0:
            return 0.0 if self.exact else 0.5
        phat = self.rate
        # Never report exactly zero for a sampled stratum: use the
        # rule-of-three style floor so allocation keeps probing it.
        return max(
            math.sqrt(phat * (1 - phat) / self.trials), 1.0 / self.trials
        )


@dataclass
class SubsetEstimate:
    """``p_L`` at one physical rate with confidence and truncation bounds."""

    p: float
    mean: float
    lower: float
    upper: float
    tail: float

    def __str__(self) -> str:
        return (
            f"p={self.p:.3g}: p_L={self.mean:.3g} "
            f"[{self.lower:.3g}, {self.upper:.3g}] (tail {self.tail:.2g})"
        )


@dataclass
class DirectEstimate:
    """``p_L`` from direct (Bernoulli) Monte-Carlo at one fixed rate."""

    p: float
    trials: int
    failures: int

    @property
    def rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0

    def interval(self, z: float = 1.96) -> tuple[float, float]:
        return wilson_interval(self.failures, self.trials, z)

    def __str__(self) -> str:
        lo, hi = self.interval()
        return (
            f"p={self.p:.3g}: p_L={self.rate:.3g} "
            f"[{lo:.3g}, {hi:.3g}] (direct, {self.trials} shots)"
        )


def direct_mc(
    engine,
    model,
    shots: int,
    *,
    rng: np.random.Generator | None = None,
    workers: int = 1,
    max_slab: int | None = None,
    executor=None,
    evaluator=None,
) -> DirectEstimate:
    """Direct Monte-Carlo at a fixed physical rate on a batch engine.

    The classical estimator the subset decomposition replaces: every
    location of every shot fails independently at its ``model`` rate,
    and the whole batch executes on the engine's packed path. Useful as
    an end-to-end consistency check of the subset estimator (the two
    must agree within statistics at the same ``p``) and for noise models
    whose strata are not p-independent.

    The workload is planned (``repro.sim.shard``) into at most
    ``max_slab``-shot Bernoulli chunks (``None`` = 8192) seeded from one
    draw of ``rng``, and executed inline (``workers=1``) or on loopback
    workers — identical tallies for any worker count. ``executor``
    swaps the backend behind the same chunk plan (e.g.
    ``repro.sim.cluster`` TCP workers — bit-identical tallies again).
    ``evaluator`` reuses
    an already-open chunk executor (e.g. a sampler's live cluster
    session — one handshake/compile per worker instead of one per call)
    without closing it; the caller keeps ownership. The plan depends
    only on the evaluator's ``max_slab`` and the rng draw, so a reused
    session returns the same tallies a fresh one would.
    """
    rng = rng if rng is not None else np.random.default_rng()
    entropy = int(rng.integers(0, 2**63))
    owned = evaluator is None
    if owned:
        evaluator = resolve_evaluator(
            engine,
            workers=workers,
            max_slab=max_slab,
            executor=executor,
            model=model,
        )
    try:
        with _obs_span("subset.direct_mc", shots=shots):
            merged = merge_partials(
                evaluator.map(
                    evaluator.planner.plan_bernoulli(model, shots, entropy)
                )
            )
    finally:
        if owned:
            evaluator.close()
    return DirectEstimate(
        p=float(getattr(model, "p", math.nan)),
        trials=shots,
        failures=merged.failures,
    )


class SubsetSampler:
    """Stratified fault-subset sampler over an engine's location universe.

    Parameters
    ----------
    engine:
        Batch execution engine (``repro.sim.sampler``): an object with a
        ``locations`` list (:func:`repro.sim.frame.protocol_locations`)
        and ``failures_indexed(loc_idx, draw_idx) -> bool array``. Every
        stratum is evaluated through the stratum planner — use
        :meth:`for_protocol` to build one. Engines built from the same
        protocol produce identical tallies for the same seed, whether
        batched or reference (the chunk *generation* stream is shared).
    k_max:
        Largest stratum to sample. ``p_L`` estimates carry an explicit
        truncation bound for everything above it.
    rng:
        Numpy generator (seeded for reproducibility).
    workers:
        Loopback cluster workers for the chunk plans (``1``, the
        default, runs them inline). Results are identical for every
        worker count.
    max_slab:
        Peak configurations materialized per chunk (``None`` = 8192).
    executor:
        Execution backend factory ``(engine, max_slab, model) -> evaluator``
        (the ``repro.sim.shard.resolve_evaluator`` seam) — e.g.
        :class:`repro.sim.cluster.ClusterExecutorFactory` to evaluate
        chunks on remote TCP workers. Results stay bit-identical to
        ``workers=1`` inline for any worker set.
    model:
        Optional noise model (the ``repro.sim.noisemodels`` seam), compiled
        into a :class:`~repro.sim.noisemodels.SiteUniverse`; ``None`` is
        E1_1. The universe supplies the stratum weights, the sampled
        strata and the exact k = 1 / k = 2 weights: E1_1's binomial
        weights, Floyd draws and uniform rows for a uniform model;
        Poisson-binomial weights over the per-site rates,
        conditional-Bernoulli site subsets with the model's draw weights,
        and per-(site, draw) conditional probabilities otherwise.
        ``estimate(p)`` rescales a non-uniform model's rates by
        ``p / model.p`` (exact at the model's own rates; see
        ``docs/noise.md`` for the sweep semantics).
    ledger:
        Results-ledger selection for chunk-partial reuse: ``None`` =
        ambient (``REPRO_LEDGER``), ``False`` = off, or a
        :class:`repro.serve.ledger.ResultsLedger`.
    """

    def __init__(
        self,
        engine,
        *,
        k_max: int = 3,
        rng: np.random.Generator | None = None,
        workers: int = 1,
        max_slab: int | None = None,
        executor=None,
        model=None,
        ledger=None,
    ):
        if k_max < 1:
            raise ValueError("k_max must be at least 1")
        self._bind_model(engine.locations, model)
        self.k_max = min(k_max, int(self._universe.active_sites.size))
        self.rng = rng if rng is not None else np.random.default_rng()
        self.engine = engine
        self.workers = workers
        self.executor = executor
        self.max_slab = max_slab
        self.ledger = ledger
        self._evaluator = None
        self.strata: dict[int, StratumStats] = {
            k: StratumStats(k) for k in range(self.k_max + 1)
        }
        # Stratum 0 is deterministic: the fault-free run, evaluated once.
        zero = self.strata[0]
        zero.exact = True
        zero.trials = 1
        no_fault = np.zeros((1, 0), dtype=np.intp)
        zero.failures = int(bool(engine.failures_indexed(no_fault, no_fault)[0]))

    @classmethod
    def for_protocol(
        cls,
        protocol,
        *,
        engine: str = "batched",
        judge=None,
        k_max: int = 3,
        rng: np.random.Generator | None = None,
        workers: int = 1,
        max_slab: int | None = None,
        executor=None,
        model=None,
        ledger=None,
    ) -> "SubsetSampler":
        """Build a sampler over a protocol's full location universe.

        ``engine="batched"`` runs strata through the bit-packed engine
        (:class:`repro.sim.sampler.BatchedSampler`); ``"reference"`` keeps
        the per-shot oracle behind the identical interface. ``workers`` /
        ``max_slab`` size the chunk pool and slabs; ``executor`` selects
        the execution backend; ``model`` selects the noise model (see
        class docs).
        """
        return cls(
            sim_sampler.make_sampler(protocol, engine=engine, judge=judge),
            k_max=k_max,
            rng=rng,
            workers=workers,
            max_slab=max_slab,
            executor=executor,
            model=model,
            ledger=ledger,
        )

    @classmethod
    def from_tallies(
        cls,
        locations,
        strata,
        *,
        model=None,
        k_max: int | None = None,
    ) -> "SubsetSampler":
        """Estimator-only replay sampler over recorded stratum tallies.

        Rebuilds the :meth:`estimate`/:meth:`curve` arithmetic from
        previously recorded tallies — no engine, no RNG — so a ledger hit (``repro.serve``, ``run_series``) replays
        sweep points through the *same* estimator code path a cold run
        uses, which is what makes replay bit-identical. ``strata`` maps
        ``k`` (int or str — JSON round-trips stringify keys) to a
        :class:`StratumStats`, a ``{"trials", "failures", "exact"}``
        dict, or a ``(trials, failures, exact)`` tuple.
        """
        self = object.__new__(cls)
        self._bind_model(locations, model)
        self.rng = None
        self.engine = None
        self.workers = 1
        self.executor = None
        self.max_slab = None
        self.ledger = False
        self._evaluator = None
        rebuilt: dict[int, StratumStats] = {}
        for k, spec in strata.items():
            k = int(k)
            if isinstance(spec, StratumStats):
                stats = StratumStats(k, spec.trials, spec.failures, spec.exact)
            elif isinstance(spec, dict):
                stats = StratumStats(
                    k,
                    int(spec["trials"]),
                    int(spec["failures"]),
                    bool(spec["exact"]),
                )
            else:
                trials, failures, exact = spec
                stats = StratumStats(k, int(trials), int(failures), bool(exact))
            rebuilt[k] = stats
        self.strata = dict(sorted(rebuilt.items()))
        self.k_max = int(k_max) if k_max is not None else max(self.strata)
        return self

    def _bind_model(self, locations, model) -> None:
        """Set the location universe, the noise model and its site
        universe."""
        self.locations = list(locations)
        self.model = model
        self._universe = SiteUniverse(self.locations, model)

    # -- chunk execution -------------------------------------------------------

    @property
    def evaluator(self):
        """Lazy chunk executor over the engine (the ``executor=`` seam).

        A :class:`repro.sim.shard.ShardedEvaluator` by default, or
        whatever backend the ``executor`` factory builds (e.g. a
        :class:`repro.sim.cluster.ClusterEvaluator`). Created on first
        engine call and kept alive (one set of workers and worker
        connections per sampler, not per stratum batch); release with
        :meth:`close` or by using the sampler as a context manager.
        """
        if self._evaluator is None:
            self._evaluator = resolve_evaluator(
                self.engine,
                workers=self.workers,
                max_slab=self.max_slab,
                executor=self.executor,
                model=self.model,
            )
            # Chunk-partial reuse: wrap the backend so ledger-covered
            # chunks are subtracted from every plan before dispatch.
            # Pass-through (and bit-identical) when the ledger is off,
            # which also skips importing the ledger.
            if self.ledger is not False:
                from ..serve.ledger import LedgerEvaluator, resolve_ledger

                ledger = resolve_ledger(self.ledger)
                if ledger is not None:
                    self._evaluator = LedgerEvaluator(
                        self._evaluator, ledger, model=self.model
                    )
        return self._evaluator

    def close(self) -> None:
        """Close the chunk executor and any workers it started (idempotent)."""
        if self._evaluator is not None:
            self._evaluator.close()
            self._evaluator = None

    def __enter__(self) -> "SubsetSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- sampling ------------------------------------------------------------

    def _exact(self, k: int, mass: float) -> None:
        """Pin stratum ``k`` to an exactly enumerated failing mass."""
        stats = self.strata[k]
        stats.exact = True
        # Store as a high-resolution fraction for reporting.
        stats.trials = 10**9
        stats.failures = round(mass * stats.trials)

    def enumerate_k1_exact(self) -> None:
        """Replace stratum-1 sampling with exact weighted enumeration.

        Conditioned on exactly one failing location, the location is
        uniform over the universe and the fault draw is uniform within the
        location's kind, so ``f_1`` is a finite probability-weighted sum.

        The enumeration routes through the stratum planner
        (``repro.sim.shard``) in ``max_slab`` row chunks — streamed, and
        fanned across workers when ``workers > 1``, with the same
        mass for any worker count. Under a heterogeneous model the rows
        are the model's active *sites* (correlated pair sites included,
        firing as one event) and each (site, draw) row carries its own
        conditional probability.
        """
        with _obs_span("subset.enumerate_k1"):
            merged = self.evaluator.reduce(
                self.evaluator.planner.plan_rows(checkable_only=False)
            )
        self._exact(1, merged.weighted_mass)

    def enumerate_k2_exact(self, *, max_runs: int | None = 2_000_000) -> None:
        """Replace stratum-2 sampling with exact weighted enumeration.

        Conditioned on exactly two failing locations the pair is uniform
        over the ``C(N, 2)`` location pairs and the two draws are uniform
        within each location's kind, so ``f_2`` is a finite sum — the
        *exact* leading coefficient of ``p_L(p)`` for an FT protocol.
        Under a heterogeneous model the pairs are site pairs, each run
        weighted by its own conditional probability.

        Cost is ``sum over pairs of d_i * d_j`` protocol runs (~85k for
        the Steane protocol, minutes for the largest codes); ``max_runs``
        guards against accidental huge enumerations. The runs route
        through the stratum planner in ``max_slab``-run chunks (streamed,
        across workers when ``workers > 1``, worker-count independent).
        """
        if self.k_max < 2:
            raise ValueError("k_max < 2: stratum 2 is not tracked")
        planner = self.evaluator.planner
        total_runs = planner.total_pair_runs()
        if max_runs is not None and total_runs > max_runs:
            raise ValueError(
                f"exact k=2 enumeration needs {total_runs} runs "
                f"(> max_runs={max_runs})"
            )
        with _obs_span("subset.enumerate_k2", runs=total_runs):
            merged = self.evaluator.reduce(planner.plan_pairs())
        self._exact(2, merged.weighted_mass)

    def sample_stratum(self, k: int, shots: int) -> StratumStats:
        """Run ``shots`` Monte-Carlo trials in stratum ``k``.

        The request is planned into ``max_slab`` chunks seeded from one
        draw of the sampler rng and executed by the chunk evaluator —
        tallies identical for any worker count.
        """
        stats = self.strata[k]
        if stats.exact:
            return stats
        # The entropy draw happens before the span opens — tracing must
        # sit strictly outside the seed path (spans never consume RNG
        # state), and keeping the order explicit makes that easy to audit.
        entropy = int(self.rng.integers(0, 2**63))
        with _obs_span("subset.stratum", k=k, shots=shots):
            merged = self.evaluator.reduce(
                self.evaluator.planner.plan_stratum(k, shots, entropy)
            )
        stats.trials += merged.trials
        stats.failures += merged.failures
        return stats

    def sample(self, shots: int, *, p_ref: float | None = None) -> None:
        """Distribute ``shots`` trials over strata ``1..k_max``.

        Dynamic subset sampling (DSS), spending exactly ``shots``: a seed
        round of ``min(step, max(1, shots // (4 * strata)))`` shots per
        stratum (within the budget), then ~32 planned engine workloads of
        ``step = max(500, shots // 32)`` shots, each to the stratum
        contributing most to ``Var[p_L(p_ref)]`` (``DRAW_REVISION`` 3; up
        to 16,031 shots the step is 500 and the stream that of revision
        2).

        ``p_ref`` defaults to the universe's
        :meth:`~repro.sim.noisemodels.SiteUniverse.reference_strength`:
        the paper's ``p_max = 0.1`` for uniform models, the model's own
        strength otherwise.
        """
        if p_ref is None:
            p_ref = self._universe.reference_strength()
        sampled = [k for k in range(1, self.k_max + 1) if not self.strata[k].exact]
        if not sampled:
            return
        step = max(500, shots // 32)
        seed = min(step, max(1, shots // (4 * len(sampled))))
        # Seed the strata so std errors are defined, within the budget.
        seeded = sampled[: shots // seed]
        for k in seeded:
            self.sample_stratum(k, seed)
        spent = seed * len(seeded)
        head_ref = self._universe.stratum_weights(self.k_max, p_ref)
        while spent < shots:
            target = max(
                sampled, key=lambda k: head_ref[k] * self.strata[k].std_error()
            )
            self.sample_stratum(target, min(step, shots - spent))
            spent += step

    # -- estimation ------------------------------------------------------------

    def estimate(self, p: float, *, z: float = 1.96) -> SubsetEstimate:
        """``p_L(p)`` with Wilson confidence and truncation bounds.

        Under a heterogeneous model the stratum weights are the exact
        Poisson-binomial probabilities of the site rates rescaled to
        ``p``; the conditional rates ``f_k`` are the ones sampled at the
        model's own strength (exact for rate-homogeneous models like
        ``BiasedPauliModel``; second-order accurate across the sweep for
        rate-heterogeneous ones — see ``docs/noise.md``).
        """
        head = self._universe.stratum_weights(self.k_max, p)
        mean = lower = upper = 0.0
        for k, stats in self.strata.items():
            weight = float(head[k])
            mean += weight * stats.rate
            lo, hi = stats.interval(z)
            lower += weight * lo
            upper += weight * hi
        tail = self._universe.tail_weight(self.k_max, p)
        return SubsetEstimate(
            p=p,
            mean=mean,
            lower=lower,
            upper=min(1.0, upper + tail),
            tail=tail,
        )

    @property
    def p_ceiling(self) -> float:
        """Supremum of strengths the model can be rescaled to (exclusive;
        ``inf`` for a uniform model). ``estimate(p)`` raises at or above
        it; sweep consumers (``figure4``, the CLI) skip those points
        instead."""
        return self._universe.max_strength()

    def curve(self, p_values, *, z: float = 1.96) -> list[SubsetEstimate]:
        """Estimates across a sweep of physical error rates."""
        return [self.estimate(float(p), z=z) for p in p_values]

    def total_trials(self) -> int:
        return sum(s.trials for s in self.strata.values() if not s.exact)
