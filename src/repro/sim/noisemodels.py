"""Heterogeneous noise models on the batched path (beyond E1_1).

``sim.noise`` hard-wires the paper's one-parameter depolarizing model:
every location fails at a uniform-per-kind rate and a failing location
draws *uniformly* from its Pauli table. Real devices are biased
(Z-dominated), inhomogeneous (per-location rates), and correlated
(crosstalk pairs). This module generalizes the engine stack from
(uniform rate, uniform draw) to (per-location rate vector, per-location
draw *distribution*) without touching the execution engines: everything
still compiles down to the masked ``(loc_idx, draw_idx)`` index arrays
that ``failures_indexed`` already consumes.

The noise-model seam
--------------------

A noise model is any object with

* ``p`` — the base strength, and ``with_p(p)`` — the same model with
  every rate rescaled by ``p / self.p`` (the Fig.-4 sweep knob);
* ``location_rates(locations) -> (N,) float64`` — per-location failure
  rates (``kind_rates`` / ``probability`` are accepted as fallbacks, so
  :class:`~repro.sim.noise.E1_1` and
  :class:`~repro.sim.noise.ScaledNoiseModel` are models already);
* optionally ``draw_weights(locations)`` — one normalized weight array
  per location over its ``fault_draws`` table, or ``None`` for the
  uniform E1_1 conditional draw;
* optionally ``pair_sites(locations)`` — correlated two-location
  crosstalk sites, each ``(i, j, rate)``: an *extra* fault mechanism
  that, when it fires, injects a draw at location ``i`` **and** at
  location ``j`` in the same shot.

:class:`SiteUniverse` compiles a (locations, model) pair into the
*site* universe — base locations plus composite pair sites — and owns
all the noise math, uniform and heterogeneous:

* **Poisson-binomial stratum weights.** With per-site rates ``r_i`` the
  fault count ``K`` is Poisson-binomial, so the subset decomposition
  becomes ``p_L = sum_k W_k f_k`` with ``W_k = P(K = k)``
  (:func:`poisson_binomial_weights`) instead of the binomial
  ``C(n,k) p^k (1-p)^(n-k)``.
* **Conditional-Bernoulli stratum sampling.** Conditioned on ``K = k``
  the failing subset is distributed ``∝ prod_{i in S} odds_i`` with
  ``odds_i = r_i / (1 - r_i)`` — *not* uniform. :meth:`sample_sites`
  draws exactly from that law with the classic sequential procedure on
  tail elementary symmetric polynomials, vectorized across shots.
* **Exact k = 1 / k = 2 enumeration weights.** Each (site, draw) row is
  weighted by its own conditional probability
  ``odds_i / e_1 * q_i(d)``; each (site pair, draw, draw) run by
  ``odds_i odds_j / e_2 * q_i(d) q_j(d')`` — which are the uniform
  ``1 / (N * draws)`` weights when the model is E1_1.

Exactness note: the stratified estimator is exact at the model's own
rates. A :meth:`rates_at` sweep rescales every rate by ``p / p_base``;
the stratum weights ``W_k(p)`` stay exact, while the conditional laws
``f_k`` are treated as p-independent. For rate-*homogeneous* models
(E1_1, :class:`BiasedPauliModel` — bias lives in the draws, not the
rates) that is exact at every ``p``; for rate-heterogeneous models the
conditional subset law drifts at second order in ``p`` away from the
base point (the odds ratios ``odds_i/odds_j`` are p-invariant only to
first order). See ``docs/noise.md`` for the derivation.

The uniform case: E1_1 itself, ``model=None`` and every model that is
E1_1 in disguise (constant rates equal to ``p``, uniform draws, no pair
sites — :attr:`SiteUniverse.uniform`) compile to a universe whose methods
return E1_1's closed forms: the Floyd stratum draw, binomial stratum
weights, ``1 / (N * draws)`` row weights and ``count / (C(N, 2) d_i d_j)``
pair masses. That decision is made here and nowhere else: the planner,
sampler, certificate and budget hold a universe for every model and
never branch on which kind it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from ..core.faults import ONE_QUBIT_PAULIS, TWO_QUBIT_PAULIS
from . import noise
from .frame import always_executed
from .noise import (
    E1_1,
    ScaledNoiseModel,
    draw_counts,
    draw_tables,
    merge_injection_dicts,
)

__all__ = [
    "BiasedPauliModel",
    "InhomogeneousModel",
    "CorrelatedPairModel",
    "SiteUniverse",
    "site_universe",
    "model_location_rates",
    "model_draw_weights",
    "model_pair_sites",
    "binomial_weight",
    "tail_weight",
    "poisson_binomial_weights",
    "poisson_binomial_weight",
    "poisson_binomial_tail",
    "adjacent_2q_pairs",
    "parse_noise_spec",
    "model_to_jsonable",
    "model_from_jsonable",
]


# -- stratum weights -----------------------------------------------------------


def binomial_weight(num_locations: int, k: int, p: float) -> float:
    """``P(K = k)`` for ``K ~ Binomial(num_locations, p)``."""
    return (
        math.comb(num_locations, k)
        * p**k
        * (1.0 - p) ** (num_locations - k)
    )


def tail_weight(num_locations: int, k_max: int, p: float) -> float:
    """``P(K > k_max)`` — the unsampled-strata weight bound."""
    head = sum(binomial_weight(num_locations, k, p) for k in range(k_max + 1))
    return max(0.0, 1.0 - head)


def poisson_binomial_weights(rates, k_max: int) -> np.ndarray:
    """``P(K = k)`` for ``k = 0..k_max`` under heterogeneous Bernoulli rates.

    The heterogeneous generalization of :func:`binomial_weight`: with
    per-location (per-site) rates ``r_i`` the fault count is
    Poisson-binomial, and the head distribution folds one location at a
    time into a truncated convolution — O(N * k_max), deterministic in
    the location order. For a constant rate vector the values agree with
    the closed binomial form up to float rounding (a uniform
    :class:`SiteUniverse` keeps the closed form, so E1_1 results are
    bit-identical).
    """
    rates = np.asarray(rates, dtype=np.float64)
    if np.any((rates < 0.0) | (rates > 1.0)):
        raise ValueError("rates must lie in [0, 1]")
    head = np.zeros(k_max + 1, dtype=np.float64)
    head[0] = 1.0
    for r in rates:
        head[1:] = head[1:] * (1.0 - r) + head[:-1] * r
        head[0] *= 1.0 - r
    return head


def poisson_binomial_weight(rates, k: int) -> float:
    """``P(K = k)`` under heterogeneous per-location rates."""
    return float(poisson_binomial_weights(rates, k)[k])


def poisson_binomial_tail(rates, k_max: int) -> float:
    """``P(K > k_max)`` under heterogeneous per-location rates."""
    return max(
        0.0, 1.0 - float(poisson_binomial_weights(rates, k_max).sum())
    )


# -- model helpers -------------------------------------------------------------


def model_location_rates(locations, model) -> np.ndarray:
    """Per-location rate vector from any model (seam fallback chain:
    ``location_rates`` > ``kind_rates`` > per-kind ``probability``)."""
    if hasattr(model, "location_rates"):
        return np.asarray(model.location_rates(locations), dtype=np.float64)
    if hasattr(model, "kind_rates"):
        return np.asarray(model.kind_rates(locations), dtype=np.float64)
    return np.asarray(
        [model.probability(kind) for _, kind, _ in locations],
        dtype=np.float64,
    )


def model_draw_weights(locations, model):
    """Per-location draw distributions, or ``None`` for uniform draws."""
    fn = getattr(model, "draw_weights", None)
    return fn(locations) if fn is not None else None


def model_pair_sites(locations, model) -> tuple:
    """Correlated ``(i, j, rate)`` sites declared by the model (or none)."""
    fn = getattr(model, "pair_sites", None)
    return tuple(fn(locations)) if fn is not None else ()


def _scaled(value: float, factor: float) -> float:
    return value * factor


# -- the model zoo -------------------------------------------------------------


@lru_cache(maxsize=None)
def _biased_weight_tables(eta: float) -> dict:
    """Per-kind draw weights under letter bias ``omega(Z) = eta``.

    A failing location draws a Pauli with probability proportional to the
    product of its letter weights, ``omega(I) = omega(X) = omega(Y) = 1``
    and ``omega(Z) = eta`` — the standard biased-noise parametrization
    (``eta = p_Z / p_X``). ``eta = 1`` reproduces the uniform E1_1 draw.
    """
    omega = {"I": 1.0, "X": 1.0, "Y": 1.0, "Z": eta}
    one = np.asarray([omega[a] for a in ONE_QUBIT_PAULIS], dtype=np.float64)
    two = np.asarray(
        [omega[a] * omega[b] for a, b in TWO_QUBIT_PAULIS], dtype=np.float64
    )
    single = np.asarray([1.0], dtype=np.float64)
    tables = {
        "1q": one / one.sum(),
        "2q": two / two.sum(),
        "reset_z": single,
        "reset_x": single,
        "meas": single,
    }
    for table in tables.values():
        table.setflags(write=False)
    return tables


@dataclass(frozen=True)
class BiasedPauliModel:
    """η-biased Pauli noise: uniform rates, Z-dominated draws.

    Every location fails at rate ``p`` exactly like E1_1 — the bias lives
    in the *conditional draw*: a failing gate draws a Pauli with weight
    ``prod omega(letter)`` where ``omega(Z) = eta`` and every other
    letter weighs 1 (so a CX failure is ``eta^2 : eta : 1`` for
    ZZ : ZI : XX, etc.). Resets and measurements have a single draw and
    are unaffected. ``eta = 1`` *is* E1_1: ``draw_weights`` then reports
    ``None`` and its site universe is uniform, bit-for-bit.

    Because the rates are homogeneous, the subset decomposition stays
    exact at every ``p`` (conditioned on ``K = k`` the failing subset is
    uniform) — only the draw tables are re-weighted.
    """

    p: float
    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"rate {self.p} outside [0, 1]")
        if self.eta <= 0.0:
            raise ValueError(f"bias eta must be positive, got {self.eta}")

    def with_p(self, p: float) -> "BiasedPauliModel":
        return BiasedPauliModel(p=p, eta=self.eta)

    def probability(self, kind: str) -> float:
        return self.p

    def location_rates(self, locations) -> np.ndarray:
        return np.full(len(locations), self.p, dtype=np.float64)

    def draw_weights(self, locations):
        if self.eta == 1.0:
            return None  # exactly E1_1: the universe is uniform
        tables = _biased_weight_tables(float(self.eta))
        return [tables[kind] for _, kind, _ in locations]


@dataclass(frozen=True)
class InhomogeneousModel:
    """Explicit per-location rate map (uniform E1_1 draws).

    ``p`` is the default rate; ``kind_rates`` overrides whole kinds with
    absolute rates (e.g. ``{"meas": 1e-2}``), and ``overrides`` pins
    individual locations — keyed by position in the location universe
    (``int``) or by the full location key. This is the general mechanism
    for device-calibrated rate maps, including idle-location noise: rate
    the identity-equivalent wait locations of a schedule through
    ``overrides`` (the gate-based universe carries no implicit idles, so
    making them explicit is the model's job).

    ``with_p`` rescales *every* rate by ``p / self.p`` — relative
    calibration is preserved across a sweep.
    """

    p: float
    kind_rates: tuple = ()
    overrides: tuple = ()

    def __post_init__(self):
        # Accept mappings for ergonomics; store sorted tuples so the
        # frozen dataclass stays picklable and order-deterministic.
        if isinstance(self.kind_rates, dict):
            object.__setattr__(
                self, "kind_rates", tuple(sorted(self.kind_rates.items()))
            )
        else:
            object.__setattr__(self, "kind_rates", tuple(self.kind_rates))
        if isinstance(self.overrides, dict):
            object.__setattr__(
                self,
                "overrides",
                tuple(sorted(self.overrides.items(), key=lambda kv: repr(kv[0]))),
            )
        else:
            object.__setattr__(self, "overrides", tuple(self.overrides))
        for _, rate in tuple(self.kind_rates) + tuple(self.overrides):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate {rate} outside [0, 1]")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"rate {self.p} outside [0, 1]")

    def with_p(self, p: float) -> "InhomogeneousModel":
        if self.p == 0.0:
            raise ValueError("cannot rescale a zero-strength model")
        factor = p / self.p
        return InhomogeneousModel(
            p=p,
            kind_rates=tuple(
                (kind, _scaled(rate, factor)) for kind, rate in self.kind_rates
            ),
            overrides=tuple(
                (key, _scaled(rate, factor)) for key, rate in self.overrides
            ),
        )

    def probability(self, kind: str) -> float:
        return dict(self.kind_rates).get(kind, self.p)

    def location_rates(self, locations) -> np.ndarray:
        by_kind = dict(self.kind_rates)
        rates = np.asarray(
            [by_kind.get(kind, self.p) for _, kind, _ in locations],
            dtype=np.float64,
        )
        if self.overrides:
            index_of = {key: i for i, (key, _, _) in enumerate(locations)}
            for target, rate in self.overrides:
                if isinstance(target, int):
                    index = target
                    if not 0 <= index < len(locations):
                        raise ValueError(
                            f"override index {index} outside the "
                            f"{len(locations)}-location universe"
                        )
                else:
                    try:
                        index = index_of[target]
                    except KeyError:
                        raise ValueError(
                            f"override key {target!r} not in the location "
                            "universe"
                        ) from None
                rates[index] = rate
        return rates


def adjacent_2q_pairs(locations) -> tuple[tuple[int, int], ...]:
    """Crosstalk pair heuristic: consecutive 2q gates sharing a wire.

    Two-qubit gates scheduled back-to-back on overlapping wires within
    one segment are the canonical crosstalk victims; this derives that
    pair list deterministically from the location universe (used by the
    CLI's ``correlated:pairs=adjacent`` spec).
    """
    pairs: list[tuple[int, int]] = []
    previous: dict = {}  # segment key -> (location index, wires)
    for index, (key, kind, wires) in enumerate(locations):
        if kind != "2q":
            continue
        segment = key[0]
        if segment in previous:
            prev_index, prev_wires = previous[segment]
            if set(prev_wires) & set(wires):
                pairs.append((prev_index, index))
        previous[segment] = (index, wires)
    return tuple(pairs)


@dataclass(frozen=True)
class CorrelatedPairModel:
    """Two-location crosstalk on top of a base model.

    Base locations fail independently under ``base`` (default
    ``E1_1(p)``); in addition every listed pair is a *composite fault
    site* firing at ``pair_rate``. A firing pair injects one draw at each
    of its two locations in the same shot (draws independent within the
    pair, each from its location's conditional table), so a single pair
    event is a weight-2 physical fault — which is exactly why the
    subset strata, the certificate, and the budget must enumerate pair
    sites as first-class single events.

    ``pairs`` is a tuple of ``(i, j)`` location indices or the string
    ``"adjacent"`` (resolved per universe by :func:`adjacent_2q_pairs`).
    ``with_p`` rescales the base model *and* ``pair_rate`` together.
    """

    p: float
    pair_rate: float
    pairs: object = "adjacent"
    base: object = None

    def __post_init__(self):
        if not 0.0 <= self.pair_rate <= 1.0:
            raise ValueError(f"pair_rate {self.pair_rate} outside [0, 1]")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"rate {self.p} outside [0, 1]")
        if not isinstance(self.pairs, str):
            object.__setattr__(
                self,
                "pairs",
                tuple((int(i), int(j)) for i, j in self.pairs),
            )

    def _base(self):
        if self.base is not None:
            return self.base

        return E1_1(p=self.p)

    def with_p(self, p: float) -> "CorrelatedPairModel":
        if self.p == 0.0:
            raise ValueError("cannot rescale a zero-strength model")
        factor = p / self.p
        base = self.base.with_p(p) if self.base is not None else None
        return CorrelatedPairModel(
            p=p,
            pair_rate=_scaled(self.pair_rate, factor),
            pairs=self.pairs,
            base=base,
        )

    def probability(self, kind: str) -> float:
        return self._base().probability(kind)

    def location_rates(self, locations) -> np.ndarray:
        return model_location_rates(locations, self._base())

    def draw_weights(self, locations):
        return model_draw_weights(locations, self._base())

    def pair_sites(self, locations) -> tuple[tuple[int, int, float], ...]:
        if isinstance(self.pairs, str):
            if self.pairs != "adjacent":
                raise ValueError(f"unknown pair spec {self.pairs!r}")
            pairs = adjacent_2q_pairs(locations)
        else:
            pairs = self.pairs
        num = len(locations)
        for i, j in pairs:
            if not (0 <= i < num and 0 <= j < num) or i == j:
                raise ValueError(
                    f"pair ({i}, {j}) invalid for a {num}-location universe"
                )
        return tuple((i, j, self.pair_rate) for i, j in pairs)


# -- the compiled site universe ------------------------------------------------


class SiteUniverse:
    """(locations, model) compiled into the sampling math of one model.

    A *site* is one independent fault mechanism: sites ``0..N-1`` are the
    base locations, sites ``N..N+P-1`` the model's composite pair sites.
    Every site has a rate, a draw count (pair sites: the product of their
    two locations' counts), and a draw distribution; :meth:`expand` turns
    (site, draw) index pairs into the masked ``(loc_idx, draw_idx)``
    arrays the engines execute. All probability math (stratum weights,
    stratum and Bernoulli sampling, exact-enumeration row/pair weights)
    lives here so the planner, sampler, certificate, and budget share one
    implementation and never ask which kind of model they hold.

    ``model=None`` is E1_1 at strength 0: a :attr:`uniform` universe,
    whose methods take the strength from the caller's sweep ``p``.
    """

    def __init__(self, locations, model=None):
        self.locations = list(locations)
        if model is None:
            model = E1_1(p=0.0)
        self.model = model
        self.p = float(getattr(model, "p", math.nan))
        self.loc_rates = model_location_rates(self.locations, model)
        self._weights = model_draw_weights(self.locations, model)
        self.pairs = model_pair_sites(self.locations, model)
        self.num_locations = len(self.locations)
        self.num_sites = self.num_locations + len(self.pairs)
        self.site_rates = np.concatenate(
            [
                self.loc_rates,
                np.asarray([rate for _, _, rate in self.pairs], dtype=np.float64),
            ]
        )
        loc_counts = draw_counts(self.locations)
        self.site_draw_counts = np.concatenate(
            [
                loc_counts.astype(np.int64),
                np.asarray(
                    [
                        int(loc_counts[i]) * int(loc_counts[j])
                        for i, j, _ in self.pairs
                    ],
                    dtype=np.int64,
                ),
            ]
        ).astype(np.int64)
        self._loc_counts = loc_counts
        #: Uniform draws and no pair sites: E1_1's draw semantics, with
        #: rates that may still vary per location.
        self.plain_draws = self._weights is None and not self.pairs
        #: E1_1 in disguise. Constant rates alone are not enough: the
        #: constant must equal the model's own ``p``, because the uniform
        #: closed forms evaluate ``binomial_weight(N, k, p_sweep)`` — a
        #: constant-rate model at ``c * p`` (``ScaledNoiseModel`` with
        #: every factor 5) keeps its factor through :meth:`rates_at`.
        self.uniform = (
            self.plain_draws
            and self.loc_rates.size > 0
            and bool((self.loc_rates == self.loc_rates[0]).all())
            and float(self.loc_rates[0]) == self.p
        )
        # Odds ratios need every rate below 1; a uniform universe uses none,
        # so its binomial strength may be 1 (every location fails).
        bad = (self.loc_rates < 0.0) | (self.loc_rates > 1.0)
        if not self.uniform:
            bad |= self.loc_rates == 1.0
        if bad.any():
            raise ValueError(
                "location rates must lie in [0, 1) ([0, 1] for E1_1): "
                f"got {self.loc_rates[bad][:3]}..."
            )
        pair_rates = self.site_rates[self.num_locations :]
        if np.any((pair_rates < 0.0) | (pair_rates >= 1.0)):
            raise ValueError("pair rates must lie in [0, 1)")
        # A uniform universe's rates are a sweep parameter, so all of its
        # sites count, even at strength 0; otherwise only those that fire.
        self._live = (
            np.ones(self.num_sites, dtype=bool)
            if self.uniform
            else self.site_rates > 0.0
        )
        #: Sites that can actually fire; enumerations skip the rest.
        self.active_sites = np.flatnonzero(self._live).astype(np.intp)
        with np.errstate(divide="ignore"):
            self.odds = self.site_rates / (1.0 - self.site_rates)
        # Normalized odds keep the elementary-symmetric DP well scaled;
        # every probability below is a ratio, so the scale cancels. Equal
        # odds normalize to exactly 1.
        if self.uniform:
            self._w = np.ones(self.num_sites, dtype=np.float64)
        else:
            active_odds = self.odds[self.active_sites]
            scale = active_odds.mean() if active_odds.size else 1.0
            self._w = self.odds / scale if scale > 0 else self.odds.copy()
        self._pinc: dict[int, np.ndarray] = {}
        self._cdfs: np.ndarray | None = None
        self._qtables: list[np.ndarray] | None = None
        self._qmat: np.ndarray | None = None

    # -- strengths and stratum weights -----------------------------------------

    def max_strength(self) -> float:
        """Supremum of strengths ``p`` this model can be rescaled to
        (exclusive): the ``p`` at which the largest site rate reaches 1.
        ``inf`` when every rate is zero and for a uniform universe, whose
        binomial weights take any ``p``. Sweep consumers use it to skip
        unreachable points instead of raising mid-curve."""
        top = float(self.site_rates.max()) if self.site_rates.size else 0.0
        if self.uniform or top <= 0.0:
            return math.inf
        return self.p / top

    def reference_strength(self) -> float:
        """Default DSS variance target ``p_ref``: the paper's ``p_max =
        0.1`` for a uniform universe, else the model's own strength — a
        calibrated rate map may not even be rescalable to 0.1, and its
        natural target is its own operating point."""
        if self.uniform or math.isnan(self.p):
            return 0.1
        return self.p

    def rates_at(self, p: float) -> np.ndarray:
        """Every site rate rescaled to strength ``p`` (linear in ``p``)."""
        if not self.p > 0.0:
            raise ValueError(
                "model has no positive base strength p to rescale from"
            )
        rates = self.site_rates * (p / self.p)
        if np.any(rates >= 1.0):
            raise ValueError(
                f"p={p} pushes a site rate to >= 1 (base strength {self.p})"
            )
        return rates

    def stratum_weights(self, k_max: int, p: float | None = None) -> np.ndarray:
        """``P(K = k)`` for ``k = 0..k_max`` at strength ``p`` (default the
        model's own): binomial for a uniform universe, else
        Poisson-binomial over the site rates rescaled to ``p``."""
        if self.uniform:
            p = self.p if p is None else p
            return np.asarray(
                [binomial_weight(self.num_sites, k, p) for k in range(k_max + 1)],
                dtype=np.float64,
            )
        rates = self.site_rates if p is None else self.rates_at(p)
        return poisson_binomial_weights(rates, k_max)

    def tail_weight(self, k_max: int, p: float | None = None) -> float:
        """``P(K > k_max)`` at strength ``p`` (default the model's own)."""
        if self.uniform:
            return tail_weight(self.num_sites, k_max, self.p if p is None else p)
        head = self.stratum_weights(k_max, p)
        return max(0.0, 1.0 - float(head.sum()))

    # -- draw distributions ----------------------------------------------------

    def _draw_weight_tables(self) -> list[np.ndarray]:
        """Normalized per-site draw weights (base then pair sites)."""
        if self._qtables is None:
            if self._weights is None:
                base = [
                    np.full(int(c), 1.0 / int(c)) for c in self._loc_counts
                ]
            else:
                base = []
                for index, table in enumerate(self._weights):
                    q = np.asarray(table, dtype=np.float64)
                    if q.size != int(self._loc_counts[index]) or np.any(q < 0):
                        raise ValueError(
                            f"draw weights at location {index} malformed"
                        )
                    base.append(q / q.sum())
            tables = list(base)
            for i, j, _ in self.pairs:
                tables.append(np.outer(base[i], base[j]).ravel())
            self._qtables = tables
        return self._qtables

    def _draw_matrix(self) -> np.ndarray:
        """Padded (sites, max_draws) weight matrix (0 beyond each count)."""
        if self._qmat is None:
            tables = self._draw_weight_tables()
            width = int(self.site_draw_counts.max()) if tables else 0
            qmat = np.zeros((self.num_sites, width), dtype=np.float64)
            for site, q in enumerate(tables):
                qmat[site, : q.size] = q
            self._qmat = qmat
        return self._qmat

    def _draw_cdfs(self) -> np.ndarray:
        """Padded (sites, max_draws) inverse-transform tables."""
        if self._cdfs is None:
            tables = self._draw_weight_tables()
            width = int(self.site_draw_counts.max()) if tables else 0
            cdfs = np.ones((self.num_sites, width), dtype=np.float64)
            for site, q in enumerate(tables):
                cdf = np.cumsum(q)
                cdf[-1] = 1.0  # exact top: u < 1 can never overflow
                cdfs[site, : q.size] = cdf
            self._cdfs = cdfs
        return self._cdfs

    def draw_indices(self, site_idx: np.ndarray, uniform: np.ndarray) -> np.ndarray:
        """Weighted draw index per (site, u) pair — vectorized inverse CDF.

        ``site_idx`` flat intp array (may not contain -1), ``uniform``
        matching floats in [0, 1). The non-uniform counterpart of the
        ``floor(u * counts)`` trick in ``sim.noise``.
        """
        if site_idx.size == 0:
            return np.zeros(0, dtype=np.intp)
        cdfs = self._draw_cdfs()
        return (uniform[:, None] >= cdfs[site_idx]).sum(axis=1).astype(np.intp)

    # -- expansion to engine index arrays --------------------------------------

    def expand(
        self, site_idx: np.ndarray, site_draw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(site, draw) arrays -> masked (loc, draw) arrays for the engine.

        Input shape ``(shots, k)`` with ``-1`` masking empty slots. With
        no pair sites this is the identity; otherwise the output widens
        to ``(shots, 2k)`` so a firing pair can inject at both of its
        locations (second leg in the extra columns, ``-1`` elsewhere).
        """
        if not self.pairs:
            return site_idx, site_draw
        shots, k = site_idx.shape
        loc_idx = np.full((shots, 2 * k), -1, dtype=np.intp)
        draw_idx = np.zeros((shots, 2 * k), dtype=np.intp)
        base = (site_idx >= 0) & (site_idx < self.num_locations)
        loc_idx[:, :k][base] = site_idx[base]
        draw_idx[:, :k][base] = site_draw[base]
        pair_mask = site_idx >= self.num_locations
        if pair_mask.any():
            pair_i = np.asarray([i for i, _, _ in self.pairs], dtype=np.intp)
            pair_j = np.asarray([j for _, j, _ in self.pairs], dtype=np.intp)
            members = site_idx[pair_mask] - self.num_locations
            counts_j = self._loc_counts[pair_j[members]]
            draws = site_draw[pair_mask]
            loc_idx[:, :k][pair_mask] = pair_i[members]
            draw_idx[:, :k][pair_mask] = draws // counts_j
            loc_idx[:, k:][pair_mask] = pair_j[members]
            draw_idx[:, k:][pair_mask] = draws % counts_j
        return loc_idx, draw_idx

    # -- conditional-Bernoulli stratum sampling --------------------------------

    def _inclusion_table(self, k: int) -> np.ndarray:
        """``P(include site j | t slots left over sites j..end)`` table.

        Built from the tail elementary symmetric polynomials of the
        (normalized) odds: ``E[j][t] = e_t(w_j..w_end)``, inclusion
        probability ``w_j * E[j+1][t-1] / E[j][t]``. Exact conditional
        Bernoulli — the subset law is ``∝ prod odds_i`` by construction.
        """
        table = self._pinc.get(k)
        if table is None:
            w = self._w
            n = self.num_sites
            E = np.zeros((n + 1, k + 1), dtype=np.float64)
            E[n, 0] = 1.0
            for j in range(n - 1, -1, -1):
                E[j, 0] = E[j + 1, 0]
                E[j, 1:] = E[j + 1, 1:] + w[j] * E[j + 1, :-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                numer = w[:, None] * E[1:, : k]  # E[j+1][t-1] for t=1..k
                table = np.where(E[:n, 1:] > 0.0, numer / E[:n, 1:], 0.0)
            table = np.clip(table, 0.0, 1.0)
            # Prepend the t=0 column (never include when no slots left).
            table = np.concatenate(
                [np.zeros((n, 1), dtype=np.float64), table], axis=1
            )
            self._pinc[k] = table
        return table

    def sample_sites(
        self, k: int, shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``(shots, k)`` site subsets, exactly ``∝ prod odds_i``."""
        if k > self.active_sites.size:
            raise ValueError("more faults than active sites")
        pinc = self._inclusion_table(k)
        uniform = rng.random((shots, self.num_sites))
        out = np.full((shots, k), -1, dtype=np.intp)
        position = np.zeros(shots, dtype=np.intp)
        remaining = np.full(shots, k, dtype=np.intp)
        rows = np.arange(shots, dtype=np.intp)
        for j in range(self.num_sites):
            take = uniform[:, j] < pinc[j, remaining]
            if take.any():
                out[rows[take], position[take]] = j
                position[take] += 1
                remaining[take] -= 1
        if (remaining != 0).any():  # float-rounding safety net
            short = np.flatnonzero(remaining != 0)
            for s in short.tolist():
                chosen = set(out[s][out[s] >= 0].tolist())
                for j in self.active_sites.tolist():
                    if remaining[s] == 0:
                        break
                    if j not in chosen:
                        out[s, position[s]] = j
                        position[s] += 1
                        remaining[s] -= 1
        return out

    def sample_stratum(
        self, k: int, shots: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stratum batch: ``shots`` configurations of exactly ``k`` firing
        sites, as masked engine index arrays.

        A uniform universe takes the Floyd draw of
        :func:`repro.sim.noise.sample_injections_stratum` (the stream of
        ``repro.store.keys.DRAW_REVISION``). Otherwise sites follow the
        conditional-Bernoulli law of :meth:`sample_sites` and draws the
        model's weights, with the same shapes.
        """
        if self.uniform:
            return noise.sample_injections_stratum(self.locations, k, shots, rng)
        sites = self.sample_sites(k, shots, rng)
        uniform = rng.random((shots, k))
        draws = self.draw_indices(
            sites.ravel(), uniform.ravel()
        ).reshape(shots, k)
        return self.expand(sites, draws)

    def sample_bernoulli(
        self, shots: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Direct-MC batch at the model's own rates (variable weight).

        The stream behind
        :func:`repro.sim.noise.sample_injections_model_batch`: every
        *site* (base location or crosstalk pair) fires independently at
        its rate and pair firings expand to both member locations. With
        :attr:`plain_draws` a failure draws ``floor(u * count)``, as E1_1
        always has; otherwise it follows the model's weights.
        """
        fails = rng.random((shots, self.num_sites)) < self.site_rates[None, :]
        per_shot = fails.sum(axis=1)
        k_width = int(per_shot.max()) if shots else 0
        site_idx = np.full((shots, k_width), -1, dtype=np.intp)
        draw_idx = np.zeros((shots, k_width), dtype=np.intp)
        shot_ids, sites = np.nonzero(fails)
        if shot_ids.size:
            uniform = rng.random(shot_ids.size)
            if self.plain_draws:
                draws = np.floor(uniform * self._loc_counts[sites]).astype(np.intp)
            else:
                draws = self.draw_indices(sites, uniform)
            # np.nonzero is row-major, so the column of failure f within
            # its shot is its rank among that shot's failures.
            offsets = np.concatenate(([0], np.cumsum(per_shot)[:-1]))
            cols = np.arange(shot_ids.size) - offsets[shot_ids]
            site_idx[shot_ids, cols] = sites
            draw_idx[shot_ids, cols] = draws
        return self.expand(site_idx, draw_idx)

    # -- exact enumeration (rows = k=1, pairs = k=2) ---------------------------

    def _site_checkable(self) -> np.ndarray:
        """Per-site always-executed mask (pair sites: both members)."""
        base = np.asarray(
            [always_executed(key) for key, _, _ in self.locations], dtype=bool
        )
        pair = np.asarray(
            [base[i] and base[j] for i, j, _ in self.pairs], dtype=bool
        )
        return np.concatenate([base, pair]) if pair.size else base

    def enumeration_sites(self, checkable_only: bool = False) -> np.ndarray:
        """Active sites included in exact enumerations, in site order."""
        mask = self._live.copy()
        if checkable_only:
            mask &= self._site_checkable()
        return np.flatnonzero(mask).astype(np.intp)

    def total_pair_runs(self) -> int:
        """Total (draw × draw) runs of the full site-pair enumeration —
        the shared guard value behind ``StratumPlanner.total_pair_runs``
        and ``SubsetSampler.enumerate_k2_exact``."""
        counts = self.site_draw_counts[self.enumeration_sites()].astype(
            np.int64
        )
        total = int(counts.sum())
        return int((total * total - int((counts * counts).sum())) // 2)

    def e1(self) -> float:
        """First elementary symmetric polynomial of the (scaled) odds of
        the live sites."""
        return float(self._w[self._live].sum())

    def e2(self) -> float:
        w = self._w[self._live]
        return float((w.sum() ** 2 - (w**2).sum()) / 2.0)

    def row_weights_for(self, sites: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Conditional probability of (site, draw) rows given ``K = 1``:
        ``1 / (N * d_s)`` when uniform, else ``odds_s / e_1 * q_s(draw)``."""
        sites = np.asarray(sites, dtype=np.intp)
        if self.uniform:
            return 1.0 / (self.num_sites * self.site_draw_counts[sites])
        draws = np.asarray(draws, dtype=np.intp)
        q = self._draw_matrix()[sites, draws]
        return (self._w[sites] / self.e1()) * q

    def pair_run_weights_for(
        self,
        site_a: np.ndarray,
        draw_a: np.ndarray,
        site_b: np.ndarray,
        draw_b: np.ndarray,
    ) -> np.ndarray:
        """Conditional probability of pair runs given ``K = 2``:
        ``1 / (C(N, 2) d_a d_b)`` when uniform, else
        ``odds_a odds_b / e_2 * q_a(draw_a) q_b(draw_b)``."""
        site_a = np.asarray(site_a, dtype=np.intp)
        site_b = np.asarray(site_b, dtype=np.intp)
        if self.uniform:
            return 1.0 / (
                math.comb(self.num_sites, 2)
                * self.site_draw_counts[site_a]
                * self.site_draw_counts[site_b]
            )
        qmat = self._draw_matrix()
        qa = qmat[site_a, np.asarray(draw_a, dtype=np.intp)]
        qb = qmat[site_b, np.asarray(draw_b, dtype=np.intp)]
        return (self._w[site_a] * self._w[site_b] / self.e2()) * qa * qb

    def pair_masses(
        self, sites: np.ndarray, draws: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Failing conditional mass per distinct pair of k = 2 runs, and
        their total.

        ``sites``/``draws`` are the failing runs' ``(runs, 2)`` site-level
        arrays, grouped by pair in ascending pair id, ``counts[i]`` runs
        for pair ``i``. Uniform: every run of a pair weighs
        ``1 / (C(N, 2) d_a d_b)``, so a pair's mass is ``count`` times that
        — the product, not a sum of equal weights, which would round
        differently — and the total adds the pairs one at a time. Otherwise
        each run's own weight is added to its pair in run order, and numpy
        sums the pairs. The two summation orders round differently; each
        is the one its model's recorded k = 2 masses were summed in.
        """
        if self.uniform:
            counts_ab = self.site_draw_counts[sites[np.cumsum(counts) - counts]]
            weight = 1.0 / (
                math.comb(self.num_sites, 2) * counts_ab[:, 0] * counts_ab[:, 1]
            )
            mass = counts * weight
            return mass, sum(mass.tolist(), 0.0)
        mass = np.zeros(counts.size, dtype=np.float64)
        np.add.at(
            mass,
            np.repeat(np.arange(counts.size), counts),
            self.pair_run_weights_for(
                sites[:, 0], draws[:, 0], sites[:, 1], draws[:, 1]
            ),
        )
        return mass, float(mass.sum())

    def e2_relative(self) -> float:
        """``e_2`` of the active site rates relative to ``p``: the nominal
        quadratic coefficient per unit ``f2`` (``p_L ~ e_2(rates / p) f2
        p^2`` at small ``p``), exactly ``C(N, 2)`` when uniform."""
        if self.uniform:
            return float(math.comb(self.num_sites, 2))
        if not self.p > 0.0:
            return math.nan
        relative = self.site_rates[self.site_rates > 0.0] / self.p
        if not relative.size:
            return math.nan
        return float((relative.sum() ** 2 - (relative**2).sum()) / 2.0)

    # -- site metadata (labels, evidence, iteration) ---------------------------

    def site_kind(self, site: int) -> str:
        if site < self.num_locations:
            return self.locations[site][1]
        return "xtalk"

    def site_key(self, site: int):
        """Location key of a base site, ``(key_i, key_j)`` of a pair site."""
        if site < self.num_locations:
            return self.locations[site][0]
        i, j, _ = self.pairs[site - self.num_locations]
        return (self.locations[i][0], self.locations[j][0])

    def site_segment(self, site: int) -> str:
        if site < self.num_locations:
            return self.locations[site][0][0][0]
        return "xtalk"

    def site_injections(self, site: int, draw: int):
        """``(label_injection, injections_dict)`` of one (site, draw).

        The dict is what a runner replays; the label is what a violation
        report shows (a single Injection, or a tuple for pair sites).
        """
        tables = draw_tables(self.locations)
        if site < self.num_locations:
            injection = tables[site][draw]
            return injection, {self.locations[site][0]: injection}
        i, j, _ = self.pairs[site - self.num_locations]
        count_j = int(self._loc_counts[j])
        inj_i = tables[i][draw // count_j]
        inj_j = tables[j][draw % count_j]
        return (inj_i, inj_j), {
            self.locations[i][0]: inj_i,
            self.locations[j][0]: inj_j,
        }

    def iter_rows(self, checkable_only: bool = False):
        """Yield ``(injections_dict, conditional_weight)`` per k=1 row,
        weighted by :meth:`row_weights_for`."""
        for site in self.enumeration_sites(checkable_only).tolist():
            count = int(self.site_draw_counts[site])
            draws = np.arange(count)
            weights = self.row_weights_for(np.full(count, site), draws)
            for draw, weight in enumerate(weights.tolist()):
                _, injections = self.site_injections(site, draw)
                yield injections, weight

    def iter_pair_runs(self):
        """Yield ``(injections_dict, weight, site_a, site_b)`` per k=2 run,
        weighted by :meth:`pair_run_weights_for`."""
        sites = self.enumeration_sites().tolist()
        for a_pos, site_a in enumerate(sites):
            count_a = int(self.site_draw_counts[site_a])
            for site_b in sites[a_pos + 1 :]:
                count_b = int(self.site_draw_counts[site_b])
                draw_a, draw_b = np.divmod(np.arange(count_a * count_b), count_b)
                weights = self.pair_run_weights_for(
                    np.full(draw_a.size, site_a),
                    draw_a,
                    np.full(draw_b.size, site_b),
                    draw_b,
                ).reshape(count_a, count_b)
                for da in range(count_a):
                    _, inj_a = self.site_injections(site_a, da)
                    for db, weight in enumerate(weights[da].tolist()):
                        _, inj_b = self.site_injections(site_b, db)
                        injections = merge_injection_dicts(inj_a, inj_b)
                        yield injections, weight, site_a, site_b


def site_universe(locations, model) -> SiteUniverse:
    """Build (no caching — planners and samplers hold their instance)."""
    return SiteUniverse(locations, model)


# -- CLI spec parsing ----------------------------------------------------------

_SPEC_HELP = (
    "e1_1:p=RATE | scaled:p=RATE[,two_qubit=F][,measurement=F]"
    "[,single_qubit=F][,reset=F] | biased:p=RATE,eta=BIAS | "
    "inhom:p=RATE[,KIND=RATE...][,locN=RATE...] | "
    "correlated:p=RATE,pair_rate=RATE[,pairs=adjacent|I-J;I-J...]"
)


def parse_noise_spec(text: str):
    """``--noise`` model specs, e.g. ``biased:eta=100,p=1e-3``.

    Grammar: ``NAME:key=value,key=value,...`` — see ``docs/noise.md``.
    Returns a frozen model instance (picklable for the spawn pool, and
    JSON-able through :func:`model_to_jsonable` for the cluster wire).
    """
    name, _, rest = text.strip().partition(":")
    name = name.strip().lower()
    params: dict[str, str] = {}
    if rest:
        for part in rest.split(","):
            if not part.strip():
                continue
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(
                    f"malformed noise spec field {part!r} (expected key=value)"
                )
            params[key.strip().lower()] = value.strip()

    def pop_float(key: str, default: float | None = None) -> float:
        if key in params:
            return float(params.pop(key))
        if default is None:
            raise ValueError(f"noise spec {name!r} needs {key}=...")
        return default

    try:
        if name in ("e1_1", "e1", "uniform", "depolarizing"):
            model = E1_1(p=pop_float("p"))
        elif name == "scaled":
            model = ScaledNoiseModel(
                p=pop_float("p"),
                single_qubit=pop_float("single_qubit", 1.0),
                two_qubit=pop_float("two_qubit", 1.0),
                reset=pop_float("reset", 1.0),
                measurement=pop_float("measurement", 1.0),
            )
        elif name == "biased":
            model = BiasedPauliModel(p=pop_float("p"), eta=pop_float("eta"))
        elif name in ("inhom", "inhomogeneous"):
            p = pop_float("p")
            kind_rates = {}
            overrides = {}
            for key in list(params):
                if key in ("1q", "2q", "reset_z", "reset_x", "meas"):
                    kind_rates[key] = float(params.pop(key))
                elif key.startswith("loc"):
                    overrides[int(key[3:])] = float(params.pop(key))
            model = InhomogeneousModel(
                p=p, kind_rates=kind_rates, overrides=overrides
            )
        elif name in ("correlated", "xtalk"):
            p = pop_float("p")
            pair_rate = pop_float("pair_rate")
            pairs_text = params.pop("pairs", "adjacent")
            if pairs_text == "adjacent":
                pairs: object = "adjacent"
            else:
                pairs = tuple(
                    tuple(int(x) for x in chunk.split("-"))
                    for chunk in pairs_text.split(";")
                    if chunk
                )
            model = CorrelatedPairModel(p=p, pair_rate=pair_rate, pairs=pairs)
        else:
            raise ValueError(f"unknown noise model {name!r}")
    except ValueError as exc:
        raise ValueError(f"bad --noise spec {text!r}: {exc} [{_SPEC_HELP}]") from None
    if params:
        raise ValueError(
            f"bad --noise spec {text!r}: unknown fields {sorted(params)} "
            f"[{_SPEC_HELP}]"
        )
    return model


# -- the JSON wire form --------------------------------------------------------
#
# The cluster handshake header and every BernoulliChunk carry a model.
# ``parse_noise_spec`` cannot express a nested ``base`` or location-key
# ``overrides``, so the wire form is the class name plus its dataclass
# fields; each class's ``__post_init__`` re-checks the decoded values.
# Chunk specs (``repro.sim.shard``) use the same tagged-dataclass form.

_MODEL_TYPES = {
    cls.__name__: cls
    for cls in (
        E1_1,
        ScaledNoiseModel,
        BiasedPauliModel,
        InhomogeneousModel,
        CorrelatedPairModel,
    )
}
_MODEL_NAMES = {cls: name for name, cls in _MODEL_TYPES.items()}


def to_jsonable(value):
    """Tuples as lists, numpy scalars as Python ones, models as
    :func:`model_to_jsonable` dicts; other scalars pass through."""
    if isinstance(value, tuple):
        return [to_jsonable(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return model_to_jsonable(value)


def from_jsonable(value):
    """Inverse of :func:`to_jsonable`: lists back to tuples, dicts to models."""
    if isinstance(value, list):
        return tuple(from_jsonable(item) for item in value)
    if isinstance(value, dict):
        return model_from_jsonable(value)
    return value


def tagged_to_jsonable(obj, names: dict) -> dict:
    """``{"type": names[type(obj)], field: value, ...}`` of a dataclass."""
    data = {"type": names[type(obj)]}
    for item in fields(obj):
        data[item.name] = to_jsonable(getattr(obj, item.name))
    return data


def tagged_from_jsonable(data, types: dict):
    """Inverse of :func:`tagged_to_jsonable` over ``{name: class}``; an
    unknown type, a missing or unknown field, or a value the class
    rejects raises ``ValueError``."""
    kind = data.get("type") if isinstance(data, dict) else None
    cls = types.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown type in {data!r}")
    values = {key: from_jsonable(value) for key, value in data.items()}
    del values["type"]
    try:
        return cls(**values)
    except TypeError as exc:
        raise ValueError(f"malformed {kind}: {exc}") from None


def model_to_jsonable(model):
    """JSON form of a noise model (``None`` stays ``None``); only the five
    built-in classes have one, any other is refused with ``ValueError``."""
    if model is None:
        return None
    if type(model) not in _MODEL_NAMES:
        raise ValueError(
            f"a {type(model).__name__} noise model has no JSON form: only "
            f"{sorted(_MODEL_TYPES)} can cross a process or machine boundary"
        )
    return tagged_to_jsonable(model, _MODEL_NAMES)


def model_from_jsonable(data):
    """Rebuild a model from :func:`model_to_jsonable` output; the result
    compares equal to the original."""
    return None if data is None else tagged_from_jsonable(data, _MODEL_TYPES)
