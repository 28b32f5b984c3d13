"""The one-parameter circuit-level depolarizing noise model (qsample E1_1).

Every operation location fails independently with probability ``p``:

* a failing 1-qubit gate draws uniformly from {X, Y, Z};
* a failing 2-qubit gate draws uniformly from the 15 non-identity
  two-qubit Paulis;
* a failing Z (X) reset prepares the orthogonal state — an X (Z) insertion;
* a failing measurement flips the classical outcome.

Faults are sampled against the *static* location list from
``sim.frame.protocol_locations`` (conditional branches included — inert
unless executed, which keeps per-location failures i.i.d.; see
docs/architecture.md, "Substitutions and modelling choices").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from ..core.faults import ONE_QUBIT_PAULIS, TWO_QUBIT_PAULIS
from .frame import Injection

__all__ = [
    "E1_1",
    "ScaledNoiseModel",
    "fault_draws",
    "draw_tables",
    "draw_counts",
    "compose_injections",
    "merge_injection_dicts",
    "sample_injections",
    "sample_injections_model_batch",
    "sample_injections_stratum",
    "materialize_stratum",
]

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_LETTER = {bits: letter for letter, bits in _LETTER_BITS.items()}


@dataclass(frozen=True)
class E1_1:
    """Uniform single-parameter depolarizing model."""

    p: float

    def __post_init__(self):
        # NaN fails the range test; a bool is an int but not a rate.
        p = self.p
        if isinstance(p, bool) or not isinstance(p, Real) or not 0 <= p <= 1:
            raise ValueError(f"E1_1 rate p must be a real in [0, 1], got {p!r}")

    def with_p(self, p: float) -> "E1_1":
        """The same model at strength ``p`` (the sweep knob of the
        ``repro.sim.noisemodels`` seam)."""
        return E1_1(p=p)

    def probability(self, kind: str) -> float:
        return self.p

    def kind_rates(self, locations) -> np.ndarray:
        """Per-location failure rates (uniform for E1_1)."""
        return np.full(len(locations), self.p, dtype=np.float64)


@dataclass(frozen=True)
class ScaledNoiseModel:
    """Per-kind scaling of the base rate (generalizes E1_1).

    Real devices fail two-qubit gates and measurements at different
    rates; this model multiplies the base rate ``p`` by a per-kind factor
    (defaults 1.0, i.e. E1_1). Example — trapped-ion-flavoured budget::

        ScaledNoiseModel(p, two_qubit=5.0, measurement=10.0)

    Every scaled rate is validated once at construction, so the sampling
    hot paths (:meth:`kind_rates`, :meth:`probability`) never re-check.
    """

    p: float
    single_qubit: float = 1.0
    two_qubit: float = 1.0
    reset: float = 1.0
    measurement: float = 1.0

    _FACTORS = {
        "1q": "single_qubit",
        "2q": "two_qubit",
        "reset_z": "reset",
        "reset_x": "reset",
        "meas": "measurement",
    }

    def __post_init__(self):
        for kind, attr in self._FACTORS.items():
            rate = self.p * getattr(self, attr)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"scaled rate {rate} for kind {kind!r} outside [0, 1]"
                )

    def with_p(self, p: float) -> "ScaledNoiseModel":
        """The same per-kind factors at base strength ``p`` (every rate
        scales by ``p / self.p``; construction re-validates the bounds)."""
        return ScaledNoiseModel(
            p=p,
            single_qubit=self.single_qubit,
            two_qubit=self.two_qubit,
            reset=self.reset,
            measurement=self.measurement,
        )

    def probability(self, kind: str) -> float:
        return self.p * getattr(self, self._FACTORS[kind])

    def kind_rates(self, locations) -> np.ndarray:
        """Per-location failure rates, one pass over the location list."""
        by_kind = {
            kind: self.probability(kind) for kind in self._FACTORS
        }
        return np.asarray(
            [by_kind[kind] for _, kind, _ in locations], dtype=np.float64
        )


def compose_injections(a: Injection, b: Injection) -> Injection:
    """Phase-free composition of two faults at one location.

    Two Paulis inserted after the same instruction compose by XOR of
    their symplectic bits; two outcome flips cancel. This matches what
    the batched engine computes when an indexed batch carries the same
    location twice in one shot (each draw's signature is XORed in
    independently), so the dict-based per-shot path stays equivalent —
    correlated pair sites overlapping a base fault need exactly this.
    """
    if a.flip or b.flip:
        if a.paulis or b.paulis:
            raise ValueError("cannot compose a flip with a Pauli injection")
        return Injection(flip=bool(a.flip) ^ bool(b.flip))
    bits: dict[int, tuple[int, int]] = {}
    for wire, letter in a.paulis + b.paulis:
        xb, zb = _LETTER_BITS[letter]
        cx, cz = bits.get(wire, (0, 0))
        bits[wire] = (cx ^ xb, cz ^ zb)
    paulis = tuple(
        (wire, _BITS_LETTER[bit_pair])
        for wire, bit_pair in sorted(bits.items())
        if bit_pair != (0, 0)
    )
    return Injection(paulis=paulis)


def merge_injection_dicts(a: dict, b: dict) -> dict:
    """Union of two injection dicts, composing collisions per location."""
    merged = dict(a)
    for key, injection in b.items():
        present = merged.get(key)
        merged[key] = (
            injection
            if present is None
            else compose_injections(present, injection)
        )
    return merged


def _draw_fault(kind: str, wires, rng: np.random.Generator) -> Injection:
    if kind == "1q":
        letter = ONE_QUBIT_PAULIS[rng.integers(0, 3)]
        return Injection(paulis=((wires[0], letter),))
    if kind == "2q":
        pair = TWO_QUBIT_PAULIS[rng.integers(0, 15)]
        paulis = tuple(
            (w, letter)
            for w, letter in zip(wires, pair)
            if letter != "I"
        )
        return Injection(paulis=paulis)
    if kind == "reset_z":
        return Injection(paulis=((wires[0], "X"),))
    if kind == "reset_x":
        return Injection(paulis=((wires[0], "Z"),))
    if kind == "meas":
        return Injection(flip=True)
    raise ValueError(f"unknown location kind {kind!r}")


def fault_draws(kind: str, wires) -> list[Injection]:
    """All equally-likely fault draws at a failing location of ``kind``.

    The E1_1 conditional draw distribution is uniform within each kind, so
    exact stratum enumeration (``SubsetSampler.enumerate_k1_exact``) weights
    every returned injection by ``1 / len(fault_draws(...))``. Consumers
    iterating a whole location list should use :func:`draw_tables` /
    :func:`draw_counts`, which cache per-universe instead of rebuilding.
    """
    if kind == "1q":
        return [Injection(paulis=((wires[0], letter),)) for letter in ONE_QUBIT_PAULIS]
    if kind == "2q":
        out = []
        for pair in TWO_QUBIT_PAULIS:
            paulis = tuple(
                (w, letter) for w, letter in zip(wires, pair) if letter != "I"
            )
            out.append(Injection(paulis=paulis))
        return out
    if kind == "reset_z":
        return [Injection(paulis=((wires[0], "X"),))]
    if kind == "reset_x":
        return [Injection(paulis=((wires[0], "Z"),))]
    if kind == "meas":
        return [Injection(flip=True)]
    raise ValueError(f"unknown location kind {kind!r}")


@lru_cache(maxsize=None)
def _draw_tables_cached(
    location_kinds: tuple[tuple[str, tuple[int, ...]], ...]
) -> tuple[tuple[Injection, ...], ...]:
    return tuple(
        tuple(fault_draws(kind, wires)) for kind, wires in location_kinds
    )


def draw_tables(locations) -> tuple[tuple[Injection, ...], ...]:
    """Per-location :func:`fault_draws` tables, cached per location universe.

    ``materialize_stratum`` / ``sample_injections_stratum`` and the batch
    engines all hit the same tables; building them once per universe (not
    per call) takes the table construction off every Monte-Carlo batch.
    The returned tuples are shared — treat them as immutable.
    """
    return _draw_tables_cached(
        tuple((kind, tuple(wires)) for _, kind, wires in locations)
    )


@lru_cache(maxsize=None)
def _draw_counts_cached(
    location_kinds: tuple[tuple[str, tuple[int, ...]], ...]
) -> np.ndarray:
    counts = np.asarray(
        [len(table) for table in _draw_tables_cached(location_kinds)],
        dtype=np.int64,
    )
    counts.setflags(write=False)
    return counts


def draw_counts(locations) -> np.ndarray:
    """``len(fault_draws(...))`` per location, cached (read-only array)."""
    return _draw_counts_cached(
        tuple((kind, tuple(wires)) for _, kind, wires in locations)
    )


def sample_injections(
    locations, p: float, rng: np.random.Generator
) -> dict:
    """i.i.d. Bernoulli(p) failures over the static location list."""
    injections = {}
    fails = rng.random(len(locations)) < p
    for (key, kind, wires), failed in zip(locations, fails):
        if failed:
            injections[key] = _draw_fault(kind, wires, rng)
    return injections


def sample_injections_model_batch(
    locations, model, shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Bernoulli (direct Monte-Carlo) batch at fixed rates.

    Every location of every shot fails independently with its rate from
    ``model`` (one ``(shots, locations)`` uniform draw), and each failure
    draws within its kind. Because shots have *variable* fault weight,
    the result is a masked index pair ``(loc_idx, draw_idx)`` of shape
    ``(shots, k_width)`` where ``k_width`` is the largest per-shot fault
    count in the batch and unused slots hold ``loc_idx == -1`` (ignored
    by ``failures_indexed`` and :func:`materialize_stratum`).

    The batch is identical for every engine consuming it — engine
    cross-validation stays exact. The stream is
    :meth:`repro.sim.noisemodels.SiteUniverse.sample_bernoulli`: E1_1's
    ``floor(u * count)`` draw for models with uniform draws and no pair
    sites, weighted draws and pair firings expanded to both member
    locations otherwise.
    """
    from .noisemodels import SiteUniverse  # deferred: imports this module

    return SiteUniverse(locations, model).sample_bernoulli(shots, rng)


def sample_injections_stratum(
    locations, k: int, shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized stratum draw: ``shots`` configurations of exactly ``k``
    faults each, as index arrays instead of per-shot dicts.

    Returns ``(loc_idx, draw_idx)``, both of shape ``(shots, k)``:
    ``loc_idx[s]`` are the failing locations of shot ``s`` and
    ``draw_idx[s, j]`` indexes the uniform conditional draw inside
    ``fault_draws(...)`` of that location. The locations are an exact
    uniform k-subset from Floyd's algorithm, one column per step: step
    ``j`` of ``num - k .. num - 1`` draws ``t`` uniform in ``[0, j]`` per
    shot and takes ``j`` instead where the row already holds ``t``. The
    stratum costs ``k + 1`` ``rng`` calls and no per-location work. Use
    :func:`materialize_stratum` to expand into the dict form the per-shot
    runner consumes. (The batch is identical for every engine consuming
    it — engine cross-validation stays exact.)
    """
    num = len(locations)
    if k > num:
        raise ValueError("more faults than locations")
    loc_idx = np.empty((shots, k), dtype=np.intp)
    for col, j in enumerate(range(num - k, num)):
        t = rng.integers(j + 1, size=shots)
        taken = (loc_idx[:, :col] == t[:, None]).any(axis=1)
        loc_idx[:, col] = np.where(taken, j, t)
    counts = draw_counts(locations)
    uniform = rng.random((shots, k))
    draw_idx = np.floor(uniform * counts[loc_idx]).astype(np.intp)
    return loc_idx, draw_idx


def materialize_stratum(locations, loc_idx, draw_idx) -> list[dict]:
    """Expand indexed fault configurations into per-shot injection dicts.

    Accepts both the rectangular output of
    :func:`sample_injections_stratum` and the masked variable-weight output
    of :func:`sample_injections_model_batch` (``loc_idx == -1`` slots are
    skipped). A location indexed twice within one shot (correlated pair
    sites overlapping a base fault) composes by :func:`compose_injections`
    — the dict path then matches the indexed engines' per-draw XOR.
    """
    tables = draw_tables(locations)
    keys = [key for key, _, _ in locations]
    out = []
    for shot_locs, shot_draws in zip(loc_idx, draw_idx):
        injections: dict = {}
        for l, d in zip(shot_locs.tolist(), shot_draws.tolist()):
            if l < 0:
                continue
            key = keys[l]
            draw = tables[l][d]
            present = injections.get(key)
            injections[key] = (
                draw if present is None else compose_injections(present, draw)
            )
        out.append(injections)
    return out
