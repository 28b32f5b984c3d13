"""Regeneration of the paper's Fig. 4 (logical error rate curves).

For each code's heuristic-prep / optimal-verification protocol (the Table-I
configuration the paper simulates), the full deterministic protocol runs
under the one-parameter ``E1_1`` circuit-level depolarizing model, followed
by a perfect lookup-table EC round and destructive Z-basis readout. The
logical error rate is estimated with subset sampling (paper: 8000 runs at
``p_max = 0.1``, DSS below) and reported over a log sweep of physical
error rates.

The paper's qualitative claim — every curve scales as ``O(p^2)``, i.e. two
independent faults are needed for a logical error — is checked by fitting
the log-log slope over the small-``p`` tail, where the ``k = 2`` stratum
dominates. Stratum ``k = 1`` is enumerated exactly, so for a correct
protocol the linear coefficient vanishes identically rather than
statistically.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass

import numpy as np

from ..codes.catalog import get_code
from ..core.protocol import DeterministicProtocol, synthesize_protocol
from ..obs.trace import span as _obs_span
from ..sim.frame import protocol_locations
from ..sim.noise import E1_1
from ..sim.subset import DirectEstimate, SubsetEstimate, SubsetSampler, direct_mc

__all__ = [
    "FIGURE4_CODES",
    "FIGURE4_SWEEP",
    "Figure4Series",
    "run_series",
    "run_figure4",
    "render_figure4",
]

#: The codes plotted in Fig. 4 (all Table-I instances).
FIGURE4_CODES: list[str] = [
    "steane",
    "shor",
    "surface_3",
    "11_1_3",
    "tetrahedral",
    "hamming",
    "carbon",
    "16_2_4",
    "tesseract",
]

#: Physical error rate sweep 1e-4 .. 1e-1 (paper's x-axis).
FIGURE4_SWEEP: list[float] = [
    float(p) for p in np.logspace(-4, -1, 13)
]


@dataclass
class Figure4Series:
    """One code's p_L(p) curve plus scaling diagnostics."""

    code: str
    estimates: list[SubsetEstimate]
    f1_exact: float
    shots: int
    seconds: float
    locations: int
    engine: str = "batched"
    #: Optional direct (Bernoulli) Monte-Carlo cross-check of the subset
    #: estimator at one fixed rate, on the same batch engine.
    direct: DirectEstimate | None = None

    @property
    def slope(self) -> float:
        """Log-log slope fitted over the small-p half of the sweep."""
        points = [
            (e.p, e.mean)
            for e in self.estimates[: max(2, len(self.estimates) // 2)]
            if e.mean > 0
        ]
        if len(points) < 2:
            return float("nan")
        xs = np.log10([p for p, _ in points])
        ys = np.log10([m for _, m in points])
        return float(np.polyfit(xs, ys, 1)[0])

    @property
    def quadratic_coefficient(self) -> float:
        """Leading coefficient: lim p->0 of p_L / p^2."""
        smallest = self.estimates[0]
        return smallest.mean / smallest.p**2 if smallest.p > 0 else math.nan


def run_series(
    code_key: str,
    *,
    protocol: DeterministicProtocol | None = None,
    shots: int = 8000,
    k_max: int = 3,
    sweep: list[float] | None = None,
    seed: int = 2025,
    exact_k1: bool = True,
    engine: str = "batched",
    direct_check_at: float | None = None,
    direct_shots: int = 4000,
    workers: int = 1,
    max_slab: int | None = None,
    executor=None,
    model=None,
    ledger=None,
) -> Figure4Series:
    """Simulate one code's curve (paper defaults: 8000 shots, k_max keeps
    the truncation tail well under the statistical error at p <= 0.1).

    ``engine`` selects the execution backend (``repro.sim.sampler``):
    the bit-packed ``"batched"`` engine by default, or the per-shot
    ``"reference"`` oracle. Both produce identical series for the same
    seed — the engines differ only in wall-clock.

    Sampled strata, the exact k = 1 enumeration and the direct check
    split into ``max_slab``-bounded chunks with deterministic seeds
    (``repro.sim.shard``), run inline at ``workers=1`` or across
    ``workers`` loopback cluster workers, so the series is identical for
    any worker count. ``executor`` runs the same chunks on a different
    backend (``repro.sim.cluster`` TCP workers) with bit-identical
    series.

    ``direct_check_at`` additionally runs ``direct_shots`` of plain
    Bernoulli Monte-Carlo at that physical rate on the same engine — an
    end-to-end consistency check of the subset decomposition, qsample-style.

    ``model`` selects the noise model (``repro.sim.noisemodels`` seam):
    ``None`` is E1_1 (and bit-identical to passing it); any other
    model reweights strata, draws, and the direct check accordingly
    (the direct check then runs ``model.with_p(direct_check_at)``).

    ``ledger`` selects the results ledger (``repro.serve.ledger``;
    ``None`` = ambient ``REPRO_LEDGER``, ``False`` = the ``--no-ledger``
    escape hatch). A series whose (protocol, model, seed/shot plan) key
    has a stored tally record is *replayed* — the recorded strata feed
    the same estimator arithmetic a cold run uses, bit-identically,
    without building an engine at all — and a cold series records its
    tallies on the way out. The sweep grid is deliberately not part of
    the key: estimates are derived per-point from the tallies, so a hit
    serves any sweep.
    """
    sweep = FIGURE4_SWEEP if sweep is None else sorted(sweep)
    if protocol is None:
        protocol = synthesize_protocol(
            get_code(code_key),
            prep_method="heuristic",
            verification_method="optimal",
        )
    start = time.monotonic()
    from ..store import keys as store_keys

    # Checked before the import: a ``ledger=False`` run never loads
    # ``repro.serve``.
    ledger_obj = None
    if ledger is not False:
        from ..serve.ledger import resolve_ledger

        ledger_obj = resolve_ledger(ledger)
    series_key = None
    if ledger_obj is not None:
        series_key = store_keys.series_key(
            store_keys.protocol_digest(protocol),
            model,
            shots=shots,
            k_max=k_max,
            seed=seed,
            exact_k1=exact_k1,
            max_slab=max_slab,
            direct_check_at=direct_check_at,
            direct_shots=direct_shots,
        )
        record = ledger_obj.get("series", series_key)
        if record is not None:
            with _obs_span("figure4.series", code=code_key, replay=True):
                return _series_from_record(
                    code_key, record, protocol, model, sweep, start
                )
    with _obs_span(
        "figure4.series", code=code_key, shots=shots
    ), SubsetSampler.for_protocol(
        protocol,
        engine=engine,
        k_max=k_max,
        rng=np.random.default_rng(seed),
        workers=workers,
        max_slab=max_slab,
        executor=executor,
        model=model,
        ledger=ledger,
    ) as sampler:
        if exact_k1:
            sampler.enumerate_k1_exact()
        # p_ref=None: 0.1 (the paper's p_max) for uniform models, the
        # model's own strength for heterogeneous ones (whose rates may
        # not be rescalable to 0.1 at all).
        sampler.sample(shots, p_ref=None)
        # A calibrated rate map caps the sweep: points at or above the
        # strength where a site rate reaches 1 are unreachable.
        ceiling = sampler.p_ceiling
        sweep = [p for p in sweep if p < ceiling]
        estimates = sampler.curve(sweep)
        direct = None
        if direct_check_at is not None and direct_check_at >= ceiling:
            # Same skip-not-crash rule as the sweep: the model cannot be
            # rescaled to the requested check strength.
            direct_check_at = None
        if direct_check_at is not None:
            # Reuse the sampler's open chunk executor (one
            # handshake/compile per worker for the whole series); the
            # plan — and therefore the tallies — is the same one a
            # fresh session would run.
            direct_model = (
                model.with_p(direct_check_at)
                if model is not None
                else E1_1(p=direct_check_at)
            )
            direct = direct_mc(
                sampler.engine,
                direct_model,
                direct_shots,
                rng=np.random.default_rng(seed + 1),
                evaluator=sampler.evaluator,
            )
    series = Figure4Series(
        code=code_key,
        estimates=estimates,
        f1_exact=sampler.strata[1].rate if exact_k1 else math.nan,
        shots=sampler.total_trials(),
        seconds=time.monotonic() - start,
        locations=len(sampler.locations),
        engine=engine,
        direct=direct,
    )
    if series_key is not None:
        with _obs_span("ledger.put", kind="series", code=code_key):
            ledger_obj.put(
                "series",
                series_key,
                {
                    "code": code_key,
                    "k_max": int(sampler.k_max),
                    "strata": {
                        str(k): {
                            "trials": int(s.trials),
                            "failures": int(s.failures),
                            "exact": bool(s.exact),
                        }
                        for k, s in sampler.strata.items()
                    },
                    "f1_exact": None
                    if math.isnan(series.f1_exact)
                    else series.f1_exact,
                    "shots": int(series.shots),
                    "engine": engine,
                    "direct": None
                    if direct is None
                    else {
                        "p": float(direct.p),
                        "trials": int(direct.trials),
                        "failures": int(direct.failures),
                    },
                },
            )
    return series


def _series_from_record(
    code_key: str,
    record: dict,
    protocol: DeterministicProtocol,
    model,
    sweep: list[float],
    start: float,
) -> Figure4Series:
    """Replay a ledger series record through the live estimator."""
    locations = protocol_locations(protocol)
    sampler = SubsetSampler.from_tallies(
        locations, record["strata"], model=model, k_max=record["k_max"]
    )
    ceiling = sampler.p_ceiling
    sweep = [p for p in sweep if p < ceiling]
    estimates = sampler.curve(sweep)
    direct = None
    if record.get("direct"):
        d = record["direct"]
        direct = DirectEstimate(
            p=float(d["p"]), trials=int(d["trials"]), failures=int(d["failures"])
        )
    f1 = record.get("f1_exact")
    return Figure4Series(
        code=code_key,
        estimates=estimates,
        f1_exact=math.nan if f1 is None else float(f1),
        shots=int(record["shots"]),
        seconds=time.monotonic() - start,
        locations=len(locations),
        engine=record.get("engine", "batched"),
        direct=direct,
    )


def _series_task(args: tuple) -> Figure4Series:
    """Module-level worker body so multiprocessing can pickle it."""
    (
        code,
        shots,
        sweep,
        seed,
        engine,
        direct_check_at,
        workers,
        max_slab,
        executor,
        model,
        ledger,
    ) = args
    return run_series(
        code,
        shots=shots,
        sweep=sweep,
        seed=seed,
        engine=engine,
        direct_check_at=direct_check_at,
        workers=workers,
        max_slab=max_slab,
        executor=executor,
        model=model,
        ledger=ledger,
    )


def run_figure4(
    codes: list[str] | None = None,
    *,
    shots: int = 8000,
    sweep: list[float] | None = None,
    seed: int = 2025,
    engine: str = "batched",
    workers: int = 1,
    direct_check_at: float | None = None,
    max_slab: int | None = None,
    executor=None,
    model=None,
    ledger=None,
) -> list[Figure4Series]:
    """Regenerate all Fig. 4 series.

    Every series runs the same chunk plans whatever the parallelism, so
    the results depend only on the inputs, never on ``workers`` or the
    backend. The parallelism axis follows from the inputs: with more
    than one code, ``workers > 1`` and no ``executor``, whole codes go
    to a spawn pool (each series runs ``workers=1`` inline — good when
    many codes are requested); otherwise codes run in turn and each
    code's chunks shard across ``workers`` loopback workers or the
    ``executor`` backend (good when one large code dominates the
    wall-clock). Results come back in input order. ``max_slab`` bounds
    the configurations materialized per chunk.

    ``ledger`` threads the results ledger through every series (see
    :func:`run_series`): covered (code, p) points replay from recorded
    tallies — inside a pool worker that is a millisecond task, no
    engine, no sampling — and partially-covered series reuse stored
    chunk partials; ``False`` is the ``--no-ledger`` escape hatch. The
    ledger instance itself crosses the spawn-pool boundary as a path.
    """
    codes = FIGURE4_CODES if codes is None else codes
    per_code = len(codes) > 1 and workers > 1 and executor is None
    tasks = [
        (
            code,
            shots,
            sweep,
            seed,
            engine,
            direct_check_at,
            1 if per_code else workers,
            max_slab,
            executor,
            model,
            ledger,
        )
        for code in codes
    ]
    if per_code:
        with multiprocessing.get_context("spawn").Pool(
            min(workers, len(codes))
        ) as pool:
            return pool.map(_series_task, tasks)
    return [_series_task(task) for task in tasks]


def render_figure4(series: list[Figure4Series]) -> str:
    """Text rendering: one block per code, one line per sweep point."""
    lines = []
    for s in series:
        lines.append(
            f"== {s.code}  (locations={s.locations}, shots={s.shots}, "
            f"f1={s.f1_exact:.2g}, slope={s.slope:.2f}, "
            f"c2={s.quadratic_coefficient:.3g}, {s.seconds:.1f}s)"
        )
        for est in s.estimates:
            lines.append(
                f"   p={est.p:9.3e}  pL={est.mean:9.3e}  "
                f"[{est.lower:9.3e}, {est.upper:9.3e}]  tail={est.tail:8.2e}"
            )
        if s.direct is not None:
            lines.append(f"   direct-MC check: {s.direct}")
    return "\n".join(lines)
