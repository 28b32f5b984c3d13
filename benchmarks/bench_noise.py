"""Benchmark/smoke: heterogeneous noise models on the batched path.

The ISSUE-5 datapoint: the η-biased model (``repro.sim.noisemodels``)
versus the uniform E1_1 baseline on Steane — same stratum shape, same
engine, the only difference being conditional-Bernoulli site subsets and
weighted draw-index generation instead of the uniform Floyd k-subset /
``floor(u * counts)`` draws. The recorded ratio quantifies what the
heterogeneous generator costs on the hot path (it must stay a small
constant factor, not a complexity change), next to correctness gates:

* ``model=E1_1(p)`` and no model must produce bit-identical tallies and
  ``estimate`` floats (the round-trip contract), and those estimates must
  be the binomial closed form ``sum_k C(N, k) p^k (1-p)^(N-k) f_k``
  summed here independently of the estimator;
* biased batches must run identically on the batched and per-shot
  reference engines;
* the planner's exact k = 1 mass must match a per-shot
  ``ProtocolRunner`` + ``LogicalJudge`` sum over
  ``SiteUniverse.iter_rows()``, independent of the index arrays, for the
  biased model and for a correlated-pair model. Steane is fault-tolerant,
  so its biased k = 1 mass is 0 on both paths; a single crosstalk event
  is two faults, so the correlated row has a nonzero mass (f_1 ≈ 0.0131)
  that a wrong row weight would move.

Recorder mode (writes ``BENCH_noise.json`` for CI artifacts/deltas)::

    PYTHONPATH=src python -m benchmarks.bench_noise [--code steane]
        [--shots 20000] [--eta 100] [--out BENCH_noise.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.codes.catalog import get_code
from repro.core.protocol import synthesize_protocol
from repro.sim.noise import E1_1
from repro.sim.noisemodels import (
    BiasedPauliModel,
    CorrelatedPairModel,
    binomial_weight,
    site_universe,
)
from repro.sim.sampler import ReferenceSampler, make_sampler
from repro.sim.subset import SubsetSampler


def _time_stratum(engine, shots, k, batch, rng, universe=None, locations=None):
    """Seconds to generate + execute ``shots`` stratum configurations."""
    from repro.sim.noise import sample_injections_stratum

    start = time.perf_counter()
    failures = 0
    remaining = shots
    while remaining > 0:
        step = min(remaining, batch)
        if universe is not None:
            loc_idx, draw_idx = universe.sample_stratum(k, step, rng)
        else:
            loc_idx, draw_idx = sample_injections_stratum(
                locations, k, step, rng
            )
        failures += int(engine.failures_indexed(loc_idx, draw_idx).sum())
        remaining -= step
    return time.perf_counter() - start, failures


def _k1_masses(protocol, reference, model, seed) -> tuple[float, float]:
    """Exact k = 1 mass from the planner and from a per-shot row sum."""
    planner = SubsetSampler.for_protocol(
        protocol, rng=np.random.default_rng(seed), model=model
    )
    planner.enumerate_k1_exact()
    per_shot = sum(
        weight
        for injections, weight in site_universe(reference.locations, model).iter_rows()
        if reference.judge.is_logical_failure(reference.runner.run(injections))
    )
    return float(planner.strata[1].rate), float(per_shot)


def run_recorder(code_key: str, shots: int, k: int, eta: float, seed: int) -> dict:
    synth_start = time.perf_counter()
    protocol = synthesize_protocol(get_code(code_key))
    synth_seconds = time.perf_counter() - synth_start
    engine = make_sampler(protocol)
    locations = engine.locations
    biased = BiasedPauliModel(p=0.01, eta=eta)
    universe = site_universe(locations, biased)

    # Correctness gate 1: E1_1 through the seam is bit-identical.
    plain = SubsetSampler.for_protocol(protocol, rng=np.random.default_rng(seed))
    plain.enumerate_k1_exact()
    plain.sample(2000)
    seamed = SubsetSampler.for_protocol(
        protocol, rng=np.random.default_rng(seed), model=E1_1(p=0.1)
    )
    seamed.enumerate_k1_exact()
    seamed.sample(2000)
    sweep = [1e-3, 1e-2, 1e-1]
    closed_form = []
    for p in sweep:
        mean = 0.0
        for s, stats in plain.strata.items():
            mean += binomial_weight(len(locations), s, p) * stats.rate
        closed_form.append(mean)
    seam_identical = (
        all(
            (plain.strata[s].trials, plain.strata[s].failures)
            == (seamed.strata[s].trials, seamed.strata[s].failures)
            for s in plain.strata
        )
        and plain.curve(sweep) == seamed.curve(sweep)
        and [e.mean for e in plain.curve(sweep)] == closed_form
    )

    # Correctness gate 2: biased batches identical on both engines.
    reference = ReferenceSampler(protocol)
    loc_idx, draw_idx = universe.sample_stratum(
        k, 300, np.random.default_rng(seed + 1)
    )
    engines_identical = bool(
        np.array_equal(
            engine.failures_indexed(loc_idx, draw_idx),
            reference.failures_indexed(loc_idx, draw_idx),
        )
    )

    # Correctness gate 3: the planner's exact k=1 mass equals a per-shot
    # sum over the same rows, each judged on its own.
    biased_k1 = _k1_masses(protocol, reference, biased, seed)

    # The throughput datapoint: uniform vs biased stratum generation.
    batch = 8192
    uniform_seconds, uniform_failures = _time_stratum(
        engine, shots, k, batch, np.random.default_rng(seed + 2),
        locations=locations,
    )
    biased_seconds, biased_failures = _time_stratum(
        engine, shots, k, batch, np.random.default_rng(seed + 2),
        universe=universe,
    )

    # Gate 3 on the correlated-pair model, after the timed region so the
    # throughput datapoint follows the same work as before the row existed.
    correlated_k1 = _k1_masses(
        protocol, reference, CorrelatedPairModel(p=1e-3, pair_rate=5e-4), seed
    )

    return {
        "benchmark": "noise_models",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "code": code_key,
        "locations": len(locations),
        "shots": shots,
        "stratum_k": k,
        "eta": eta,
        "seed": seed,
        "synthesis_seconds": round(synth_seconds, 4),
        "uniform_seconds": round(uniform_seconds, 4),
        "biased_seconds": round(biased_seconds, 4),
        "uniform_shots_per_second": round(shots / uniform_seconds, 1),
        "biased_shots_per_second": round(shots / biased_seconds, 1),
        "biased_vs_uniform_speedup": round(
            uniform_seconds / biased_seconds, 3
        ),
        "uniform_failure_rate": round(uniform_failures / shots, 6),
        "biased_failure_rate": round(biased_failures / shots, 6),
        "e1_1_seam_identical": seam_identical,
        "biased_engines_identical": engines_identical,
        "biased_k1_exact_consistent": abs(biased_k1[0] - biased_k1[1]) < 1e-9,
        "correlated_k1_rate": round(correlated_k1[0], 6),
        "correlated_k1_exact_consistent": abs(correlated_k1[0] - correlated_k1[1]) < 1e-9,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--code", default="steane")
    parser.add_argument("--shots", type=int, default=20_000)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--eta", type=float, default=100.0)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--floor",
        type=float,
        default=0.2,
        help=(
            "fail when the biased generator runs slower than FLOOR x the "
            "uniform one (0 disables; the biased path is allowed a small "
            "constant-factor cost, never a complexity change)"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_noise.json",
    )
    args = parser.parse_args()

    record = run_recorder(args.code, args.shots, args.k, args.eta, args.seed)
    print(json.dumps(record, indent=2))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not record["e1_1_seam_identical"]:
        print(
            "FAIL: E1_1 through the model seam is not bit-identical, or "
            "its estimates are not the binomial closed form"
        )
        return 1
    if not record["biased_engines_identical"]:
        print("FAIL: biased batches differ between engines")
        return 1
    if not record["biased_k1_exact_consistent"]:
        print("FAIL: biased exact k=1 mass differs between paths")
        return 1
    if not record["correlated_k1_exact_consistent"]:
        print("FAIL: correlated-pair exact k=1 mass differs between paths")
        return 1
    ratio = record["biased_vs_uniform_speedup"]
    if args.floor and ratio < args.floor:
        print(
            f"FAIL: biased generator at {ratio}x of uniform throughput "
            f"(< {args.floor}x floor)"
        )
        return 1
    print(
        f"OK: biased stratum path at {ratio}x uniform throughput "
        f"({record['biased_shots_per_second']} vs "
        f"{record['uniform_shots_per_second']} shots/s), all identity "
        "gates passed"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
