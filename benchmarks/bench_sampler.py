"""Benchmark: batched bit-packed engine vs per-shot reference runner.

Times one full ``FIGURE4_SHOTS``-shot k=2 stratum per engine on the same
seeded fault draws, and asserts the verdicts are identical — the speedup
printed here is the whole point of the ``repro.sim.sampler`` engine.

    pytest benchmarks/bench_sampler.py --benchmark-only
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.noise import sample_injections_stratum
from repro.sim.sampler import BatchedSampler, ReferenceSampler

from .conftest import FIGURE4_SHOTS, bench_protocol


def _stratum(protocol, k=2, seed=2025):
    engine = BatchedSampler(protocol)
    rng = np.random.default_rng(seed)
    return sample_injections_stratum(engine.locations, k, FIGURE4_SHOTS, rng)


@pytest.mark.parametrize("code_key", ["steane", "surface_3", "carbon"])
def test_batched_engine(benchmark, code_key):
    """Time the batched engine; cross-check the reference off the clock."""
    protocol = bench_protocol(code_key)
    engine = BatchedSampler(protocol)
    loc_idx, draw_idx = _stratum(protocol)
    verdicts = benchmark(engine.failures_indexed, loc_idx, draw_idx)
    reference = ReferenceSampler(protocol).failures_indexed(loc_idx, draw_idx)
    assert np.array_equal(verdicts, reference), (
        f"{code_key}: engines disagree on the same fault draws"
    )


@pytest.mark.parametrize("code_key", ["steane", "surface_3", "carbon"])
def test_reference_engine(benchmark, code_key):
    protocol = bench_protocol(code_key)
    engine = ReferenceSampler(protocol)
    loc_idx, draw_idx = _stratum(protocol)
    benchmark.pedantic(
        engine.failures_indexed, args=(loc_idx, draw_idx), rounds=1, iterations=1
    )
