"""Tests for the scaled noise model and exact k=2 subset stratum."""

import numpy as np
import pytest

from repro.sim.frame import protocol_locations
from repro.sim.noise import (
    E1_1,
    ScaledNoiseModel,
    draw_counts,
    sample_injections_model_batch,
)
from repro.sim.sampler import BatchedSampler, ReferenceSampler
from repro.sim.subset import SubsetSampler, direct_mc

from ..conftest import cached_protocol
from ..reference import FakeEngine, reference_mass


class TestScaledModel:
    def test_defaults_match_e1_1(self):
        scaled = ScaledNoiseModel(p=0.01)
        uniform = E1_1(p=0.01)
        for kind in ("1q", "2q", "reset_z", "reset_x", "meas"):
            assert scaled.probability(kind) == uniform.probability(kind)

    def test_per_kind_scaling(self):
        model = ScaledNoiseModel(p=0.001, two_qubit=5.0, measurement=10.0)
        assert model.probability("2q") == pytest.approx(0.005)
        assert model.probability("meas") == pytest.approx(0.01)
        assert model.probability("1q") == pytest.approx(0.001)
        assert model.probability("reset_z") == pytest.approx(0.001)

    def test_rate_bounds_checked_at_construction(self):
        """Rates are validated once when the model is built, not per call."""
        with pytest.raises(ValueError):
            ScaledNoiseModel(p=0.5, two_qubit=3.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ScaledNoiseModel(p=0.01, measurement=-1.0)

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            ScaledNoiseModel(p=0.01).probability("3q")

    def test_kind_rates_vectorized(self):
        locations = protocol_locations(cached_protocol("steane"))
        model = ScaledNoiseModel(p=0.002, two_qubit=5.0, measurement=10.0)
        rates = model.kind_rates(locations)
        assert rates.shape == (len(locations),)
        for rate, (_, kind, _) in zip(rates, locations):
            assert rate == pytest.approx(model.probability(kind))

    def test_e1_1_kind_rates(self):
        locations = protocol_locations(cached_protocol("steane"))
        rates = E1_1(p=0.03).kind_rates(locations)
        assert (rates == 0.03).all()


class TestSampleWithModel:
    """Per-kind rates of a ScaledNoiseModel through the Bernoulli batch."""

    def test_zero_rate(self):
        locations = protocol_locations(cached_protocol("steane"))
        model = ScaledNoiseModel(p=0.0)
        loc_idx, _ = sample_injections_model_batch(
            locations, model, 1, np.random.default_rng(0)
        )
        assert not (loc_idx >= 0).any()

    def test_kind_bias_observable(self):
        """With two_qubit=10x, 2q locations must fail far more often."""
        locations = protocol_locations(cached_protocol("steane"))
        kinds = [kind for _, kind, _ in locations]
        model = ScaledNoiseModel(p=0.005, two_qubit=10.0)
        loc_idx, _ = sample_injections_model_batch(
            locations, model, 2000, np.random.default_rng(1)
        )
        hits = loc_idx[loc_idx >= 0].tolist()
        hits_2q = sum(1 for loc in hits if kinds[loc] == "2q")
        num_2q = sum(1 for kind in kinds if kind == "2q")
        num_other = len(kinds) - num_2q
        rate_2q = hits_2q / num_2q
        rate_other = (len(hits) - hits_2q) / max(num_other, 1)
        assert rate_2q > 5 * rate_other

    def test_matches_e1_1_statistics(self):
        locations = protocol_locations(cached_protocol("steane"))
        model = ScaledNoiseModel(p=0.1)
        loc_idx, _ = sample_injections_model_batch(
            locations, model, 500, np.random.default_rng(2)
        )
        counts = (loc_idx >= 0).sum(axis=1)
        assert abs(np.mean(counts) - 0.1 * len(locations)) < 0.4


class TestModelBatch:
    """The vectorized Bernoulli generator (direct-MC on the batch engine)."""

    def test_masked_arrays_well_formed(self):
        locations = protocol_locations(cached_protocol("steane"))
        model = ScaledNoiseModel(p=0.08, two_qubit=2.0)
        loc_idx, draw_idx = sample_injections_model_batch(
            locations, model, 400, np.random.default_rng(0)
        )
        assert loc_idx.shape == draw_idx.shape
        assert loc_idx.shape[0] == 400
        counts = draw_counts(locations)
        filled = loc_idx >= 0
        assert filled.any()
        assert (draw_idx[filled] < counts[loc_idx[filled]]).all()
        assert (draw_idx[filled] >= 0).all()
        # Unused slots are masked with -1 and sit after the filled ones.
        per_shot = filled.sum(axis=1)
        assert loc_idx.shape[1] == per_shot.max()

    def test_zero_rate_gives_empty_batch(self):
        locations = protocol_locations(cached_protocol("steane"))
        loc_idx, draw_idx = sample_injections_model_batch(
            locations, ScaledNoiseModel(p=0.0), 50, np.random.default_rng(0)
        )
        assert loc_idx.shape == (50, 0)
        assert draw_idx.shape == (50, 0)

    def test_fault_count_statistics(self):
        locations = protocol_locations(cached_protocol("steane"))
        model = E1_1(p=0.1)
        loc_idx, _ = sample_injections_model_batch(
            locations, model, 4000, np.random.default_rng(3)
        )
        mean_faults = (loc_idx >= 0).sum(axis=1).mean()
        assert abs(mean_faults - 0.1 * len(locations)) < 0.15

    def test_kind_bias_observable(self):
        locations = protocol_locations(cached_protocol("steane"))
        kinds = [kind for _, kind, _ in locations]
        model = ScaledNoiseModel(p=0.004, two_qubit=10.0)
        loc_idx, _ = sample_injections_model_batch(
            locations, model, 4000, np.random.default_rng(4)
        )
        hits = loc_idx[loc_idx >= 0]
        two_qubit_hits = sum(1 for l in hits if kinds[l] == "2q")
        num_2q = sum(1 for k in kinds if k == "2q")
        rate_2q = two_qubit_hits / num_2q
        rate_other = (hits.size - two_qubit_hits) / (len(kinds) - num_2q)
        assert rate_2q > 5 * rate_other

    def test_engines_agree_on_same_batch(self):
        """Variable-weight masked batches run identically on both engines."""
        protocol = cached_protocol("steane")
        batched = BatchedSampler(protocol)
        reference = ReferenceSampler(protocol)
        loc_idx, draw_idx = sample_injections_model_batch(
            batched.locations,
            E1_1(p=0.08),
            300,
            np.random.default_rng(5),
        )
        assert np.array_equal(
            batched.failures_indexed(loc_idx, draw_idx),
            reference.failures_indexed(loc_idx, draw_idx),
        )

    def test_direct_mc_consistent_with_exact_strata(self):
        """Direct MC at fixed p must agree with the subset decomposition
        (exact k=1 + exact k=2 dominate p_L at small p) within 5 sigma."""
        protocol = cached_protocol("steane")
        p = 0.02
        sampler = SubsetSampler.for_protocol(
            protocol, k_max=2, rng=np.random.default_rng(7)
        )
        sampler.enumerate_k1_exact()
        sampler.enumerate_k2_exact()
        expected = sampler.estimate(p)
        estimate = direct_mc(
            sampler.engine,
            E1_1(p=p),
            6000,
            rng=np.random.default_rng(8),
        )
        sigma = max(
            np.sqrt(expected.mean * (1 - expected.mean) / estimate.trials),
            1.0 / estimate.trials,
        )
        assert abs(estimate.rate - expected.mean) < 5 * sigma + expected.tail

    def test_direct_mc_engines_agree(self):
        protocol = cached_protocol("steane")
        results = []
        for engine_cls in (BatchedSampler, ReferenceSampler):
            estimate = direct_mc(
                engine_cls(protocol),
                E1_1(p=0.05),
                400,
                rng=np.random.default_rng(9),
            )
            results.append((estimate.trials, estimate.failures))
        assert results[0] == results[1]


class TestExactK2:
    def test_exact_matches_semantics(self):
        """Threshold-2 toy model: every pair fails, so f2 must be 1."""
        locations = [((("seg",), i), "meas", (0,)) for i in range(8)]
        sampler = SubsetSampler(
            FakeEngine(lambda injections: len(injections) >= 2, locations),
            k_max=2,
            rng=np.random.default_rng(0),
        )
        sampler.enumerate_k2_exact()
        assert sampler.strata[2].exact
        assert sampler.strata[2].rate == pytest.approx(1.0)

    def test_partial_failure_weighting(self):
        """Fail only when both locations are even-indexed: f2 = C(4,2)/C(8,2)."""
        locations = [((("seg",), i), "meas", (0,)) for i in range(8)]

        def fn(injections):
            return all(key[1] % 2 == 0 for key in injections) and len(
                injections
            ) == 2

        sampler = SubsetSampler(
            FakeEngine(fn, locations), k_max=2, rng=np.random.default_rng(0)
        )
        sampler.enumerate_k2_exact()
        assert sampler.strata[2].rate == pytest.approx(6 / 28, abs=1e-9)

    def test_requires_k_max_2(self):
        locations = [((("seg",), i), "meas", (0,)) for i in range(4)]
        sampler = SubsetSampler(
            FakeEngine(lambda inj: False, locations), k_max=1,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError):
            sampler.enumerate_k2_exact()

    def test_max_runs_guard(self):
        locations = [((("seg",), i), "2q", (0, 1)) for i in range(30)]
        sampler = SubsetSampler(
            FakeEngine(lambda inj: False, locations), k_max=2,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError):
            sampler.enumerate_k2_exact(max_runs=100)

    def test_steane_exact_c2_against_known_value(self):
        """Regression-pin the exact quadratic coefficient of the Steane
        protocol, and check the planner's f2 against the per-shot
        reference sum (independently computed by core.analysis too)."""
        import math

        protocol = cached_protocol("steane")
        sampler = SubsetSampler.for_protocol(
            protocol, k_max=2, rng=np.random.default_rng(0)
        )
        sampler.enumerate_k2_exact()
        f2 = sampler.strata[2].rate
        assert f2 == pytest.approx(reference_mass(protocol, 2), abs=1e-9)
        c2 = math.comb(len(sampler.locations), 2) * f2
        assert c2 == pytest.approx(57.40, abs=0.05)
