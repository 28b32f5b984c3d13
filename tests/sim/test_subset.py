"""Unit tests for the subset-sampling estimator (the DSS substitute)."""

import math

import numpy as np
import pytest

from repro.sim.noisemodels import binomial_weight, tail_weight
from repro.sim.subset import SubsetSampler, wilson_interval

from ..reference import FakeEngine


class TestWeights:
    def test_binomial_normalized(self):
        n, p = 12, 0.07
        total = sum(binomial_weight(n, k, p) for k in range(n + 1))
        assert total == pytest.approx(1.0)

    def test_tail_complements_head(self):
        n, p, k_max = 20, 0.05, 3
        head = sum(binomial_weight(n, k, p) for k in range(k_max + 1))
        assert tail_weight(n, k_max, p) == pytest.approx(1 - head)

    def test_tail_zero_at_full_kmax(self):
        assert tail_weight(10, 10, 0.3) == pytest.approx(0.0)

    def test_weight_small_p_leading_order(self):
        # w_k ~ C(n,k) p^k for p -> 0.
        n, k, p = 30, 2, 1e-5
        expected = math.comb(n, k) * p**k
        assert binomial_weight(n, k, p) == pytest.approx(expected, rel=1e-2)


class TestWilson:
    def test_no_trials_maximally_uncertain(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(3, 10)
        assert lo <= 0.3 <= hi

    def test_zero_failures_lower_zero(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0 < hi < 0.05

    def test_shrinks_with_trials(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(100, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_bounded(self):
        lo, hi = wilson_interval(10, 10)
        assert 0.0 <= lo <= hi <= 1.0


FAKE_LOCATIONS = [((("seg",), i), "meas", (0,)) for i in range(20)]


def threshold_engine(threshold, locations=FAKE_LOCATIONS):
    """Fails iff at least ``threshold`` locations were hit."""
    return FakeEngine(lambda injections: len(injections) >= threshold, locations)


class TestSamplerMechanics:
    def test_stratum_zero_deterministic(self):
        sampler = SubsetSampler(
            threshold_engine(1), k_max=2,
            rng=np.random.default_rng(0),
        )
        assert sampler.strata[0].exact
        assert sampler.strata[0].rate == 0.0

    def test_stratum_zero_failing_circuit(self):
        sampler = SubsetSampler(
            FakeEngine(lambda inj: True, FAKE_LOCATIONS), k_max=1,
            rng=np.random.default_rng(0),
        )
        assert sampler.strata[0].rate == 1.0

    def test_threshold_model_rates(self):
        """Failure iff >= 2 faults: f_1 = 0, f_2 = 1 exactly."""
        sampler = SubsetSampler(
            threshold_engine(2), k_max=3,
            rng=np.random.default_rng(1),
        )
        for k in (1, 2, 3):
            sampler.sample_stratum(k, 100)
        assert sampler.strata[1].rate == 0.0
        assert sampler.strata[2].rate == 1.0
        assert sampler.strata[3].rate == 1.0

    def test_exact_k1_enumeration(self):
        sampler = SubsetSampler(
            threshold_engine(1), k_max=2,
            rng=np.random.default_rng(2),
        )
        sampler.enumerate_k1_exact()
        assert sampler.strata[1].exact
        assert sampler.strata[1].rate == pytest.approx(1.0)

    def test_exact_k1_partial_failure(self):
        # Only even locations fail.
        def fn(injections):
            return any(key[1] % 2 == 0 for key in injections)

        sampler = SubsetSampler(
            FakeEngine(fn, FAKE_LOCATIONS), k_max=1,
            rng=np.random.default_rng(3),
        )
        sampler.enumerate_k1_exact()
        assert sampler.strata[1].rate == pytest.approx(0.5)

    def test_dynamic_allocation_spends_budget(self):
        sampler = SubsetSampler(
            threshold_engine(2), k_max=3,
            rng=np.random.default_rng(4),
        )
        sampler.sample(500)
        assert sampler.total_trials() == 500

    @pytest.mark.parametrize("shots", range(11))
    def test_budget_below_the_strata_count_is_not_overspent(self, shots):
        """The seed round seeds only as many strata as the budget pays
        for: ``sample(0)`` runs nothing, ``sample(1)`` one trial."""
        sampler = SubsetSampler(
            threshold_engine(2), k_max=3,
            rng=np.random.default_rng(4),
        )
        sampler.sample(shots)
        assert sampler.total_trials() == shots

    def test_k_max_clamped_to_locations(self):
        sampler = SubsetSampler(
            threshold_engine(1, FAKE_LOCATIONS[:3]), k_max=10,
            rng=np.random.default_rng(6),
        )
        assert sampler.k_max == 3

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            SubsetSampler(threshold_engine(1), k_max=0)


class TestEstimates:
    def make_threshold_sampler(self):
        sampler = SubsetSampler(
            threshold_engine(2), k_max=3,
            rng=np.random.default_rng(7),
        )
        sampler.enumerate_k1_exact()
        for k in (2, 3):
            sampler.sample_stratum(k, 300)
        return sampler

    def test_estimate_matches_analytic(self):
        """Threshold-2 model: p_L = P(K >= 2) exactly computable."""
        sampler = self.make_threshold_sampler()
        n = len(FAKE_LOCATIONS)
        for p in (0.001, 0.01, 0.05):
            estimate = sampler.estimate(p)
            analytic = (
                1.0
                - binomial_weight(n, 0, p)
                - binomial_weight(n, 1, p)
            )
            # Sampled f_2 = f_3 = 1 exactly, so only the tail is missing.
            assert estimate.mean == pytest.approx(
                analytic - tail_weight(n, 3, p), rel=1e-9
            )
            assert estimate.lower <= estimate.mean <= estimate.upper

    def test_upper_includes_tail(self):
        sampler = self.make_threshold_sampler()
        estimate = sampler.estimate(0.05)
        assert estimate.upper >= estimate.mean + estimate.tail * 0.99

    def test_curve_sorted_increasing(self):
        sampler = self.make_threshold_sampler()
        curve = sampler.curve([1e-4, 1e-3, 1e-2])
        means = [e.mean for e in curve]
        assert means == sorted(means)

    def test_quadratic_scaling_of_threshold_model(self):
        """f_1 = 0 forces p_L ~ C p^2 at small p."""
        sampler = self.make_threshold_sampler()
        e1 = sampler.estimate(1e-4)
        e2 = sampler.estimate(2e-4)
        assert e2.mean / e1.mean == pytest.approx(4.0, rel=0.01)

    def test_str(self):
        sampler = self.make_threshold_sampler()
        assert "p_L" in str(sampler.estimate(0.01))
