"""Tests for exact two-fault error-budget attribution."""

import math

import numpy as np
import pytest

from repro.core.analysis import two_fault_error_budget
from repro.sim.subset import SubsetSampler

from ..conftest import cached_protocol
from ..reference import reference_mass


@pytest.fixture(scope="module")
def steane_budget():
    return two_fault_error_budget(cached_protocol("steane"))


class TestBudget:
    def test_f2_positive(self, steane_budget):
        assert 0 < steane_budget.f2_exact < 1

    def test_c2_consistent(self, steane_budget):
        pairs = math.comb(steane_budget.num_locations, 2)
        assert steane_budget.c2_exact == pytest.approx(
            pairs * steane_budget.f2_exact
        )

    def test_masses_sum_to_f2(self, steane_budget):
        assert sum(steane_budget.by_segment_pair.values()) == pytest.approx(
            steane_budget.f2_exact
        )
        assert sum(steane_budget.by_kind_pair.values()) == pytest.approx(
            steane_budget.f2_exact
        )

    def test_segment_labels(self, steane_budget):
        labels = {s for pair in steane_budget.by_segment_pair for s in pair}
        assert labels <= {"prep", "verif", "branch"}

    def test_kind_labels(self, steane_budget):
        labels = {k for pair in steane_budget.by_kind_pair for k in pair}
        assert labels <= {"1q", "2q", "reset_z", "reset_x", "meas"}

    def test_pair_keys_sorted(self, steane_budget):
        for a, b in steane_budget.by_segment_pair:
            assert a <= b

    def test_render(self, steane_budget):
        text = steane_budget.render()
        assert "c2" in text
        assert "%" in text

    def test_top_pairs_ordering(self, steane_budget):
        top = steane_budget.top_segment_pairs()
        masses = [m for _, m in top]
        assert masses == sorted(masses, reverse=True)

    def test_max_runs_guard(self):
        with pytest.raises(ValueError):
            two_fault_error_budget(cached_protocol("steane"), max_runs=10)


class TestConsistencyWithSubsetSampler:
    def test_budget_matches_exact_k2(self, steane_budget):
        """Two independent exact k=2 enumerations must agree to rounding:
        the budget's and the per-shot reference sum over the ``None``
        universe's uniform run weights."""
        assert reference_mass(
            cached_protocol("steane"), 2, model=None
        ) == pytest.approx(
            steane_budget.f2_exact, abs=1e-6
        )

    def test_budget_matches_sampled_estimate(self, steane_budget):
        """The MC estimate of f_2 must agree within 5 sigma."""
        sampler = SubsetSampler.for_protocol(
            cached_protocol("steane"),
            engine="reference",
            k_max=2,
            rng=np.random.default_rng(3),
        )
        sampler.sample_stratum(2, 4000)
        estimate = sampler.strata[2].rate
        sigma = sampler.strata[2].std_error()
        assert abs(estimate - steane_budget.f2_exact) < 5 * sigma
