"""End-to-end integration: synthesis -> simulation -> O(p^2) scaling.

These tests re-run the paper's Fig. 4 logic at reduced sample counts and
assert its *qualitative* conclusions: exact vanishing of the linear
coefficient, quadratic log-log slope, and monotonicity of the curve.
"""

import numpy as np
import pytest

from repro.experiments.figure4 import run_series
from repro.sim.frame import ProtocolRunner, protocol_locations
from repro.sim.logical import LogicalJudge
from repro.sim.subset import SubsetSampler

from ..conftest import cached_protocol


def make_sampler(protocol, seed=11, k_max=2):
    return SubsetSampler.for_protocol(
        protocol,
        engine="reference",
        k_max=k_max,
        rng=np.random.default_rng(seed),
    )


class TestQuadraticScaling:
    @pytest.mark.parametrize("key", ["steane", "shor", "surface_3", "carbon"])
    def test_linear_coefficient_exactly_zero(self, key):
        """FT circuits: the k=1 stratum never fails — enumerated exactly."""
        sampler = make_sampler(cached_protocol(key))
        sampler.enumerate_k1_exact()
        assert sampler.strata[1].rate == 0.0

    @pytest.mark.parametrize("key", ["steane", "surface_3"])
    def test_loglog_slope_is_two(self, key):
        series = run_series(
            key,
            protocol=cached_protocol(key),
            shots=1500,
            k_max=2,
            sweep=[1e-4, 3e-4, 1e-3, 3e-3, 1e-2],
            seed=5,
        )
        assert series.slope == pytest.approx(2.0, abs=0.1)

    def test_curve_monotone_where_truncation_negligible(self):
        """p_L(p) increases with p wherever the unsampled tail is small.
        (At p near p_max with k_max=2 the truncated estimator legitimately
        turns over — the tail bound reports exactly when.)"""
        series = run_series(
            "steane",
            protocol=cached_protocol("steane"),
            shots=1500,
            k_max=2,
            seed=6,
        )
        trusted = [e.mean for e in series.estimates if e.tail < 0.01]
        assert len(trusted) >= 8
        assert trusted == sorted(trusted)

    def test_nonzero_failure_rate_at_k2(self):
        """Two faults genuinely can cause logical errors (d < 5)."""
        sampler = make_sampler(cached_protocol("steane"), seed=13)
        sampler.sample_stratum(2, 800)
        assert sampler.strata[2].failures > 0

    def test_seed_reproducibility(self):
        a = run_series(
            "steane", protocol=cached_protocol("steane"),
            shots=500, k_max=2, seed=21,
        )
        b = run_series(
            "steane", protocol=cached_protocol("steane"),
            shots=500, k_max=2, seed=21,
        )
        assert [e.mean for e in a.estimates] == [e.mean for e in b.estimates]


class TestDirectMonteCarloConsistency:
    def test_subset_estimate_matches_direct_sampling(self):
        """At moderate p the subset estimate must agree with plain
        Bernoulli Monte-Carlo within combined statistical error."""
        from repro.sim.noise import sample_injections

        protocol = cached_protocol("steane")
        runner = ProtocolRunner(protocol)
        judge = LogicalJudge(protocol.code)
        locations = protocol_locations(protocol)

        p = 0.02
        sampler = make_sampler(protocol, seed=3, k_max=4)
        sampler.enumerate_k1_exact()
        sampler.sample(4000, p_ref=p)
        estimate = sampler.estimate(p)

        rng = np.random.default_rng(17)
        shots = 20000
        failures = sum(
            judge.is_logical_failure(
                runner.run(sample_injections(locations, p, rng))
            )
            for _ in range(shots)
        )
        direct = failures / shots
        sigma = (direct * (1 - direct) / shots) ** 0.5
        assert abs(direct - estimate.mean) < 5 * sigma + estimate.tail


class TestProtocolDeterminism:
    """The 'deterministic' in the paper's title: one pass, no retries."""

    @pytest.mark.parametrize("key", ["steane", "carbon"])
    def test_single_pass_execution(self, key):
        """Every single-fault run completes in one pass through the layer
        list — the runner never loops back (structural property of the
        executor, asserted via branches_taken ordering)."""
        from repro.core.ftcheck import enumerate_checkable_injections

        protocol = cached_protocol(key)
        runner = ProtocolRunner(protocol)
        for location, injection in enumerate_checkable_injections(protocol):
            result = runner.run({location: injection})
            layer_indices = [li for li, _, _ in result.branches_taken]
            assert layer_indices == sorted(set(layer_indices))

    def test_every_triggered_run_gets_recovery_or_termination(self):
        """No verification trigger is ever left unhandled by one fault."""
        from repro.core.ftcheck import enumerate_checkable_injections

        protocol = cached_protocol("steane")
        runner = ProtocolRunner(protocol)
        for location, injection in enumerate_checkable_injections(protocol):
            result = runner.run({location: injection})
            triggered = any(
                result.flips.get(bit, 0)
                for layer in protocol.layers
                for bit in layer.bits + layer.flag_bits
            )
            if triggered:
                assert result.branches_taken, (
                    f"trigger without branch for fault at {location}"
                )
