"""Cross-validation of the heterogeneous noise subsystem (ISSUE 5).

The acceptance contract of ``repro.sim.noisemodels``:

* E1_1 routed through the new ``model=`` seam is **bit-identical** to not
  passing a model at all — on the subset sampler (serial and sharded),
  the FT certificate, the exact two-fault budget, and direct MC;
* ``BiasedPauliModel`` logical-failure estimates on Steane agree with the
  per-shot :class:`ReferenceSampler` within Monte-Carlo error;
* the exact biased k ≤ 2 enumerations match an independent brute-force
  enumeration (weights recomputed from first principles in this file);
* correlated pair sites execute identically on both engines and surface
  as single events in the k = 1 exact stratum and the certificate.
"""

import itertools
import math

import numpy as np
import pytest

from repro.core.analysis import two_fault_error_budget
from repro.core.faults import ONE_QUBIT_PAULIS, TWO_QUBIT_PAULIS
from repro.core.ftcheck import check_fault_tolerance
from repro.sim.noise import E1_1, draw_counts
from repro.sim.noisemodels import (
    BiasedPauliModel,
    CorrelatedPairModel,
    site_universe,
)
from repro.sim.sampler import BatchedSampler, ReferenceSampler, make_sampler
from repro.sim.subset import SubsetSampler, direct_mc

from ..conftest import cached_protocol
from ..reference import reference_mass

BIASED = BiasedPauliModel(p=0.02, eta=50.0)


def strata_tallies(sampler):
    return {
        k: (s.trials, s.failures, s.exact) for k, s in sampler.strata.items()
    }


class TestE11SeamBitIdentity:
    """Passing model=E1_1 must change nothing, bit for bit."""

    def test_subset_sampler_serial(self, steane_protocol):
        plain = SubsetSampler.for_protocol(
            steane_protocol, rng=np.random.default_rng(7)
        )
        plain.enumerate_k1_exact()
        plain.sample(1200)
        seamed = SubsetSampler.for_protocol(
            steane_protocol,
            rng=np.random.default_rng(7),
            model=E1_1(p=0.1),
        )
        seamed.enumerate_k1_exact()
        seamed.sample(1200)
        assert strata_tallies(plain) == strata_tallies(seamed)
        for p in (1e-4, 1e-3, 1e-2, 1e-1):
            a, b = plain.estimate(p), seamed.estimate(p)
            assert (a.mean, a.lower, a.upper, a.tail) == (
                b.mean,
                b.lower,
                b.upper,
                b.tail,
            )

    def test_subset_sampler_sharded(self, steane_protocol):
        with SubsetSampler.for_protocol(
            steane_protocol, rng=np.random.default_rng(13), workers=2
        ) as plain:
            plain.enumerate_k1_exact()
            plain.sample(1000)
            plain_tallies = strata_tallies(plain)
        with SubsetSampler.for_protocol(
            steane_protocol,
            rng=np.random.default_rng(13),
            workers=2,
            model=E1_1(p=0.1),
        ) as seamed:
            seamed.enumerate_k1_exact()
            seamed.sample(1000)
            assert plain_tallies == strata_tallies(seamed)

    def test_ftcheck_and_budget(self, steane_protocol):
        assert check_fault_tolerance(steane_protocol) == check_fault_tolerance(
            steane_protocol, model=E1_1(p=1e-3)
        )
        assert two_fault_error_budget(steane_protocol) == two_fault_error_budget(
            steane_protocol, model=E1_1(p=1e-3)
        )

    def test_direct_mc(self, steane_protocol):
        engine = make_sampler(steane_protocol)
        a = direct_mc(engine, E1_1(p=0.05), 600, rng=np.random.default_rng(3))
        b = direct_mc(engine, E1_1(p=0.05), 600, rng=np.random.default_rng(3))
        assert (a.trials, a.failures) == (b.trials, b.failures)

    def test_run_series_seam(self, steane_protocol):
        from repro.experiments.figure4 import run_series

        plain = run_series(
            "steane", protocol=steane_protocol, shots=400, seed=5
        )
        seamed = run_series(
            "steane",
            protocol=steane_protocol,
            shots=400,
            seed=5,
            model=E1_1(p=0.1),
        )
        assert [e.mean for e in plain.estimates] == [
            e.mean for e in seamed.estimates
        ]
        assert plain.f1_exact == seamed.f1_exact


class TestBiasedEngineParity:
    def test_stratum_batches_identical_on_both_engines(self, steane_protocol):
        batched = BatchedSampler(steane_protocol)
        reference = ReferenceSampler(steane_protocol)
        universe = site_universe(batched.locations, BIASED)
        loc_idx, draw_idx = universe.sample_stratum(
            2, 400, np.random.default_rng(21)
        )
        assert np.array_equal(
            batched.failures_indexed(loc_idx, draw_idx),
            reference.failures_indexed(loc_idx, draw_idx),
        )

    def test_bernoulli_batches_identical_on_both_engines(self, steane_protocol):
        from repro.sim.noise import sample_injections_model_batch

        batched = BatchedSampler(steane_protocol)
        reference = ReferenceSampler(steane_protocol)
        loc_idx, draw_idx = sample_injections_model_batch(
            batched.locations, BIASED, 300, np.random.default_rng(22)
        )
        assert np.array_equal(
            batched.failures_indexed(loc_idx, draw_idx),
            reference.failures_indexed(loc_idx, draw_idx),
        )

    def test_subset_estimate_agrees_with_reference_direct_mc(
        self, steane_protocol
    ):
        """ISSUE-5 acceptance: biased p_L on Steane from the subset
        decomposition matches the per-shot reference sampler's direct
        Bernoulli estimate within Monte-Carlo error."""
        sampler = SubsetSampler.for_protocol(
            steane_protocol,
            k_max=3,
            rng=np.random.default_rng(11),
            model=BIASED,
        )
        sampler.enumerate_k1_exact()
        sampler.enumerate_k2_exact()
        sampler.sample(3000)
        expected = sampler.estimate(BIASED.p)
        reference = direct_mc(
            ReferenceSampler(steane_protocol),
            BIASED,
            3000,
            rng=np.random.default_rng(12),
        )
        sigma = max(
            math.sqrt(
                max(expected.mean * (1 - expected.mean), 1e-9)
                / reference.trials
            ),
            1.0 / reference.trials,
        )
        assert abs(reference.rate - expected.mean) < 5 * sigma + expected.tail

    def test_sharded_biased_identical_for_any_worker_count(
        self, steane_protocol
    ):
        tallies = []
        for workers in (1, 2):
            with SubsetSampler.for_protocol(
                steane_protocol,
                rng=np.random.default_rng(5),
                model=BIASED,
                workers=workers,
            ) as sampler:
                sampler.enumerate_k1_exact()
                sampler.sample(900)
                tallies.append(strata_tallies(sampler))
        assert tallies[0] == tallies[1]


def biased_draw_tables(eta):
    """Independent reimplementation of the biased conditional draws."""
    omega = {"I": 1.0, "X": 1.0, "Y": 1.0, "Z": eta}
    one = np.asarray([omega[a] for a in ONE_QUBIT_PAULIS])
    two = np.asarray([omega[a] * omega[b] for a, b in TWO_QUBIT_PAULIS])
    return {
        "1q": one / one.sum(),
        "2q": two / two.sum(),
        "reset_z": np.ones(1),
        "reset_x": np.ones(1),
        "meas": np.ones(1),
    }


class TestBiasedExactEnumerationBruteForce:
    """The exact biased k <= 2 masses vs first-principles brute force."""

    def test_k1_mass_matches_brute_force(self, steane_protocol):
        sampler = SubsetSampler.for_protocol(
            steane_protocol, rng=np.random.default_rng(0), model=BIASED
        )
        sampler.enumerate_k1_exact()
        f1 = sampler.strata[1].rate

        engine = make_sampler(steane_protocol)
        locations = engine.locations
        q = biased_draw_tables(BIASED.eta)
        total = 0.0
        n = len(locations)
        for index, (_, kind, _) in enumerate(locations):
            weights = q[kind]
            for draw in range(weights.size):
                loc_idx = np.asarray([[index]], dtype=np.intp)
                draw_idx = np.asarray([[draw]], dtype=np.intp)
                verdict = engine.failures_indexed(loc_idx, draw_idx)[0]
                if verdict:
                    # Uniform rates: P(site | K=1) = 1/N exactly.
                    total += weights[draw] / n
        assert f1 == pytest.approx(total, rel=1e-9, abs=1e-12)

    def test_k2_budget_matches_brute_force(self, steane_protocol):
        budget = two_fault_error_budget(steane_protocol, model=BIASED)

        engine = make_sampler(steane_protocol)
        locations = engine.locations
        counts = draw_counts(locations)
        q = biased_draw_tables(BIASED.eta)
        n = len(locations)
        pair_count = math.comb(n, 2)
        f2 = 0.0
        by_kind: dict[tuple[str, str], float] = {}
        for i, j in itertools.combinations(range(n), 2):
            num_i, num_j = int(counts[i]), int(counts[j])
            loc = np.empty((num_i * num_j, 2), dtype=np.intp)
            loc[:, 0] = i
            loc[:, 1] = j
            draw = np.empty_like(loc)
            draw[:, 0] = np.repeat(np.arange(num_i), num_j)
            draw[:, 1] = np.tile(np.arange(num_j), num_i)
            verdicts = engine.failures_indexed(loc, draw)
            if not verdicts.any():
                continue
            kind_i = locations[i][1]
            kind_j = locations[j][1]
            weights = (
                np.repeat(q[kind_i], num_j) * np.tile(q[kind_j], num_i)
            ) / pair_count
            mass = float(weights[verdicts].sum())
            f2 += mass
            key = tuple(sorted((kind_i, kind_j)))
            by_kind[key] = by_kind.get(key, 0.0) + mass

        assert budget.f2_exact == pytest.approx(f2, rel=1e-9)
        assert set(budget.by_kind_pair) == set(by_kind)
        for key, mass in by_kind.items():
            assert budget.by_kind_pair[key] == pytest.approx(mass, rel=1e-9)
        # Uniform rates: the nominal c2 degenerates to C(N, 2) * f2.
        assert budget.c2_exact == pytest.approx(pair_count * f2, rel=1e-9)

    def test_k2_exact_budget_consistent_with_subset_sampler(
        self, steane_protocol
    ):
        """Two independent implementations of the same conditional mass:
        the planner's chunked engine path and the sampler's dict loop."""
        budget = two_fault_error_budget(steane_protocol, model=BIASED)
        sampler = SubsetSampler.for_protocol(
            steane_protocol, rng=np.random.default_rng(1), model=BIASED
        )
        sampler.enumerate_k2_exact()
        assert sampler.strata[2].rate == pytest.approx(
            budget.f2_exact, rel=1e-6
        )


class TestHeterogeneousAllocationReference:
    def test_sample_defaults_p_ref_to_model_strength(self, steane_protocol):
        """Regression: the historical p_ref=0.1 default crashed any
        model whose max site rate exceeds 10x its base strength (the
        rescale pushes a rate past 1). The default now targets the
        model's own operating point; an explicit reachable p_ref still
        works, and an explicit unreachable one still raises."""
        from repro.sim.noisemodels import InhomogeneousModel

        model = InhomogeneousModel(
            p=1e-3, kind_rates={"meas": 1e-2}, overrides={12: 5e-3}
        )
        sampler = SubsetSampler.for_protocol(
            steane_protocol, rng=np.random.default_rng(4), model=model
        )
        sampler.sample(400)  # must not raise
        assert sampler.total_trials() == 400
        sampler2 = SubsetSampler.for_protocol(
            steane_protocol, rng=np.random.default_rng(4), model=model
        )
        sampler2.sample(200, p_ref=2e-3)
        assert sampler2.total_trials() == 200
        with pytest.raises(ValueError, match="site rate"):
            sampler2.sample(100, p_ref=0.5)

    def test_constant_factor_scaled_model_keeps_its_scaling(
        self, steane_protocol
    ):
        """Regression: a constant-rate model at c*p (every scale factor
        equal) must not fall into the uniform fast path — its estimate
        at the base strength has to agree with direct MC at the true
        rates, not at the unscaled p."""
        from repro.sim.noise import ScaledNoiseModel

        model = ScaledNoiseModel(
            p=4e-3,
            single_qubit=5.0,
            two_qubit=5.0,
            reset=5.0,
            measurement=5.0,
        )
        sampler = SubsetSampler.for_protocol(
            steane_protocol,
            k_max=3,
            rng=np.random.default_rng(17),
            model=model,
        )
        sampler.enumerate_k1_exact()
        sampler.enumerate_k2_exact()
        sampler.sample(2000)
        expected = sampler.estimate(model.p)
        direct = direct_mc(
            make_sampler(steane_protocol),
            model,
            40_000,
            rng=np.random.default_rng(18),
        )
        sigma = max(
            math.sqrt(
                max(expected.mean * (1 - expected.mean), 1e-9) / direct.trials
            ),
            1.0 / direct.trials,
        )
        assert abs(direct.rate - expected.mean) < 5 * sigma + expected.tail

    def test_direct_check_above_ceiling_is_skipped_not_crashed(
        self, steane_protocol
    ):
        """run_series skips a direct check the model cannot be rescaled
        to, matching the sweep's skip-not-crash rule."""
        from repro.experiments.figure4 import run_series
        from repro.sim.noisemodels import InhomogeneousModel

        model = InhomogeneousModel(p=1e-3, kind_rates={"meas": 5e-2})
        series = run_series(
            "steane",
            protocol=steane_protocol,
            shots=300,
            seed=9,
            model=model,
            direct_check_at=0.05,  # above the 0.02 ceiling
        )
        assert series.direct is None
        assert series.estimates  # the trimmed sweep still produced a curve
        assert all(e.p < 0.02 for e in series.estimates)

    def test_uniform_default_p_ref_unchanged(self, steane_protocol):
        """The uniform path keeps the historical 0.1 default: explicit
        p_ref=0.1 and the None default allocate identically."""
        a = SubsetSampler.for_protocol(
            steane_protocol, rng=np.random.default_rng(6)
        )
        a.sample(600)
        b = SubsetSampler.for_protocol(
            steane_protocol, rng=np.random.default_rng(6)
        )
        b.sample(600, p_ref=0.1)
        assert strata_tallies(a) == strata_tallies(b)


class TestCorrelatedPairs:
    def test_engines_agree_on_pair_strata(self, steane_protocol):
        model = CorrelatedPairModel(p=1e-3, pair_rate=5e-4)
        batched = BatchedSampler(steane_protocol)
        reference = ReferenceSampler(steane_protocol)
        universe = site_universe(batched.locations, model)
        assert universe.pairs  # adjacent CNOT pairs exist on Steane
        loc_idx, draw_idx = universe.sample_stratum(
            2, 300, np.random.default_rng(23)
        )
        assert np.array_equal(
            batched.failures_indexed(loc_idx, draw_idx),
            reference.failures_indexed(loc_idx, draw_idx),
        )

    def test_certificate_surfaces_crosstalk_events(self, steane_protocol):
        """Steane is 1-fault FT, but a single crosstalk *event* is two
        faults — the model-aware certificate must report that honestly,
        and every violation must name a pair site."""
        assert check_fault_tolerance(steane_protocol) == []
        violations = check_fault_tolerance(
            steane_protocol,
            model=CorrelatedPairModel(p=1e-3, pair_rate=5e-4),
            max_violations=100,
        )
        assert violations
        for violation in violations:
            assert isinstance(violation.location, tuple)
            assert len(violation.location) == 2
            assert isinstance(violation.injection, tuple)

    def test_k1_exact_includes_pair_events(self, steane_protocol):
        """f_1 under a crosstalk model counts single pair events; it is
        the probability-weighted mass over all single-event rows and
        must match the per-shot reference sum."""
        model = CorrelatedPairModel(p=1e-3, pair_rate=5e-4)
        engine_path = SubsetSampler.for_protocol(
            steane_protocol, rng=np.random.default_rng(2), model=model
        )
        engine_path.enumerate_k1_exact()
        assert engine_path.strata[1].rate == pytest.approx(
            reference_mass(steane_protocol, 1, model=model), abs=1e-9
        )

    def test_direct_mc_engines_agree_under_crosstalk(self, steane_protocol):
        model = CorrelatedPairModel(p=0.02, pair_rate=0.01)
        results = []
        for engine_cls in (BatchedSampler, ReferenceSampler):
            estimate = direct_mc(
                engine_cls(steane_protocol),
                model,
                300,
                rng=np.random.default_rng(31),
            )
            results.append((estimate.trials, estimate.failures))
        assert results[0] == results[1]
