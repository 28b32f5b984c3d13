"""Unit tests for the heterogeneous noise subsystem (repro.sim.noisemodels).

Covers the model zoo, the compiled :class:`SiteUniverse` math — conditional
Bernoulli stratum sampling, Poisson-binomial weights, exact enumeration
weights, pair-site expansion — and the ``--noise`` spec grammar. The
property tests compare everything against brute-force enumeration at small
``n``, which is the ISSUE-5 acceptance harness for the weight math.
"""

import itertools
import math
import pickle

import numpy as np
import pytest

from repro.core.faults import ONE_QUBIT_PAULIS, TWO_QUBIT_PAULIS
from repro.sim.frame import Injection, protocol_locations
from repro.sim.noise import (
    E1_1,
    ScaledNoiseModel,
    compose_injections,
    draw_counts,
    merge_injection_dicts,
    sample_injections_model_batch,
)
from repro.sim.noisemodels import (
    BiasedPauliModel,
    CorrelatedPairModel,
    InhomogeneousModel,
    SiteUniverse,
    adjacent_2q_pairs,
    binomial_weight,
    parse_noise_spec,
    poisson_binomial_tail,
    poisson_binomial_weight,
    poisson_binomial_weights,
    site_universe,
    tail_weight,
)

from ..conftest import cached_protocol


def toy_locations(kinds=("1q", "2q", "meas", "reset_z", "2q", "1q", "reset_x")):
    return [
        ((("seg",), i), kind, (0, 1) if kind == "2q" else (0,))
        for i, kind in enumerate(kinds)
    ]


class TestPoissonBinomial:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force_enumeration(self, seed):
        """Property test: the DP head equals the explicit sum over all
        k-subsets of heterogeneous Bernoulli rates, at every k."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        rates = rng.random(n) * 0.5
        head = poisson_binomial_weights(rates, n)
        for k in range(n + 1):
            brute = 0.0
            for subset in itertools.combinations(range(n), k):
                term = 1.0
                for i in range(n):
                    term *= rates[i] if i in subset else 1.0 - rates[i]
                brute += term
            assert head[k] == pytest.approx(brute, rel=1e-12, abs=1e-15)
        assert head.sum() == pytest.approx(1.0)

    def test_uniform_rates_agree_with_binomial(self):
        rates = np.full(20, 0.03)
        for k in range(5):
            assert poisson_binomial_weight(rates, k) == pytest.approx(
                binomial_weight(20, k, 0.03), rel=1e-12
            )

    def test_tail_complements_head(self):
        rng = np.random.default_rng(9)
        rates = rng.random(12) * 0.2
        head = poisson_binomial_weights(rates, 3)
        assert poisson_binomial_tail(rates, 3) == pytest.approx(
            1.0 - head.sum()
        )

    def test_zero_rates_degenerate(self):
        head = poisson_binomial_weights(np.zeros(5), 3)
        assert head[0] == 1.0
        assert head[1:].sum() == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            poisson_binomial_weights([0.5, 1.5], 2)


class TestBiasedPauliModel:
    def test_eta_one_is_exactly_e1_1(self):
        model = BiasedPauliModel(p=0.01, eta=1.0)
        locations = toy_locations()
        assert model.draw_weights(locations) is None
        assert (model.location_rates(locations) == 0.01).all()
        assert site_universe(locations, model).uniform

    def test_weights_normalized_and_biased(self):
        model = BiasedPauliModel(p=0.01, eta=100.0)
        locations = toy_locations()
        weights = model.draw_weights(locations)
        for table, (_, kind, _) in zip(weights, locations):
            assert table.sum() == pytest.approx(1.0)
        one_q = weights[0]
        z = ONE_QUBIT_PAULIS.index("Z")
        x = ONE_QUBIT_PAULIS.index("X")
        assert one_q[z] / one_q[x] == pytest.approx(100.0)

    def test_two_qubit_letter_products(self):
        """weight(ZZ) / weight(XX) = eta^2; weight(ZI) / weight(XI) = eta."""
        model = BiasedPauliModel(p=0.01, eta=7.0)
        table = model.draw_weights(toy_locations())[1]
        pairs = list(TWO_QUBIT_PAULIS)
        ratio = table[pairs.index("ZZ")] / table[pairs.index("XX")]
        assert ratio == pytest.approx(49.0)
        ratio = table[pairs.index("ZI")] / table[pairs.index("XI")]
        assert ratio == pytest.approx(7.0)

    def test_with_p_keeps_eta(self):
        model = BiasedPauliModel(p=0.01, eta=5.0).with_p(0.03)
        assert model == BiasedPauliModel(p=0.03, eta=5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BiasedPauliModel(p=1.5, eta=2.0)
        with pytest.raises(ValueError):
            BiasedPauliModel(p=0.1, eta=0.0)


class TestInhomogeneousModel:
    def test_kind_and_index_overrides(self):
        locations = toy_locations()
        model = InhomogeneousModel(
            p=1e-3, kind_rates={"meas": 1e-2}, overrides={0: 5e-2}
        )
        rates = model.location_rates(locations)
        assert rates[0] == 5e-2  # index override wins
        assert rates[2] == 1e-2  # meas kind
        assert rates[1] == 1e-3  # default

    def test_key_override(self):
        locations = toy_locations()
        key = locations[3][0]
        model = InhomogeneousModel(p=1e-3, overrides={key: 0.25})
        assert model.location_rates(locations)[3] == 0.25

    def test_unknown_override_rejected(self):
        locations = toy_locations()
        with pytest.raises(ValueError, match="override"):
            InhomogeneousModel(p=1e-3, overrides={999: 0.1}).location_rates(
                locations
            )
        with pytest.raises(ValueError, match="override"):
            InhomogeneousModel(
                p=1e-3, overrides={("nope",): 0.1}
            ).location_rates(locations)

    def test_with_p_rescales_everything(self):
        model = InhomogeneousModel(
            p=1e-3, kind_rates={"meas": 1e-2}, overrides={1: 2e-3}
        )
        scaled = model.with_p(2e-3)
        locations = toy_locations()
        assert scaled.location_rates(locations) == pytest.approx(
            2.0 * model.location_rates(locations)
        )

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            InhomogeneousModel(p=1e-3, kind_rates={"meas": 1.5})


class TestCorrelatedPairModel:
    def test_adjacent_pairs_share_a_wire(self):
        locations = protocol_locations(cached_protocol("steane"))
        pairs = adjacent_2q_pairs(locations)
        assert pairs  # Steane prep has back-to-back CNOT chains
        for i, j in pairs:
            assert locations[i][1] == locations[j][1] == "2q"
            assert set(locations[i][2]) & set(locations[j][2])
            assert locations[i][0][0] == locations[j][0][0]  # same segment

    def test_pair_sites_resolution(self):
        locations = toy_locations()
        model = CorrelatedPairModel(p=1e-3, pair_rate=1e-4, pairs=((1, 4),))
        assert model.pair_sites(locations) == ((1, 4, 1e-4),)

    def test_invalid_pairs_rejected(self):
        locations = toy_locations()
        with pytest.raises(ValueError):
            CorrelatedPairModel(
                p=1e-3, pair_rate=1e-4, pairs=((1, 99),)
            ).pair_sites(locations)
        with pytest.raises(ValueError):
            CorrelatedPairModel(p=1e-3, pair_rate=1.5)

    def test_with_p_scales_pair_rate(self):
        model = CorrelatedPairModel(p=1e-3, pair_rate=1e-4).with_p(2e-3)
        assert model.pair_rate == pytest.approx(2e-4)
        assert model.p == 2e-3

    def test_base_model_draws_inherited(self):
        locations = toy_locations()
        model = CorrelatedPairModel(
            p=1e-3,
            pair_rate=1e-4,
            pairs=((1, 4),),
            base=BiasedPauliModel(p=1e-3, eta=10.0),
        )
        weights = model.draw_weights(locations)
        assert weights is not None
        universe = site_universe(locations, model)
        # The pair site's draw table is the product of its members'.
        pair_table = universe._draw_weight_tables()[-1]
        assert pair_table.size == 15 * 15
        assert pair_table.sum() == pytest.approx(1.0)


class TestSiteUniverse:
    def test_uniform_detection(self):
        locations = toy_locations()
        assert site_universe(locations, E1_1(p=0.01)).uniform
        assert site_universe(locations, ScaledNoiseModel(p=0.01)).uniform
        assert not site_universe(
            locations, ScaledNoiseModel(p=0.01, two_qubit=2.0)
        ).uniform
        # Constant rates != p must NOT take the uniform fast path: the
        # binomial shortcut would silently drop the scaling factor.
        assert not site_universe(
            locations,
            ScaledNoiseModel(
                p=0.01,
                single_qubit=5.0,
                two_qubit=5.0,
                reset=5.0,
                measurement=5.0,
            ),
        ).uniform
        assert not site_universe(
            locations, BiasedPauliModel(p=0.01, eta=3.0)
        ).uniform
        assert not site_universe(
            locations, CorrelatedPairModel(p=0.01, pair_rate=0.001, pairs=((1, 4),))
        ).uniform

    def test_rates_at_scaling_and_bounds(self):
        universe = site_universe(
            toy_locations(), ScaledNoiseModel(p=0.01, two_qubit=5.0)
        )
        scaled = universe.rates_at(0.02)
        assert scaled == pytest.approx(2.0 * universe.site_rates)
        with pytest.raises(ValueError):
            universe.rates_at(0.5)  # 2q rate would hit 25x0.5 > 1

    def test_max_strength_is_the_rescale_supremum(self):
        universe = site_universe(
            toy_locations(), ScaledNoiseModel(p=0.01, two_qubit=5.0)
        )
        ceiling = universe.max_strength()
        assert ceiling == pytest.approx(0.01 / 0.05)
        universe.rates_at(ceiling * 0.999)  # just below: fine
        with pytest.raises(ValueError):
            universe.rates_at(ceiling * 1.001)  # above: a rate crosses 1

    def test_conditional_sampler_matches_brute_force_law(self):
        """The sampled k-subset frequencies match the conditional
        Bernoulli law (proportional to the product of odds) exactly
        computed by enumeration at small n."""
        locations = toy_locations()
        model = InhomogeneousModel(
            p=2e-3, kind_rates={"meas": 2e-2}, overrides={0: 1e-2}
        )
        universe = site_universe(locations, model)
        n = universe.num_sites
        odds = universe.odds
        subsets = list(itertools.combinations(range(n), 2))
        law = np.asarray([odds[a] * odds[b] for a, b in subsets])
        law /= law.sum()
        shots = 60_000
        sites = universe.sample_sites(2, shots, np.random.default_rng(3))
        counts = {}
        for a, b in np.sort(sites, axis=1).tolist():
            counts[(a, b)] = counts.get((a, b), 0) + 1
        empirical = np.asarray(
            [counts.get(s, 0) / shots for s in subsets]
        )
        assert np.abs(empirical - law).max() < 0.01

    def test_sample_sites_exactly_k_distinct(self):
        universe = site_universe(
            toy_locations(), BiasedPauliModel(p=0.01, eta=4.0)
        )
        sites = universe.sample_sites(3, 500, np.random.default_rng(5))
        assert sites.shape == (500, 3)
        assert (sites >= 0).all()
        for row in sites:
            assert len(set(row.tolist())) == 3

    def test_zero_rate_sites_never_sampled(self):
        locations = toy_locations()
        model = InhomogeneousModel(p=1e-3, overrides={2: 0.0})
        universe = site_universe(locations, model)
        sites = universe.sample_sites(2, 2000, np.random.default_rng(6))
        assert 2 not in set(sites.ravel().tolist())

    def test_draw_indices_follow_weights(self):
        locations = toy_locations()
        universe = site_universe(locations, BiasedPauliModel(p=0.01, eta=50.0))
        rng = np.random.default_rng(7)
        sites = np.zeros(40_000, dtype=np.intp)  # a 1q location
        draws = universe.draw_indices(sites, rng.random(sites.size))
        freq = np.bincount(draws, minlength=3) / sites.size
        expected = universe._draw_weight_tables()[0]
        assert np.abs(freq - expected).max() < 0.01

    def test_row_weights_sum_to_one(self):
        locations = toy_locations()
        for model in (
            BiasedPauliModel(p=0.01, eta=9.0),
            ScaledNoiseModel(p=0.001, measurement=10.0),
            CorrelatedPairModel(p=1e-3, pair_rate=1e-4, pairs=((1, 4),)),
        ):
            universe = site_universe(locations, model)
            total = sum(weight for _, weight in universe.iter_rows())
            assert total == pytest.approx(1.0), model

    def test_pair_run_weights_sum_to_one(self):
        locations = toy_locations()
        universe = site_universe(
            locations,
            CorrelatedPairModel(
                p=1e-3,
                pair_rate=1e-4,
                pairs=((1, 4),),
                base=BiasedPauliModel(p=1e-3, eta=3.0),
            ),
        )
        total = sum(w for _, w, _, _ in universe.iter_pair_runs())
        assert total == pytest.approx(1.0)

    def test_k1_conditional_row_weights_match_brute_force(self):
        """Exact-enumeration row weights equal P(site fires alone and
        draws d | exactly one event) from first principles."""
        locations = toy_locations()
        model = InhomogeneousModel(p=2e-3, kind_rates={"2q": 1e-2})
        universe = site_universe(locations, model)
        rates = universe.site_rates
        n = rates.size
        # Brute-force conditional: P(only site s) * q / P(K = 1).
        p_k1 = poisson_binomial_weight(rates, 1)
        for (injections, weight), (site, draw) in zip(
            universe.iter_rows(),
            (
                (s, d)
                for s in range(n)
                for d in range(int(universe.site_draw_counts[s]))
            ),
        ):
            alone = rates[site]
            for other in range(n):
                if other != site:
                    alone *= 1.0 - rates[other]
            q = 1.0 / int(universe.site_draw_counts[site])
            assert weight == pytest.approx(alone * q / p_k1, rel=1e-12)

    def test_expand_pair_site_hits_both_locations(self):
        locations = toy_locations()
        universe = site_universe(
            locations, CorrelatedPairModel(p=1e-3, pair_rate=1e-4, pairs=((1, 4),))
        )
        pair_site = universe.num_locations  # the only composite site
        counts = draw_counts(locations)
        d_j = int(counts[4])
        site_idx = np.asarray([[pair_site]], dtype=np.intp)
        draw = 17
        loc_idx, draw_idx = universe.expand(
            site_idx, np.asarray([[draw]], dtype=np.intp)
        )
        row_locs = loc_idx[0][loc_idx[0] >= 0].tolist()
        assert sorted(row_locs) == [1, 4]
        produced = dict(zip(loc_idx[0].tolist(), draw_idx[0].tolist()))
        assert produced[1] == draw // d_j
        assert produced[4] == draw % d_j

    def test_site_injections_round_trip(self):
        locations = toy_locations()
        universe = site_universe(
            locations, CorrelatedPairModel(p=1e-3, pair_rate=1e-4, pairs=((1, 4),))
        )
        label, injections = universe.site_injections(universe.num_locations, 0)
        assert isinstance(label, tuple) and len(label) == 2
        assert set(injections) == {locations[1][0], locations[4][0]}

    def test_bernoulli_batch_rate_statistics(self):
        locations = toy_locations()
        model = InhomogeneousModel(p=0.02, overrides={0: 0.2})
        universe = site_universe(locations, model)
        loc_idx, _ = universe.sample_bernoulli(20_000, np.random.default_rng(8))
        hits = loc_idx[loc_idx >= 0]
        rate0 = (hits == 0).sum() / 20_000
        assert rate0 == pytest.approx(0.2, abs=0.01)

    def test_model_batch_routes_through_universe(self):
        """sample_injections_model_batch delegates for weighted/pair models."""
        locations = toy_locations()
        model = CorrelatedPairModel(p=0.05, pair_rate=0.2, pairs=((1, 4),))
        loc_idx, draw_idx = sample_injections_model_batch(
            locations, model, 500, np.random.default_rng(9)
        )
        # Pair firings produce shots containing both member locations.
        both = 0
        for row in loc_idx:
            row = set(row[row >= 0].tolist())
            if {1, 4} <= row:
                both += 1
        assert both > 0

    def test_rejects_rates_at_or_above_one(self):
        locations = toy_locations()
        with pytest.raises(ValueError):
            site_universe(locations, InhomogeneousModel(p=1e-3, overrides={0: 1.0}))

    def test_rejects_negative_pair_rates(self):
        """A duck-typed model slipping a negative pair rate past the
        frozen-dataclass validation must fail at universe compile time,
        not corrupt the odds math silently."""
        locations = toy_locations()

        class Sloppy:
            p = 1e-3

            def probability(self, kind):
                return 1e-3

            def pair_sites(self, locs):
                return ((1, 4, -1e-4),)

        with pytest.raises(ValueError, match="pair rates"):
            site_universe(locations, Sloppy())


class TestUniformUniverse:
    """E1_1's closed forms live inside the universe: ``None``, ``E1_1(p)``
    and a unit ``ScaledNoiseModel`` all compile to the same uniform one."""

    @pytest.mark.parametrize(
        "model", [None, E1_1(p=0.0), E1_1(p=0.01), ScaledNoiseModel(p=0.01)]
    )
    def test_binomial_weights_and_every_site_live(self, model):
        locations = toy_locations()
        universe = SiteUniverse(locations, model)
        n = len(locations)
        assert universe.uniform
        assert universe.active_sites.tolist() == list(range(n))
        assert universe.enumeration_sites().tolist() == list(range(n))
        assert universe.max_strength() == math.inf
        assert universe.reference_strength() == 0.1
        assert universe.stratum_weights(3, 0.02).tolist() == [
            binomial_weight(n, k, 0.02) for k in range(4)
        ]
        assert universe.tail_weight(3, 0.02) == tail_weight(n, 3, 0.02)
        assert universe.e2_relative() == math.comb(n, 2)

    def test_row_weights_and_pair_masses(self):
        locations = toy_locations()
        universe = SiteUniverse(locations, None)
        counts = draw_counts(locations)
        n = len(locations)
        sites = np.arange(n)
        assert universe.row_weights_for(sites, np.zeros(n)).tolist() == [
            1.0 / (n * int(c)) for c in counts
        ]
        # Failing runs of pairs (0, 1) x3 and (1, 4) x2, grouped by pair.
        runs = np.asarray([[0, 1]] * 3 + [[1, 4]] * 2)
        mass, total = universe.pair_masses(
            runs, np.zeros_like(runs), np.asarray([3, 2])
        )
        expected = [
            3 * (1.0 / (math.comb(n, 2) * int(counts[0]) * int(counts[1]))),
            2 * (1.0 / (math.comb(n, 2) * int(counts[1]) * int(counts[4]))),
        ]
        assert mass.tolist() == expected
        assert total == 0.0 + expected[0] + expected[1]

    def test_oracle_walks_the_uniform_weights(self):
        """The per-shot iterators weigh a ``None`` universe's runs as the
        planner does: ``1 / (N d)`` rows and ``1 / (C(N, 2) d_a d_b)``
        pair runs, never ``0 / 0`` odds."""
        locations = toy_locations()
        universe = SiteUniverse(locations, None)
        counts = draw_counts(locations)
        n = len(locations)
        rows = [weight for _, weight in universe.iter_rows()]
        assert rows == [
            1.0 / (n * int(c)) for c in counts for _ in range(int(c))
        ]
        assert sum(rows) == pytest.approx(1.0)
        runs = list(universe.iter_pair_runs())
        assert [w for _, w, a, b in runs] == [
            1.0 / (math.comb(n, 2) * int(counts[a]) * int(counts[b]))
            for _, _, a, b in runs
        ]
        assert sum(w for _, w, _, _ in runs) == pytest.approx(1.0)
        assert universe.e1() == n and universe.e2() == math.comb(n, 2)

    def test_strength_one_fails_every_location(self):
        """The binomial weights take ``p = 1``, and so does the Bernoulli
        draw; a weighted universe needs every rate below 1 (odds)."""
        locations = toy_locations()
        universe = SiteUniverse(locations, E1_1(p=1.0))
        loc_idx, _ = universe.sample_bernoulli(5, np.random.default_rng(0))
        assert loc_idx.tolist() == [list(range(len(locations)))] * 5
        assert universe.stratum_weights(1, 1.0).tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="location rates"):
            SiteUniverse(locations, InhomogeneousModel(p=0.1, overrides={0: 1.0}))

    def test_weighted_universe_keeps_its_ceiling(self):
        universe = SiteUniverse(toy_locations(), BiasedPauliModel(p=0.01, eta=3.0))
        assert not universe.uniform
        assert universe.max_strength() == pytest.approx(1.0)
        assert universe.reference_strength() == 0.01

    def test_rate_map_keeps_the_floor_draw(self):
        """Uniform draws with per-location rates: Bernoulli draws are
        ``floor(u * count)``, the E1_1 stream, not the inverse CDF."""
        locations = toy_locations()
        model = InhomogeneousModel(p=0.2, overrides={0: 0.5})
        universe = SiteUniverse(locations, model)
        assert universe.plain_draws and not universe.uniform
        loc_idx, draw_idx = universe.sample_bernoulli(
            400, np.random.default_rng(4)
        )
        rng = np.random.default_rng(4)
        fails = rng.random((400, len(locations))) < universe.site_rates
        shot_ids, locs = np.nonzero(fails)
        draws = np.floor(
            rng.random(shot_ids.size) * draw_counts(locations)[locs]
        ).astype(np.intp)
        assert draw_idx[loc_idx >= 0].tolist() == draws.tolist()


class TestComposeInjections:
    def test_xor_composition(self):
        a = Injection(paulis=((0, "X"),))
        b = Injection(paulis=((0, "Z"), (1, "X")))
        composed = compose_injections(a, b)
        assert composed == Injection(paulis=((0, "Y"), (1, "X")))

    def test_self_inverse(self):
        a = Injection(paulis=((2, "Y"),))
        assert compose_injections(a, a) == Injection()

    def test_flips_cancel(self):
        flip = Injection(flip=True)
        assert compose_injections(flip, flip) == Injection(flip=False)
        assert compose_injections(flip, Injection(flip=False)) == flip

    def test_flip_pauli_mix_rejected(self):
        with pytest.raises(ValueError):
            compose_injections(
                Injection(flip=True), Injection(paulis=((0, "X"),))
            )

    def test_merge_injection_dicts(self):
        key_a, key_b = (("seg",), 0), (("seg",), 1)
        merged = merge_injection_dicts(
            {key_a: Injection(paulis=((0, "X"),))},
            {
                key_a: Injection(paulis=((0, "Z"),)),
                key_b: Injection(paulis=((1, "X"),)),
            },
        )
        assert merged[key_a] == Injection(paulis=((0, "Y"),))
        assert merged[key_b] == Injection(paulis=((1, "X"),))


class TestLegacyModelsOnTheSeam:
    """E1_1 / ScaledNoiseModel qualify for the model seam as-is —
    including the ``with_p`` sweep knob the direct-MC paths call."""

    def test_e1_1_with_p(self):
        assert E1_1(p=0.1).with_p(0.02) == E1_1(p=0.02)

    def test_scaled_with_p_keeps_factors_and_revalidates(self):
        model = ScaledNoiseModel(p=1e-3, two_qubit=5.0, measurement=10.0)
        scaled = model.with_p(2e-3)
        assert scaled == ScaledNoiseModel(
            p=2e-3, two_qubit=5.0, measurement=10.0
        )
        with pytest.raises(ValueError):
            model.with_p(0.5)  # 2q rate would exceed 1

    def test_every_zoo_model_has_with_p(self):
        locations = toy_locations()
        for model in (
            E1_1(p=1e-3),
            ScaledNoiseModel(p=1e-3, two_qubit=5.0),
            BiasedPauliModel(p=1e-3, eta=10.0),
            InhomogeneousModel(p=1e-3, kind_rates={"meas": 1e-2}),
            CorrelatedPairModel(p=1e-3, pair_rate=1e-4, pairs=((1, 4),)),
        ):
            from repro.sim.noisemodels import model_location_rates

            rescaled = model.with_p(2e-3)
            assert rescaled.p == 2e-3
            assert model_location_rates(
                locations, rescaled
            ) == pytest.approx(2.0 * model_location_rates(locations, model))


class TestParseNoiseSpec:
    def test_model_zoo(self):
        assert parse_noise_spec("e1_1:p=1e-3") == E1_1(p=1e-3)
        assert parse_noise_spec("uniform:p=0.01") == E1_1(p=0.01)
        assert parse_noise_spec("biased:eta=100,p=1e-3") == BiasedPauliModel(
            p=1e-3, eta=100.0
        )
        assert parse_noise_spec(
            "scaled:p=1e-3,two_qubit=5,measurement=10"
        ) == ScaledNoiseModel(p=1e-3, two_qubit=5.0, measurement=10.0)
        assert parse_noise_spec(
            "inhom:p=1e-3,meas=1e-2,loc12=5e-3"
        ) == InhomogeneousModel(
            p=1e-3, kind_rates={"meas": 1e-2}, overrides={12: 5e-3}
        )
        assert parse_noise_spec(
            "correlated:p=1e-3,pair_rate=1e-4,pairs=1-4;2-5"
        ) == CorrelatedPairModel(
            p=1e-3, pair_rate=1e-4, pairs=((1, 4), (2, 5))
        )
        assert parse_noise_spec(
            "correlated:p=1e-3,pair_rate=1e-4"
        ).pairs == "adjacent"

    def test_parsed_models_pickle(self):
        for spec in (
            "biased:eta=100,p=1e-3",
            "inhom:p=1e-3,meas=1e-2",
            "correlated:p=1e-3,pair_rate=1e-4",
        ):
            model = parse_noise_spec(spec)
            assert pickle.loads(pickle.dumps(model)) == model

    def test_errors_are_loud(self):
        with pytest.raises(ValueError, match="unknown noise model"):
            parse_noise_spec("thermal:p=1")
        with pytest.raises(ValueError, match="needs"):
            parse_noise_spec("biased:eta=10")
        with pytest.raises(ValueError, match="unknown fields"):
            parse_noise_spec("biased:eta=10,p=1e-3,zeta=2")
        with pytest.raises(ValueError, match="key=value"):
            parse_noise_spec("biased:eta")
