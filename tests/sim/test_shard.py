"""Tests for the streamed intra-code sharding layer (``repro.sim.shard``).

Pins the three contracts the sharded path is built on:

* **merge exactness** — chunk partials fold into exactly the totals a
  single-slab evaluation produces (counts, histograms, sparse pair
  tallies, enumeration-ordered evidence);
* **deterministic chunk seeding** — a plan's results depend only on the
  plan, never on the worker count that executes it;
* **bounded streaming** — planning is lazy and no chunk ever
  materializes more than ``max_slab`` configurations, so strata far too
  large to materialize evaluate in constant memory.
"""

import numpy as np
import pytest

from repro.sim.noise import E1_1
from repro.sim.sampler import make_sampler
from repro.sim.shard import (
    ShardedEvaluator,
    ShardPartial,
    StratumChunk,
    StratumPlanner,
    merge_partials,
)
from repro.sim.subset import SubsetSampler, direct_mc

from ..conftest import cached_protocol


@pytest.fixture(scope="module")
def steane_engine():
    return make_sampler(cached_protocol("steane"))


class TestPlanner:
    def test_stratum_chunks_bounded_and_seeded(self, steane_engine):
        planner = StratumPlanner(steane_engine.locations, max_slab=300)
        chunks = list(planner.plan_stratum(2, 1000, entropy=77))
        assert [c.shots for c in chunks] == [300, 300, 300, 100]
        assert [c.entropy for c in chunks] == [(77, i) for i in range(4)]
        assert planner.num_chunks(1000) == 4

    def test_oversized_stratum_plans_lazily(self, steane_engine):
        """A stratum that would need ~30 GB materialized plans in O(1):
        the generator yields specs (a few ints each), nothing else."""
        planner = StratumPlanner(steane_engine.locations, max_slab=256)
        plan = planner.plan_stratum(4, 10**9, entropy=1)
        first = next(plan)
        second = next(plan)
        assert isinstance(first, StratumChunk)
        assert first.shots == second.shots == 256
        assert planner.num_chunks(10**9) == -(-(10**9) // 256)

    def test_row_universe_covers_draw_tables(self, steane_engine):
        from repro.sim.noise import draw_counts

        planner = StratumPlanner(steane_engine.locations, max_slab=50)
        assert planner.num_rows() == int(
            draw_counts(steane_engine.locations).sum()
        )
        chunks = list(planner.plan_rows())
        assert chunks[0].lo == 0
        assert chunks[-1].hi == planner.num_rows()
        covered = sum(c.hi - c.lo for c in chunks)
        assert covered == planner.num_rows()

    def test_materialize_rows_round_trips(self, steane_engine):
        planner = StratumPlanner(steane_engine.locations, max_slab=64)
        for chunk in planner.plan_rows():
            loc_idx, draw_idx = planner.materialize_rows(chunk)
            assert loc_idx.shape == (chunk.hi - chunk.lo, 1)
            assert (loc_idx >= 0).all()
            # Every draw index is valid for its location's table.
            from repro.sim.noise import draw_counts

            counts = draw_counts(steane_engine.locations)
            assert (draw_idx[:, 0] < counts[loc_idx[:, 0]]).all()

    def test_pair_plan_bounds_runs(self, steane_engine):
        planner = StratumPlanner(steane_engine.locations, max_slab=500)
        total = 0
        for chunk in planner.plan_pairs():
            loc_idx, draw_idx, pair_ids = planner.materialize_pairs(chunk)
            # A chunk holds at most max_slab runs (>= one whole pair).
            assert loc_idx.shape[0] <= max(500, 15 * 15)
            assert (np.diff(pair_ids) >= 0).all()
            total += loc_idx.shape[0]
        assert total == planner.total_pair_runs()

    def test_pair_of_inverts_enumeration(self, steane_engine):
        planner = StratumPlanner(steane_engine.locations, max_slab=100)
        num = len(steane_engine.locations)
        pair_id = 0
        for i in range(num):
            for j in range(i + 1, num):
                assert planner.pair_of(pair_id) == (i, j)
                pair_id += 1

    def test_max_slab_validation(self, steane_engine):
        with pytest.raises(ValueError):
            StratumPlanner(steane_engine.locations, max_slab=0)


class TestMergeExactness:
    def test_small_chunks_merge_to_single_slab_totals(self, steane_engine):
        """The certificate workload chunked 16 rows at a time must merge
        to exactly the one-slab totals — counts, histograms, evidence."""
        fine = ShardedEvaluator(steane_engine, max_slab=16)
        coarse = ShardedEvaluator(steane_engine, max_slab=10**6)
        merged_fine = fine.reduce(
            fine.planner.plan_rows(checkable_only=True, threshold=1)
        )
        merged_coarse = coarse.reduce(
            coarse.planner.plan_rows(checkable_only=True, threshold=1)
        )
        assert merged_fine.trials == merged_coarse.trials
        assert merged_fine.heavy == merged_coarse.heavy
        np.testing.assert_array_equal(
            merged_fine.x_hist, merged_coarse.x_hist
        )
        np.testing.assert_array_equal(
            merged_fine.z_hist, merged_coarse.z_hist
        )

    def test_pair_counts_merge_exactly(self, steane_engine):
        fine = ShardedEvaluator(steane_engine, max_slab=64)
        coarse = ShardedEvaluator(steane_engine, max_slab=10**6)
        merged_fine = fine.reduce(fine.planner.plan_pairs())
        merged_coarse = coarse.reduce(coarse.planner.plan_pairs())
        assert merged_fine.failures == merged_coarse.failures
        np.testing.assert_array_equal(
            merged_fine.pair_ids, merged_coarse.pair_ids
        )
        np.testing.assert_array_equal(
            merged_fine.pair_counts, merged_coarse.pair_counts
        )
        assert merged_fine.weighted_mass == pytest.approx(
            merged_coarse.weighted_mass, rel=1e-12
        )

    def test_merge_partials_sparse_pair_aggregation(self):
        a = ShardPartial(
            index=0,
            pair_ids=np.asarray([1, 5]),
            pair_counts=np.asarray([2, 3]),
        )
        b = ShardPartial(
            index=1,
            pair_ids=np.asarray([5, 9]),
            pair_counts=np.asarray([4, 1]),
        )
        merged = merge_partials([b, a])  # arrival order must not matter
        np.testing.assert_array_equal(merged.pair_ids, [1, 5, 9])
        np.testing.assert_array_equal(merged.pair_counts, [2, 7, 1])

    def test_merge_partials_histograms_pad(self):
        a = ShardPartial(index=0, x_hist=np.asarray([4, 1]))
        b = ShardPartial(index=1, x_hist=np.asarray([1, 0, 2]))
        merged = merge_partials([a, b])
        np.testing.assert_array_equal(merged.x_hist, [5, 1, 2])

    def test_merge_partials_orders_evidence_by_index(self):
        a = ShardPartial(index=0, rows=np.asarray([3]))
        b = ShardPartial(index=1, rows=np.asarray([17]))
        merged = merge_partials([b, a])
        np.testing.assert_array_equal(merged.rows, [3, 17])

    def test_merge_partials_empty(self):
        merged = merge_partials([])
        assert merged.trials == 0
        assert merged.pair_ids is None


class TestWorkerCountDeterminism:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_sampled_strata_identical_any_worker_count(self, workers):
        protocol = cached_protocol("steane")
        tallies = {}
        for w in (1, workers):
            with SubsetSampler.for_protocol(
                protocol,
                rng=np.random.default_rng(11),
                workers=w,
                max_slab=250,
            ) as sampler:
                for k in (1, 2, 3):
                    sampler.sample_stratum(k, 500)
                tallies[w] = {
                    k: (stats.trials, stats.failures)
                    for k, stats in sampler.strata.items()
                }
        assert tallies[1] == tallies[workers]

    def test_direct_mc_identical_any_worker_count(self, steane_engine):
        results = [
            direct_mc(
                steane_engine,
                E1_1(p=0.02),
                2000,
                rng=np.random.default_rng(3),
                workers=w,
                max_slab=300,
            )
            for w in (1, 2)
        ]
        assert results[0].failures == results[1].failures

    def test_tesseract_stratum_identical_across_workers(self):
        """``benchmarks/bench_shard.py``'s tally gate at tier-1 size: one
        sampled k = 3 stratum of the largest catalog code, planned once,
        merges to the same tallies inline and on two loopback workers."""
        from repro.sim.shard import resolve_evaluator

        engine = make_sampler(cached_protocol("tesseract"))
        tallies = {}
        for w in (1, 2):
            with resolve_evaluator(engine, workers=w, max_slab=512) as ev:
                merged = merge_partials(ev.map(ev.planner.plan_stratum(3, 3000, 2025)))
            tallies[w] = (merged.trials, merged.failures)
        assert tallies[1] == tallies[2]
        assert tallies[1][0] == 3000 and tallies[1][1] > 0

    def test_exact_enumerations_identical_any_worker_count(self):
        protocol = cached_protocol("steane")
        masses = {}
        for w in (1, 2):
            with SubsetSampler.for_protocol(
                protocol,
                rng=np.random.default_rng(0),
                workers=w,
                max_slab=777,
            ) as sampler:
                sampler.enumerate_k1_exact()
                sampler.enumerate_k2_exact()
                masses[w] = (
                    sampler.strata[1].failures,
                    sampler.strata[2].failures,
                )
        assert masses[1] == masses[2]

    def test_certificate_identical_across_workers(self):
        from repro.core.ftcheck import check_fault_tolerance

        protocol = cached_protocol("steane")
        serial = check_fault_tolerance(protocol)
        sharded = check_fault_tolerance(protocol, workers=2, max_slab=32)
        assert serial == sharded == []

    def test_budget_bit_identical_across_workers_and_slabs(self):
        from repro.core.analysis import two_fault_error_budget

        protocol = cached_protocol("steane")
        baseline = two_fault_error_budget(protocol)
        sharded = two_fault_error_budget(protocol, workers=2, max_slab=613)
        assert baseline == sharded

    def test_figure4_intra_shard_identical_across_workers(self):
        """A single code with workers > 1 shards within the code; the
        series must equal the inline workers=1 run."""
        from repro.experiments.figure4 import run_figure4

        protocol = cached_protocol("steane")  # warm the synthesis cache
        assert protocol is not None
        series = {
            w: run_figure4(["steane"], shots=400, workers=w)[0]
            for w in (1, 2)
        }
        assert series[1].shots == series[2].shots
        assert [e.mean for e in series[1].estimates] == [
            e.mean for e in series[2].estimates
        ]

    def test_survey_identical_across_workers(self):
        from repro.core.ftcheck import second_order_survey

        protocol = cached_protocol("steane")
        serial = second_order_survey(
            protocol, samples=400, rng=np.random.default_rng(5)
        )
        sharded = second_order_survey(
            protocol,
            samples=400,
            rng=np.random.default_rng(5),
            workers=2,
            max_slab=64,
        )
        assert serial == sharded


class TestBoundedStreaming:
    def test_engine_never_sees_more_than_max_slab(self):
        """Route a 40 k-shot stratum through a recording engine: every
        batch the engine executes must respect the --max-slab bound."""
        protocol = cached_protocol("steane")
        engine = make_sampler(protocol)
        seen = []
        original = engine.failures_indexed

        def recording(loc_idx, draw_idx):
            seen.append(loc_idx.shape[0])
            return original(loc_idx, draw_idx)

        engine.failures_indexed = recording
        sampler = SubsetSampler(
            engine,
            rng=np.random.default_rng(2),
            workers=1,
            max_slab=512,
        )
        sampler.sample_stratum(3, 40_000)
        assert max(seen) <= 512
        assert sum(seen) >= 40_000

    def test_oversized_enumeration_streams(self, steane_engine):
        """Consume only the head of a plan — the tail never materializes
        (the inline map is a generator, not a list)."""
        evaluator = ShardedEvaluator(steane_engine, max_slab=8)
        stream = evaluator.map(
            evaluator.planner.plan_rows(checkable_only=True)
        )
        first = next(stream)
        assert first.trials == 8
        stream.close()  # abandon the rest without evaluating it


class TestSamplerIntegration:
    def test_evaluator_reused_and_closed(self):
        protocol = cached_protocol("steane")
        sampler = SubsetSampler.for_protocol(
            protocol, rng=np.random.default_rng(1), workers=2, max_slab=200
        )
        sampler.sample_stratum(1, 400)
        first = sampler._evaluator
        sampler.sample_stratum(2, 400)
        assert sampler._evaluator is first  # one pool per sampler
        sampler.close()
        assert sampler._evaluator is None


def _series_numbers(series):
    direct = None if series.direct is None else (
        series.direct.trials,
        series.direct.failures,
    )
    return (
        series.code,
        series.shots,
        series.f1_exact,
        [(e.p, e.mean, e.lower, e.upper, e.tail) for e in series.estimates],
        direct,
    )


class TestOneDrawStream:
    """Every engine-backed estimator draws through the stratum planner:
    the default arguments, ``workers=1`` inline and a pool all give the
    same numbers."""

    def test_figure4_independent_of_workers_and_axis(self):
        from repro.experiments.figure4 import run_figure4, run_series

        codes = ["steane", "shor"]
        kwargs = dict(shots=300, direct_check_at=0.05)
        runs = {
            w: [_series_numbers(s) for s in run_figure4(codes, workers=w, **kwargs)]
            for w in (1, 2)
        }
        assert runs[1] == runs[2]
        inline = [
            _series_numbers(
                run_series(
                    code,
                    protocol=cached_protocol(code),
                    workers=1,
                    **kwargs,
                )
            )
            for code in codes
        ]
        assert runs[1] == inline

    def test_sampler_defaults_equal_workers_1(self):
        protocol = cached_protocol("steane")
        tallies = []
        for extra in ({}, {"workers": 1}):
            with SubsetSampler.for_protocol(
                protocol, rng=np.random.default_rng(17), **extra
            ) as sampler:
                sampler.enumerate_k1_exact()
                sampler.sample(1200)
                tallies.append(
                    {
                        k: (stats.trials, stats.failures, stats.exact)
                        for k, stats in sampler.strata.items()
                    }
                )
        assert tallies[0] == tallies[1]

    def test_direct_mc_defaults_equal_workers_1(self, steane_engine):
        results = [
            direct_mc(
                steane_engine,
                E1_1(p=0.03),
                3000,
                rng=np.random.default_rng(9),
                **extra,
            )
            for extra in ({}, {"workers": 1})
        ]
        assert results[0].failures == results[1].failures
