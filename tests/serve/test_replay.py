"""Ledger-backed reuse is invisible in the numbers.

Three layers of the same promise, bottom-up:

* :class:`LedgerEvaluator` — a warm ``map()`` dispatches **zero**
  chunks to the wrapped evaluator and merges to the bit-identical
  partial a cold run produces; a corrupted chunk record is recomputed,
  never served;
* :meth:`SubsetSampler.from_tallies` — the estimator-only replay
  sampler reproduces ``estimate``/``curve``/``p_ceiling`` bit-exactly
  from recorded tallies (no engine, no RNG);
* :func:`run_series` / :func:`run_figure4` — a ledger hit returns the
  bit-identical series without ever building an engine, and
  ``ledger=False`` (the ``--no-ledger`` hatch) bypasses it entirely.

Records keyed before the current draw revision are never served.
"""

import json

import numpy as np
import pytest

import repro.sim.sampler as sampler_mod
from repro.core.analysis import two_fault_error_budget
from repro.experiments.figure4 import run_figure4, run_series
from repro.serve.ledger import LedgerEvaluator, ResultsLedger
from repro.sim.sampler import make_sampler
from repro.sim.shard import (
    PairChunk,
    ShardedEvaluator,
    ShardPartial,
    StratumChunk,
    merge_partials,
    partial_to_jsonable,
)
from repro.sim.subset import SubsetSampler
from repro.store import keys as store_keys

from ..conftest import cached_protocol


@pytest.fixture(scope="module")
def steane_engine():
    return make_sampler(cached_protocol("steane"))


@pytest.fixture
def ledger(tmp_path):
    return ResultsLedger(tmp_path / "ledger")


def _plan(evaluator):
    return evaluator.planner.plan_rows(checkable_only=True, threshold=1)


def assert_partials_equal(a, b):
    assert a.trials == b.trials and a.failures == b.failures
    assert a.heavy == b.heavy
    np.testing.assert_array_equal(a.x_hist, b.x_hist)
    np.testing.assert_array_equal(a.z_hist, b.z_hist)
    np.testing.assert_array_equal(a.rows, b.rows)


class TestLedgerEvaluator:
    def test_warm_map_dispatches_zero_chunks(self, steane_engine, ledger):
        inline = ShardedEvaluator(steane_engine, max_slab=16)
        baseline = inline.reduce(_plan(inline))

        cold = LedgerEvaluator(ShardedEvaluator(steane_engine, max_slab=16), ledger)
        merged_cold = merge_partials(cold.map(_plan(cold)))
        assert cold.chunk_hits == 0 and cold.chunk_computes > 0
        assert_partials_equal(merged_cold, baseline)

        class Exploding(ShardedEvaluator):
            def map(self, chunks):
                chunks = list(chunks)
                if chunks:
                    raise AssertionError("warm run dispatched chunks")
                return iter(())

        warm = LedgerEvaluator(Exploding(steane_engine, max_slab=16), ledger)
        merged_warm = merge_partials(warm.map(_plan(warm)))
        assert warm.chunk_hits == cold.chunk_computes
        assert warm.chunk_computes == 0
        assert_partials_equal(merged_warm, baseline)

    def test_partial_misses_compute_only_the_gap(self, steane_engine, ledger):
        cold = LedgerEvaluator(ShardedEvaluator(steane_engine, max_slab=16), ledger)
        chunks = list(_plan(cold))
        # Prime the ledger with a prefix of the plan only.
        list(cold.map(chunks[: len(chunks) // 2]))
        warm = LedgerEvaluator(ShardedEvaluator(steane_engine, max_slab=16), ledger)
        merged = merge_partials(warm.map(chunks))
        assert warm.chunk_hits == len(chunks) // 2
        assert warm.chunk_computes == len(chunks) - len(chunks) // 2
        inline = ShardedEvaluator(steane_engine, max_slab=16)
        assert_partials_equal(merged, inline.reduce(chunks))

    def test_corrupt_chunk_record_recomputed_not_served(
        self, steane_engine, ledger
    ):
        cold = LedgerEvaluator(ShardedEvaluator(steane_engine, max_slab=16), ledger)
        baseline = merge_partials(cold.map(_plan(cold)))
        # Flip bits across the whole chunk segment.
        path = ledger.segment_path("chunk")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        fresh = ResultsLedger(ledger.root)
        warm = LedgerEvaluator(
            ShardedEvaluator(steane_engine, max_slab=16), fresh
        )
        merged = merge_partials(warm.map(_plan(warm)))
        assert warm.chunk_computes >= 1  # the damaged record was re-run
        assert fresh.stats.quarantined >= 1
        assert_partials_equal(merged, baseline)

    def test_on_partial_progress_stream(self, steane_engine, ledger):
        events = []
        evaluator = LedgerEvaluator(
            ShardedEvaluator(steane_engine, max_slab=16),
            ledger,
            on_partial=events.append,
        )
        merged = merge_partials(evaluator.map(_plan(evaluator)))
        assert len(events) == evaluator.chunk_computes
        assert {e["source"] for e in events} == {"computed"}
        assert sum(e["trials"] for e in events) == merged.trials


class TestFromTallies:
    def test_replay_estimates_bit_identical(self, steane_engine, ledger):
        protocol = cached_protocol("steane")
        grid = [1e-4, 1e-3, 1e-2, 1e-1]
        with SubsetSampler.for_protocol(
            protocol,
            engine="batched",
            k_max=2,
            rng=np.random.default_rng(7),
            ledger=False,
        ) as sampler:
            sampler.enumerate_k1_exact()
            sampler.sample(1500)
            live = sampler.curve(grid)
            strata = {
                k: {
                    "trials": s.trials,
                    "failures": s.failures,
                    "exact": s.exact,
                }
                for k, s in sampler.strata.items()
            }
            locations = sampler.locations

        replay = SubsetSampler.from_tallies(locations, strata, k_max=2)
        replayed = replay.curve(grid)
        assert replay.p_ceiling == sampler.p_ceiling
        for a, b in zip(live, replayed):
            assert (a.p, a.mean, a.lower, a.upper, a.tail) == (
                b.p,
                b.mean,
                b.lower,
                b.upper,
                b.tail,
            )

    def test_accepts_string_keys_and_tuple_specs(self):
        locations = cached_protocol("steane")
        from repro.sim.frame import protocol_locations

        locs = protocol_locations(locations)
        a = SubsetSampler.from_tallies(
            locs,
            {
                0: {"trials": 1, "failures": 0, "exact": True},
                1: {"trials": 10, "failures": 1, "exact": False},
            },
        )
        b = SubsetSampler.from_tallies(
            locs, {"0": (1, 0, True), "1": (10, 1, False)}
        )
        ea, eb = a.estimate(1e-3), b.estimate(1e-3)
        assert (ea.mean, ea.lower, ea.upper) == (eb.mean, eb.lower, eb.upper)


class TestRunSeriesLedger:
    GRID = [1e-4, 1e-3, 1e-2]

    def _run(self, ledger, **kwargs):
        return run_series(
            "steane",
            protocol=cached_protocol("steane"),
            shots=1200,
            k_max=2,
            sweep=self.GRID,
            seed=11,
            ledger=ledger,
            **kwargs,
        )

    @staticmethod
    def assert_series_equal(a, b):
        assert a.code == b.code and a.f1_exact == b.f1_exact
        assert len(a.estimates) == len(b.estimates)
        for ea, eb in zip(a.estimates, b.estimates):
            assert (ea.p, ea.mean, ea.lower, ea.upper, ea.tail) == (
                eb.p,
                eb.mean,
                eb.lower,
                eb.upper,
                eb.tail,
            )

    def test_replay_is_bit_identical_with_zero_engine_builds(
        self, ledger, monkeypatch
    ):
        cold = self._run(ledger)
        # A warm run must not even construct an engine.
        monkeypatch.setattr(
            sampler_mod,
            "make_sampler",
            lambda *a, **k: pytest.fail("ledger hit built an engine"),
        )
        warm = self._run(ledger)
        self.assert_series_equal(cold, warm)

    def test_one_record_serves_any_grid(self, ledger, monkeypatch):
        self._run(ledger)
        monkeypatch.setattr(
            sampler_mod,
            "make_sampler",
            lambda *a, **k: pytest.fail("ledger hit built an engine"),
        )
        other = run_series(
            "steane",
            protocol=cached_protocol("steane"),
            shots=1200,
            k_max=2,
            sweep=[3e-4, 2e-3],  # a grid never computed
            seed=11,
            ledger=ledger,
        )
        assert [e.p for e in other.estimates] == [3e-4, 2e-3]

    def test_no_ledger_hatch_is_bit_identical(self, ledger):
        cold = self._run(ledger)
        off = self._run(False)
        self.assert_series_equal(cold, off)

    def test_different_plan_misses(self, ledger):
        self._run(ledger)
        before = len(list(ledger.entries("series")))
        run_series(
            "steane",
            protocol=cached_protocol("steane"),
            shots=1200,
            k_max=2,
            sweep=self.GRID,
            seed=12,  # different seed -> different key -> recompute
            ledger=ledger,
        )
        assert len(list(ledger.entries("series"))) == before + 1

    def test_run_figure4_threads_the_ledger(self, ledger):
        series = run_figure4(
            ["steane"], shots=1000, sweep=self.GRID, ledger=ledger
        )
        assert len(list(ledger.entries("series"))) == 1
        warm = run_figure4(
            ["steane"], shots=1000, sweep=self.GRID, ledger=ledger
        )
        self.assert_series_equal(series[0], warm[0])


def _pre_revision_key(digest: str, kind: str, plan: dict) -> str:
    """A ledger key in the form used before ``DRAW_REVISION`` 2."""
    return store_keys.sha256_hex(
        json.dumps(
            {
                "artifact": "result",
                "kind": kind,
                "protocol": digest,
                "model": "none",
                "plan": plan,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
    )


def _pre_revision_series_key(digest: str, *, shots: int, k_max: int, seed: int):
    return _pre_revision_key(
        digest,
        "series",
        {
            "shots": shots,
            "k_max": k_max,
            "seed": seed,
            "exact_k1": True,
            "scheme": "sharded",
            "max_slab": None,
            "mem_budget": None,
            "direct_check_at": None,
            "direct_shots": 0,
        },
    )


def _revision_2_series_key(digest: str, *, shots: int, k_max: int, seed: int):
    """A series key as ``DRAW_REVISION`` 2 wrote it (constant 500-shot
    DSS rounds)."""
    return _pre_revision_key(
        digest,
        "series",
        {
            "shots": shots,
            "k_max": k_max,
            "seed": seed,
            "exact_k1": True,
            "draw_revision": 2,
            "max_slab": None,
            "mem_budget": None,
            "direct_check_at": None,
            "direct_shots": 0,
        },
    )


def _pre_revision_chunk_key(digest: str, chunk) -> str:
    return _pre_revision_key(
        digest,
        "chunk",
        {
            "type": "stratum",
            "k": chunk.k,
            "shots": chunk.shots,
            "entropy": list(chunk.entropy),
        },
    )


class TestDrawRevision:
    """Ledger records written before the current draw revision (the Floyd
    stratum draw in 2, the DSS allocation rounds in 3) hold tallies of an
    older draw stream: a ledger filled then misses them."""

    def test_helpers_rebuild_the_pre_revision_keys(self):
        """Every form, checked against keys the older code produced."""
        assert _pre_revision_series_key(
            "ab" * 32, shots=4000, k_max=3, seed=2025
        ) == "753ff0af905086acc0cc53230e24bfb275c985977f1d5b9da1fe34113150a167"
        assert _revision_2_series_key(
            "ab" * 32, shots=4000, k_max=3, seed=2025
        ) == "3209e9cfdcd7e8cdc622c2293f91d612b96c860212997be648272bd037d23f19"
        chunk = StratumChunk(index=0, k=2, shots=512, entropy=(77, 0))
        assert _pre_revision_chunk_key("ab" * 32, chunk) == (
            "1349efef106bc454d8f644111973f31129eb0acd6fd423a26573886263f30df0"
        )

    PLAN = dict(shots=1200, k_max=2, seed=11)

    def run(self, ledger):
        return run_series(
            "steane",
            protocol=cached_protocol("steane"),
            sweep=TestRunSeriesLedger.GRID,
            ledger=ledger,
            **self.PLAN,
        )

    @pytest.fixture
    def cold_and_bogus(self, tmp_path):
        """A cold series and its ledger record with every sampled shot
        turned into a failure: unmistakable if served."""
        digest = store_keys.protocol_digest(cached_protocol("steane"))
        source = ResultsLedger(tmp_path / "source")
        cold = self.run(source)
        record = source.get(
            "series", store_keys.series_key(digest, None, **self.PLAN)
        )
        for stratum in record["strata"].values():
            if not stratum["exact"]:
                stratum["failures"] = stratum["trials"]
        return cold, record

    def served_from(self, tmp_path, key_fn, cold_and_bogus):
        """Run the series on a ledger holding the bogus record under
        ``key_fn(digest, **plan)``; return (series, series record count)."""
        cold, record = cold_and_bogus
        digest = store_keys.protocol_digest(cached_protocol("steane"))
        ledger = ResultsLedger(tmp_path / "served")
        ledger.put("series", key_fn(digest, **self.PLAN), record)
        return self.run(ledger), len(list(ledger.entries("series")))

    def test_current_series_record_served(self, tmp_path, cold_and_bogus):
        """Control: the revision-3 key of the same record is served."""
        served, records = self.served_from(
            tmp_path,
            lambda digest, **plan: store_keys.series_key(digest, None, **plan),
            cold_and_bogus,
        )
        cold = cold_and_bogus[0]
        assert [e.mean for e in served.estimates] != [e.mean for e in cold.estimates]
        assert records == 1

    def assert_recomputed(self, tmp_path, key_fn, cold_and_bogus):
        recomputed, records = self.served_from(tmp_path, key_fn, cold_and_bogus)
        TestRunSeriesLedger.assert_series_equal(recomputed, cold_and_bogus[0])
        assert records == 2

    def test_old_series_record_not_served(self, tmp_path, cold_and_bogus):
        self.assert_recomputed(tmp_path, _pre_revision_series_key, cold_and_bogus)

    def test_revision_2_series_record_not_served(self, tmp_path, cold_and_bogus):
        self.assert_recomputed(tmp_path, _revision_2_series_key, cold_and_bogus)

    def test_old_chunk_record_not_served(self, steane_engine, ledger):
        inline = ShardedEvaluator(steane_engine, max_slab=300)
        plan = list(inline.planner.plan_stratum(2, 600, entropy=77))
        baseline = inline.reduce(plan)
        digest = store_keys.protocol_digest(steane_engine.protocol)
        for chunk in plan:
            bogus = ShardPartial(
                index=chunk.index, trials=chunk.shots, failures=chunk.shots
            )
            ledger.put(
                "chunk",
                _pre_revision_chunk_key(digest, chunk),
                partial_to_jsonable(bogus),
            )
        warm = LedgerEvaluator(ShardedEvaluator(steane_engine, max_slab=300), ledger)
        merged = merge_partials(warm.map(plan))
        assert warm.chunk_hits == 0 and warm.chunk_computes == len(plan) == 2
        assert (merged.trials, merged.failures) == (
            baseline.trials,
            baseline.failures,
        )
        assert baseline.failures < baseline.trials


def _massless_pair_chunk_key(digest: str, chunk) -> str:
    """A pair-chunk key as written before pair partials carried
    ``pair_mass`` for E1_1."""
    return _pre_revision_key(
        digest, "chunk", {"type": "pairs", "lo": chunk.lo, "hi": chunk.hi}
    )


class TestPairMassRecords:
    """An E1_1 pair partial stored without ``pair_mass`` cannot feed the
    budget's per-pair masses, so its key must not match the current one."""

    def test_helper_rebuilds_the_massless_key(self):
        chunk = PairChunk(index=0, lo=0, hi=100)
        assert _massless_pair_chunk_key("ab" * 32, chunk) == (
            "7daffabe68889f498c67ab1326e5bc5c3d443b068a3401ac2d2e8d442566b099"
        )
        assert store_keys.chunk_key("ab" * 32, None, chunk) != (
            _massless_pair_chunk_key("ab" * 32, chunk)
        )

    def test_budget_recomputes_over_massless_records(self, ledger):
        protocol = cached_protocol("steane")
        cold = two_fault_error_budget(protocol, max_slab=4000)
        engine = make_sampler(protocol)
        inline = ShardedEvaluator(engine, max_slab=4000)
        plan = list(inline.planner.plan_pairs())
        digest = store_keys.protocol_digest(protocol)
        for chunk, partial in zip(plan, inline.map(plan)):
            partial.pair_mass = None
            ledger.put(
                "chunk",
                _massless_pair_chunk_key(digest, chunk),
                partial_to_jsonable(partial),
            )
        wrapped = []

        def executor(engine, max_slab, model):
            evaluator = LedgerEvaluator(
                ShardedEvaluator(engine, max_slab=max_slab, model=model),
                ledger,
                model=model,
            )
            wrapped.append(evaluator)
            return evaluator

        warm = two_fault_error_budget(protocol, max_slab=4000, executor=executor)
        assert wrapped[0].chunk_hits == 0
        assert wrapped[0].chunk_computes == len(plan)
        assert warm.f2_exact.hex() == cold.f2_exact.hex()
        assert warm.by_segment_pair == cold.by_segment_pair
        again = two_fault_error_budget(protocol, max_slab=4000, executor=executor)
        assert wrapped[1].chunk_hits == len(plan)
        assert again.f2_exact.hex() == cold.f2_exact.hex()
