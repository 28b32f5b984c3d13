"""Store integration across the pipeline consumers.

The store's core contract is *latency only, never results*: every
consumer must return bit-identical output with the store cold, warm,
and disabled. These tests also prove the warm synthesis path is actually
served from disk (by planting sentinels under the expected keys), that
certificates and budgets are computed on every call rather than served
from the store, and that nothing store-backed ever unpickles.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.codes.catalog import get_code
from repro.core.analysis import two_fault_error_budget
from repro.core.ftcheck import check_fault_tolerance
from repro.core.protocol import synthesize_protocol
from repro.core.serialize import protocol_to_json
from repro.sim.cluster import ClusterEvaluator, ClusterWorker
from repro.sim.sampler import make_sampler
from repro.store import ArtifactStore, keys


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh ambient store every consumer in the test resolves."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
    return ArtifactStore(tmp_path / "store")


class TestSynthesisCache:
    def test_warm_synthesis_served_from_store(self, store):
        code = get_code("steane")
        cold = synthesize_protocol(code)
        key = keys.protocol_key(
            code,
            prep_method="heuristic",
            verification_method="optimal",
            max_correction_measurements=4,
        )
        assert store.get_text("protocol", key) == protocol_to_json(cold)
        # Plant a sentinel under the key: a warm call must return it,
        # proving the store (not a re-synthesis) produced the result.
        sentinel = synthesize_protocol(get_code("shor"), store=False)
        store.put_text("protocol", key, protocol_to_json(sentinel))
        served = synthesize_protocol(code)
        assert served.code.name == "Shor"

    def test_unloadable_entry_recomputed(self, store):
        code = get_code("steane")
        cold = synthesize_protocol(code)
        key = keys.protocol_key(
            code,
            prep_method="heuristic",
            verification_method="optimal",
            max_correction_measurements=4,
        )
        store.put_text("protocol", key, "{not json")
        recovered = synthesize_protocol(code, store=store)
        assert protocol_to_json(recovered) == protocol_to_json(cold)
        # One miss, never a hit; the entry is moved aside and the
        # recompute writes a loadable one in its place.
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert store.stats.quarantined == 1
        assert store.get_text("protocol", key) == protocol_to_json(cold)

    def test_store_on_off_bit_identical(self, store):
        """Cold (synthesized and written), warm (served from the store)
        and off all hand back byte-identical protocol JSON."""
        for key in ("steane", "surface_3"):
            cold = synthesize_protocol(get_code(key))
            warm = synthesize_protocol(get_code(key))
            off = synthesize_protocol(get_code(key), store=False)
            assert (
                protocol_to_json(cold)
                == protocol_to_json(warm)
                == protocol_to_json(off)
            ), key

    def test_plus_protocol_forwards_store(self, store):
        from repro.synth.plus import synthesize_plus_protocol

        synthesize_plus_protocol(get_code("steane"))
        kinds = {entry.kind for entry in store.entries()}
        assert "protocol" in kinds


class TestNoDiskUnpickling:
    def test_synthesis_compile_and_cluster_never_unpickle(
        self, store, monkeypatch
    ):
        """Trust-boundary drill: with ``pickle.loads`` refusing, every
        store-backed call with the store on — synthesis, the certificate
        and the budget, each cold and repeated — succeeds without
        unpickling.
        A cluster session against a first and a restarted worker (whose
        wire is pickle frames by design) then succeeds outside the patch
        without loading anything from the store."""
        unpickled = []

        def refuse(*args, **kwargs):
            unpickled.append(args)
            raise AssertionError("unpickled inside a store-backed call")

        with monkeypatch.context() as patch:
            patch.setattr(pickle, "loads", refuse)
            cold = synthesize_protocol(get_code("steane"))
            warm = synthesize_protocol(get_code("steane"))
            for _ in range(2):  # a first call, then a repeat
                assert check_fault_tolerance(warm) == []
                assert two_fault_error_budget(warm).f2_exact > 0
        assert unpickled == []
        assert protocol_to_json(cold) == protocol_to_json(warm)
        assert {entry.kind for entry in store.entries()} == {"protocol"}
        engine = make_sampler(warm)

        tallies, sources = [], []
        for _ in range(2):  # the second worker is a fresh process stand-in
            worker = ClusterWorker("127.0.0.1", 0)
            threading.Thread(target=worker.serve_forever, daemon=True).start()
            try:
                evaluator = ClusterEvaluator(
                    engine, [worker.address], max_slab=256
                )
                merged = evaluator.reduce(
                    evaluator.planner.plan_stratum(2, 1200, 42)
                )
                sources.append(evaluator._links[0].info["engine_source"])
                evaluator.close()
            finally:
                worker.stop()
            tallies.append((merged.trials, merged.failures))
        assert sources == ["payload", "payload"]
        assert tallies[0] == tallies[1]


class TestResultsComputedEveryCall:
    """The store caches protocols only. With a store enabled, a repeated
    certificate or budget call still builds the engine it asks for and
    runs on the backend it is given, and returns the same result."""

    @pytest.fixture
    def built_engines(self, monkeypatch):
        import repro.sim.sampler as sampler_module

        built = []
        make = sampler_module.make_sampler

        def spy(protocol, *, engine="batched", **kwargs):
            built.append(engine)
            return make(protocol, engine=engine, **kwargs)

        monkeypatch.setattr(sampler_module, "make_sampler", spy)
        return built

    @staticmethod
    def _counting_executor(calls):
        from repro.sim.shard import ShardedEvaluator

        def executor(engine, max_slab, model=None):
            calls.append(max_slab)
            return ShardedEvaluator(engine, max_slab=max_slab)

        return executor

    def test_certificate_recomputed_and_bit_identical(
        self, store, built_engines
    ):
        protocol = synthesize_protocol(get_code("steane"))
        cold = check_fault_tolerance(protocol)
        assert check_fault_tolerance(protocol, engine="reference") == cold
        assert built_engines == ["batched", "reference"]
        calls = []
        executor = self._counting_executor(calls)
        assert check_fault_tolerance(protocol, executor=executor) == cold
        assert len(calls) == 1

    def test_budget_recomputed_and_bit_identical(self, store, built_engines):
        protocol = synthesize_protocol(get_code("steane"))
        cold = two_fault_error_budget(protocol)
        assert two_fault_error_budget(protocol, engine="reference") == cold
        assert built_engines == ["batched", "reference"]
        calls = []
        executor = self._counting_executor(calls)
        assert two_fault_error_budget(protocol, executor=executor) == cold
        assert len(calls) == 1
        assert {entry.kind for entry in store.entries()} == {"protocol"}


class TestSimulationIdentity:
    def test_curve_identical_store_on_off(self, store):
        """The figure4 pipeline (subset sampling) is bit-identical with
        the store serving the protocol versus fully disabled."""
        import numpy as np

        from repro.sim.subset import SubsetSampler

        def run(store_arg):
            protocol = synthesize_protocol(get_code("steane"), store=store_arg)
            with SubsetSampler.for_protocol(
                protocol,
                k_max=2,
                rng=np.random.default_rng(7),
            ) as sampler:
                sampler.enumerate_k1_exact()
                sampler.sample(400)
                return [
                    (e.p, e.mean, e.lower, e.upper)
                    for e in sampler.curve([1e-3, 1e-2])
                ]

        cold = run(None)  # populates the ambient store
        warm = run(None)  # serves the protocol from it
        off = run(False)
        assert cold == warm == off
