"""Store integration across the pipeline consumers.

The store's core contract is *latency only, never results*: every
consumer must return bit-identical output with the store cold, warm,
and disabled. These tests also prove the warm paths are actually served
from disk (by planting sentinels under the expected keys), pin the
truncation semantics of cached certificates, and check that synthesis,
engine compilation and cluster workers never unpickle a store entry.
"""

from __future__ import annotations

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
        store.put_text("protocol", key, "{\"not\": \"a protocol\"}")
        recovered = synthesize_protocol(code)
        assert protocol_to_json(recovered) == protocol_to_json(cold)

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
        """Trust-boundary drill: with every pickle read from the store
        refused, synthesis (cold and warm), engine compilation and a
        cluster session against a first and a restarted worker all
        succeed — none of them loads an object from disk."""

        def refuse(self, kind, key):
            raise AssertionError(f"unpickled a {kind!r} store entry")

        monkeypatch.setattr(ArtifactStore, "get_object", refuse)
        cold = synthesize_protocol(get_code("steane"))
        warm = synthesize_protocol(get_code("steane"))
        assert protocol_to_json(cold) == protocol_to_json(warm)
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


class TestCertificateCache:
    def test_certificate_cached_and_bit_identical(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        cold = check_fault_tolerance(protocol)
        key = keys.ftcert_key(keys.protocol_digest(protocol), None)
        cached = store.get_object("ftcert", key)
        assert cached == {"max_violations": 10, "violations": cold}
        assert check_fault_tolerance(protocol) == cold
        assert check_fault_tolerance(protocol, store=False) == cold

    def test_complete_certificate_serves_any_cap(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        key = keys.ftcert_key(keys.protocol_digest(protocol), None)
        # A complete enumeration (fewer violations than its cap) with
        # sentinel contents: any requested cap slices it, no recompute.
        store.put_object(
            "ftcert",
            key,
            {"max_violations": 5, "violations": ["v1", "v2", "v3"]},
        )
        assert check_fault_tolerance(protocol, max_violations=10) == [
            "v1",
            "v2",
            "v3",
        ]
        assert check_fault_tolerance(protocol, max_violations=2) == [
            "v1",
            "v2",
        ]

    def test_truncated_certificate_recomputed_for_higher_cap(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        key = keys.ftcert_key(keys.protocol_digest(protocol), None)
        # A truncated record (len == cap) only covers caps <= 2.
        store.put_object(
            "ftcert",
            key,
            {"max_violations": 2, "violations": ["v1", "v2"]},
        )
        assert check_fault_tolerance(protocol, max_violations=1) == ["v1"]
        # A higher cap cannot be served from the truncated record: the
        # real enumeration runs (steane is FT, so it finds nothing) and
        # overwrites the sentinel.
        assert check_fault_tolerance(protocol, max_violations=5) == []
        assert store.get_object("ftcert", key)["violations"] == []

    def test_model_changes_the_key(self, store):
        from repro.sim.noisemodels import BiasedPauliModel

        protocol = synthesize_protocol(get_code("steane"))
        digest = keys.protocol_digest(protocol)
        model = BiasedPauliModel(p=1e-3, eta=10.0)
        assert keys.ftcert_key(digest, None) != keys.ftcert_key(digest, model)


class TestBudgetCache:
    def test_budget_cached_and_bit_identical(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        cold = two_fault_error_budget(protocol)
        key = keys.budget_key(keys.protocol_digest(protocol), None)
        assert store.get_object("budget", key) == cold
        assert two_fault_error_budget(protocol) == cold
        assert two_fault_error_budget(protocol, store=False) == cold

    def test_max_runs_guard_raises_identically_on_hit(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        two_fault_error_budget(protocol)  # populate the cache
        with pytest.raises(ValueError, match="two-fault budget needs"):
            two_fault_error_budget(protocol, max_runs=10)
        with pytest.raises(ValueError, match="two-fault budget needs"):
            two_fault_error_budget(protocol, max_runs=10, store=False)


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
