"""The JSON forms that cross process and machine boundaries: noise
models, chunk specs and the engine payload.

Every form round-trips to an object that compares equal (or, for the
payload, an engine that judges identically), and every decoder refuses
input it cannot rebuild with a readable ``ValueError``. The chunk
token the ledger keys on is derived from the chunk codec; its bytes are
pinned here."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.sim.decoder import LookupDecoder
from repro.sim.logical import LogicalJudge
from repro.sim.noise import E1_1, ScaledNoiseModel
from repro.sim.noisemodels import (
    BiasedPauliModel,
    CorrelatedPairModel,
    InhomogeneousModel,
    model_from_jsonable,
    model_to_jsonable,
)
from repro.sim.sampler import make_sampler
from repro.sim.shard import (
    BernoulliChunk,
    PairChunk,
    RowChunk,
    RowPairChunk,
    StratumChunk,
    chunk_from_jsonable,
    chunk_to_jsonable,
    chunk_token,
    engine_from_payload,
    engine_payload,
)
from repro.store import keys as store_keys

from ..conftest import cached_protocol

_LOCATION_KEY = (("branch", 0, ((1,), ())), 4)

MODELS = [
    E1_1(p=1e-3),
    ScaledNoiseModel(p=1e-3, two_qubit=5.0, measurement=10.0),
    BiasedPauliModel(p=2e-3, eta=100.0),
    InhomogeneousModel(
        p=1e-3,
        kind_rates={"meas": 1e-2, "2q": 3e-3},
        overrides={3: 5e-2, _LOCATION_KEY: 0.25},
    ),
    CorrelatedPairModel(p=1e-3, pair_rate=5e-4),
    CorrelatedPairModel(
        p=1e-3,
        pair_rate=5e-4,
        pairs=((0, 5), (2, 7)),
        base=InhomogeneousModel(p=1e-3, overrides={_LOCATION_KEY: 0.1}),
    ),
]


class TestModelCodec:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_round_trip_compares_equal(self, model):
        text = json.dumps(model_to_jsonable(model))
        clone = model_from_jsonable(json.loads(text))
        assert clone == model
        assert type(clone) is type(model)

    def test_nested_base_and_location_key_overrides_survive(self):
        model = MODELS[-1]
        clone = model_from_jsonable(json.loads(json.dumps(model_to_jsonable(model))))
        assert clone.base.overrides == ((_LOCATION_KEY, 0.1),)
        assert isinstance(clone.base.overrides[0][0], tuple)
        locations = [(_LOCATION_KEY, "meas", (8,))] * 8
        assert np.array_equal(
            clone.location_rates(locations), model.location_rates(locations)
        )

    def test_none_is_the_uniform_default(self):
        assert model_to_jsonable(None) is None
        assert model_from_jsonable(None) is None

    def test_custom_model_class_refused(self):
        class HomeGrown(E1_1):
            pass

        with pytest.raises(ValueError, match="no JSON form"):
            model_to_jsonable(HomeGrown(p=0.1))
        # The coordinator refuses it before opening any connection.
        from repro.sim.cluster import ClusterEvaluator

        engine = make_sampler(cached_protocol("steane"))
        with pytest.raises(ValueError, match="HomeGrown noise model has no JSON"):
            ClusterEvaluator(engine, ["127.0.0.1:1"], model=HomeGrown(p=0.1))

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"type": "Martian", "p": 0.1}, "unknown type"),
            ({"type": ["E1_1"], "p": 0.1}, "unknown type"),
            ([1, 2], "unknown type"),
            ({"type": "E1_1", "p": 0.1, "q": 2}, "malformed E1_1"),
            ({"type": "BiasedPauliModel", "p": 2.0, "eta": 1.0}, "outside"),
            ({"type": "BiasedPauliModel", "p": "x", "eta": 1.0}, "malformed"),
            ({"type": "E1_1", "p": "x"}, "E1_1 rate p"),
            ({"type": "E1_1", "p": 2.0}, "E1_1 rate p"),
            ({"type": "E1_1", "p": True}, "E1_1 rate p"),
            ({"type": "E1_1", "p": float("nan")}, "E1_1 rate p"),
        ],
    )
    def test_bad_forms_raise_value_error(self, data, match):
        with pytest.raises(ValueError, match=match):
            model_from_jsonable(data)


CHUNKS = [
    StratumChunk(index=0, k=2, shots=500, entropy=(77, 0)),
    BernoulliChunk(index=1, shots=64, entropy=(5, 1), model=MODELS[3]),
    RowChunk(index=2, lo=10, hi=74, checkable_only=True, threshold=1),
    PairChunk(index=3, lo=0, hi=9),
    RowPairChunk(index=4, pairs=((0, 5), (3, 17)), threshold=2),
]


class TestChunkCodec:
    @pytest.mark.parametrize("chunk", CHUNKS, ids=lambda c: type(c).__name__)
    def test_round_trip_compares_equal(self, chunk):
        data = json.loads(json.dumps(chunk_to_jsonable(chunk)))
        assert data["index"] == chunk.index
        assert chunk_from_jsonable(data) == chunk

    def test_numpy_fields_encode_as_python_numbers(self):
        chunk = RowPairChunk(index=np.int64(0), pairs=((np.int64(1), np.intp(2)),))
        data = json.loads(json.dumps(chunk_to_jsonable(chunk)))
        assert data == {
            "type": "row_pairs",
            "index": 0,
            "pairs": [[1, 2]],
            "threshold": 2,
        }

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"type": "martian"}, "unknown type"),
            ({"type": None}, "unknown type"),
            ({"shots": -5}, "'shots' out of range"),
            ({"shots": 2.5}, "'shots' out of range"),
            ({"index": True}, "'index' out of range"),
            ({"entropy": [1, 2, 3]}, "'entropy' out of range"),
            ({"entropy": [-1, 0]}, "'entropy' out of range"),
            ({"extra": 1}, "malformed stratum"),
        ],
    )
    def test_bad_stratum_forms_raise_value_error(self, mutation, match):
        data = dict(chunk_to_jsonable(CHUNKS[0]), **mutation)
        with pytest.raises(ValueError, match=match):
            chunk_from_jsonable(data)

    def test_bad_fields_of_the_other_types(self):
        bad = [
            dict(chunk_to_jsonable(CHUNKS[1]), model={"type": "Martian"}),
            dict(chunk_to_jsonable(CHUNKS[1]), model={"type": "E1_1", "p": "x"}),
            dict(chunk_to_jsonable(CHUNKS[1]), model=7),
            dict(chunk_to_jsonable(CHUNKS[2]), checkable_only=1),
            dict(chunk_to_jsonable(CHUNKS[3]), lo="0"),
            dict(chunk_to_jsonable(CHUNKS[4]), pairs=[[0, 5, 6]]),
            dict(chunk_to_jsonable(CHUNKS[4]), pairs=[0, 5]),
            [],
        ]
        for data in bad:
            with pytest.raises(ValueError):
                chunk_from_jsonable(data)

    def test_chunk_token_bytes_are_pinned(self):
        """The ledger's chunk keys are unchanged by deriving the token
        from the chunk codec (values recorded before the codec existed)."""
        digest = "ab" * 32
        expected = {
            StratumChunk(index=3, k=2, shots=512, entropy=(77, 0)): (
                {
                    "type": "stratum",
                    "draw_revision": 3,
                    "k": 2,
                    "shots": 512,
                    "entropy": [77, 0],
                },
                "32d4c29881977176263d80a5cd06885e3e655d37c888b1b094e466b0c2f95969",
            ),
            BernoulliChunk(index=1, shots=64, entropy=(5, 1), model=E1_1(p=0.01)): (
                {
                    "type": "bernoulli",
                    "shots": 64,
                    "entropy": [5, 1],
                    "model": store_keys.model_token(E1_1(p=0.01)),
                },
                "eb5a362672655663e673ce890deae2e14ff21b688377e4bd75501379c7fded5c",
            ),
            RowChunk(index=2, lo=10, hi=74, checkable_only=True, threshold=1): (
                {
                    "type": "rows",
                    "lo": 10,
                    "hi": 74,
                    "checkable_only": True,
                    "threshold": 1,
                },
                "a05a40c58443c2ec068d12cc8181e625c524936a05243fd9dd197c6c52b5146a",
            ),
            PairChunk(index=3, lo=0, hi=9): (
                {"type": "pairs", "mass": 1, "lo": 0, "hi": 9},
                "8517069a42c233c95d1e740d00979a758a651910a8bc130a700000bbeb73f196",
            ),
        }
        for chunk, (token, key) in expected.items():
            assert chunk_token(chunk) == token
            assert store_keys.chunk_key(digest, None, chunk) == key
        assert chunk_token(CHUNKS[4]) is None
        unnameable = BernoulliChunk(
            index=0, shots=1, entropy=(0, 0), model=lambda: None
        )
        assert chunk_token(unnameable) is None


class TestEnginePayload:
    def test_payload_is_canonical_json(self):
        engine = make_sampler(cached_protocol("steane"))
        payload = engine_payload(engine)
        data = json.loads(payload)
        assert (data["engine"], data["judge"]) == ("batched", "lookup")
        assert json.dumps(data, sort_keys=True, separators=(",", ":")) == payload
        assert engine_payload(make_sampler(cached_protocol("steane"))) == payload

    @pytest.mark.parametrize("kind", ["lookup", "matching", "plus"])
    def test_registry_judges_rebuild_exactly(self, kind):
        from repro.synth.plus import PlusStateJudge, synthesize_plus_protocol

        if kind == "plus":
            code = cached_protocol("surface_3").code
            protocol = synthesize_plus_protocol(code)
            judge = PlusStateJudge(code)
        else:
            protocol = cached_protocol("surface_3")
            judge = (
                LogicalJudge.with_matching(protocol.code)
                if kind == "matching"
                else LogicalJudge(protocol.code)
            )
        engine = make_sampler(protocol, engine="reference", judge=judge)
        payload = engine_payload(engine)
        assert json.loads(payload)["judge"] == kind
        rebuilt = engine_from_payload(payload)
        assert type(rebuilt) is type(engine)
        assert type(rebuilt.judge) is type(judge)
        assert type(rebuilt.judge.x_decoder) is type(judge.x_decoder)
        rng = np.random.default_rng(5)
        num = len(engine.locations)
        loc_idx = rng.integers(0, num, size=(200, 1))
        draw_idx = np.zeros_like(loc_idx)
        assert np.array_equal(
            rebuilt.failures_indexed(loc_idx, draw_idx),
            engine.failures_indexed(loc_idx, draw_idx),
        )

    def test_judge_the_registry_cannot_rebuild_is_refused(self):
        protocol = cached_protocol("steane")
        code = protocol.code
        narrowed = LogicalJudge(code, x_decoder=LookupDecoder(code.hz[:2]))
        with pytest.raises(ValueError, match="cannot ship a LogicalJudge"):
            engine_payload(make_sampler(protocol, judge=narrowed))
        with pytest.raises(ValueError, match="cannot ship a _SubclassedJudge"):
            engine_payload(make_sampler(protocol, judge=_SubclassedJudge(code)))


class _SubclassedJudge(LogicalJudge):
    """A judge class no registry entry builds."""
