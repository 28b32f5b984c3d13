"""Cross-validation of the batched bit-packed engine against the per-shot
reference runner.

The batched engine's claim is *bit-for-bit* equivalence: for the same
faults it must reproduce every observable of ``ProtocolRunner.run`` —
data frame, recorded flips, branch decisions, early termination — and
hence identical acceptance/logical-failure verdicts. These tests pin that
on enumerated k<=1 fault sets, sampled k=2 pairs, and seeded random strata
for the fast catalog codes: each case is written as per-shot injection
dicts, run through the runner as they are and through the engine as the
indexed batch ``dicts_to_indexed`` makes of them.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.serialize import protocol_from_json
from repro.sim.frame import ProtocolRunner, protocol_locations
from repro.sim.logical import LogicalJudge
from repro.sim.noise import (
    E1_1,
    draw_tables,
    fault_draws,
    materialize_stratum,
    sample_injections_model_batch,
    sample_injections_stratum,
)
from repro.sim.noisemodels import CorrelatedPairModel
from repro.sim.sampler import (
    BatchedSampler,
    ReferenceSampler,
    make_sampler,
)
from repro.sim.subset import SubsetSampler

from ..conftest import FAST_CODES, cached_protocol
from ..reference import (
    dicts_to_indexed,
    draw_components,
    reference_mass,
    scatter_fault_image,
)

CROSS_CODES = ["steane", "shor", "surface_3", "carbon"]
FIXTURES = Path(__file__).parents[2] / "perfbench" / "fixtures" / "protocols"
FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))


def fixture_protocol(name: str):
    return protocol_from_json((FIXTURES / f"{name}.json").read_text())


def assert_shot_matches(batch_result, shot, reference_result):
    """One shot of a BatchResult must mirror a reference RunResult."""
    view = batch_result.result(shot)
    assert np.array_equal(view.data_x, reference_result.data_x)
    assert np.array_equal(view.data_z, reference_result.data_z)
    bits = set(view.flips) | set(reference_result.flips)
    for bit in bits:
        assert view.flips.get(bit, 0) == reference_result.flips.get(bit, 0), bit
    assert view.branches_taken == reference_result.branches_taken
    assert view.terminated_early == reference_result.terminated_early


def assert_batches_match(protocol, injection_dicts):
    batched = BatchedSampler(protocol)
    runner = ProtocolRunner(protocol)
    batch = batched.run_indexed(*dicts_to_indexed(batched.locations, injection_dicts))
    for shot, injections in enumerate(injection_dicts):
        assert_shot_matches(batch, shot, runner.run(injections))


class TestEnumeratedFaults:
    @pytest.mark.parametrize("key", CROSS_CODES)
    def test_every_single_fault_draw_matches(self, key):
        """Exhaustive k=1: every location, every conditional draw."""
        protocol = cached_protocol(key)
        injection_dicts = [{}]  # fault-free shot rides along
        for location, kind, wires in protocol_locations(protocol):
            injection_dicts += [
                {location: draw} for draw in fault_draws(kind, wires)
            ]
        assert_batches_match(protocol, injection_dicts)

    @pytest.mark.parametrize("key", ["steane", "surface_3"])
    def test_sampled_fault_pairs_match(self, key):
        """k=2 spot-check over random (pair, draw) combinations."""
        protocol = cached_protocol(key)
        locations = protocol_locations(protocol)
        rng = np.random.default_rng(97)
        injection_dicts = []
        for _ in range(300):
            i, j = rng.choice(len(locations), size=2, replace=False)
            picks = {}
            for index in (int(i), int(j)):
                location, kind, wires = locations[index]
                draws = fault_draws(kind, wires)
                picks[location] = draws[rng.integers(len(draws))]
            injection_dicts.append(picks)
        assert_batches_match(protocol, injection_dicts)


class TestRandomStrata:
    @pytest.mark.parametrize("key", CROSS_CODES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_seeded_stratum_outcomes_match(self, key, k):
        protocol = cached_protocol(key)
        locations = protocol_locations(protocol)
        rng = np.random.default_rng(hash((key, k)) % 2**32)
        loc_idx, draw_idx = sample_injections_stratum(locations, k, 150, rng)
        injection_dicts = materialize_stratum(locations, loc_idx, draw_idx)
        assert_batches_match(protocol, injection_dicts)

    @pytest.mark.parametrize("key", CROSS_CODES)
    def test_failure_verdicts_identical(self, key):
        """The headline contract: identical logical-failure verdicts."""
        protocol = cached_protocol(key)
        batched = BatchedSampler(protocol)
        reference = ReferenceSampler(protocol)
        rng = np.random.default_rng(5)
        loc_idx, draw_idx = sample_injections_stratum(
            batched.locations, 2, 400, rng
        )
        assert np.array_equal(
            batched.failures_indexed(loc_idx, draw_idx),
            reference.failures_indexed(loc_idx, draw_idx),
        )

    @pytest.mark.parametrize("key", ["steane", "shor"])
    def test_run_indexed_engines_agree(self, key):
        """Both engines' ``run_indexed`` return the same observables."""
        protocol = cached_protocol(key)
        batched = BatchedSampler(protocol)
        rng = np.random.default_rng(11)
        batch = sample_injections_model_batch(batched.locations, E1_1(p=0.05), 200, rng)
        fast = batched.run_indexed(*batch)
        slow = ReferenceSampler(protocol).run_indexed(*batch)
        assert np.array_equal(fast.data_x, slow.data_x)
        assert np.array_equal(fast.data_z, slow.data_z)
        assert np.array_equal(fast.terminated, slow.terminated)
        assert fast.branches_taken == slow.branches_taken
        assert any(fast.branches_taken)
        zero = np.zeros(200, dtype=np.uint8)
        for bit in set(fast.flips) | set(slow.flips):
            assert np.array_equal(fast.flips.get(bit, zero), slow.flips.get(bit, zero))


def naive_fault_image(engine, loc_idx, draw_idx) -> np.ndarray:
    """``(components, shots)`` 0/1: every slot's forward-propagated
    signature, XORed per shot, one (location, draw) pair at a time."""
    compiled = engine.compiled
    bits = np.zeros((compiled.num_components, loc_idx.shape[0]), dtype=np.uint8)
    for shot, (locations, draws) in enumerate(zip(loc_idx, draw_idx)):
        for location, draw in zip(locations, draws):
            if location < 0:
                continue
            key, _, _ = engine.locations[location]
            injection = draw_tables(engine.locations)[location][draw]
            bits[draw_components(compiled, key, injection), shot] ^= 1
    return bits


def unpacked(image, shots) -> np.ndarray:
    return np.unpackbits(image.view(np.uint8), axis=1, bitorder="little", count=shots)


def has_repeated_pair(loc_idx, draw_idx) -> bool:
    for locations, draws in zip(loc_idx, draw_idx):
        pairs = [(l, d) for l, d in zip(locations, draws) if l >= 0]
        if len(set(pairs)) < len(pairs):
            return True
    return False


class TestFaultImage:
    """The indexed batch's packed fault image equals the XOR of the
    per-pair forward-propagated signatures, and so does the image of the
    same batch after a round trip through injection dicts (repeated
    draws composed by ``materialize_stratum``)."""

    def check(self, engine, loc_idx, draw_idx):
        shots = loc_idx.shape[0]
        image = engine._image_indexed(loc_idx, draw_idx)
        assert image.shape == (engine.compiled.num_components, (shots + 63) // 64)
        assert np.array_equal(
            unpacked(image, shots), naive_fault_image(engine, loc_idx, draw_idx)
        )
        dicts = materialize_stratum(engine.locations, loc_idx, draw_idx)
        round_trip = dicts_to_indexed(engine.locations, dicts)
        assert np.array_equal(engine._image_indexed(*round_trip), image)

    @pytest.mark.parametrize("key", ["steane", "shor"])
    def test_stratum_batch(self, key):
        engine = BatchedSampler(cached_protocol(key))
        rng = np.random.default_rng(71)
        self.check(engine, *sample_injections_stratum(engine.locations, 3, 300, rng))

    @pytest.mark.parametrize("key", ["steane", "shor"])
    def test_masked_bernoulli_batch(self, key):
        engine = BatchedSampler(cached_protocol(key))
        rng = np.random.default_rng(73)
        loc_idx, draw_idx = sample_injections_model_batch(
            engine.locations, E1_1(p=0.08), 300, rng
        )
        assert (loc_idx < 0).any()
        self.check(engine, loc_idx, draw_idx)

    def test_correlated_pair_batch_repeats_cancel(self):
        engine = BatchedSampler(cached_protocol("steane"))
        rng = np.random.default_rng(79)
        loc_idx, draw_idx = sample_injections_model_batch(
            engine.locations, CorrelatedPairModel(p=0.1, pair_rate=0.2), 300, rng
        )
        assert has_repeated_pair(loc_idx, draw_idx)
        self.check(engine, loc_idx, draw_idx)
        # Repeat each shot's first slot once and twice more: a pair present
        # an even number of times in one shot must cancel.
        once = np.concatenate([loc_idx, loc_idx[:, :1]], axis=1)
        twice = np.concatenate([once, loc_idx[:, :1]], axis=1)
        once_draws = np.concatenate([draw_idx, draw_idx[:, :1]], axis=1)
        twice_draws = np.concatenate([once_draws, draw_idx[:, :1]], axis=1)
        assert has_repeated_pair(once, once_draws)
        self.check(engine, once, once_draws)
        self.check(engine, twice, twice_draws)

    def test_empty_batch_slots(self):
        engine = BatchedSampler(cached_protocol("steane"))
        loc_idx = np.full((5, 2), -1, dtype=np.intp)
        image = engine._image_indexed(loc_idx, np.zeros_like(loc_idx))
        assert not image.any()
        assert not engine.failures_indexed(loc_idx, np.zeros_like(loc_idx)).any()


def indexed_entries(engine, loc_idx, draw_idx):
    """``(shots, pairs)`` entries of an indexed batch (``-1`` slots skipped)."""
    valid = loc_idx.ravel() >= 0
    pairs = (engine._pair_starts[loc_idx] + draw_idx).ravel()[valid]
    shots = np.repeat(np.arange(loc_idx.shape[0]), loc_idx.shape[1])[valid]
    return shots, pairs


class TestFaultImageProduct:
    """The engine's GF(2)-product fault image equals the reference
    repeat-plus-scatter construction on every perfbench fixture."""

    def check(self, engine, loc_idx, draw_idx):
        shots = loc_idx.shape[0]
        expected = scatter_fault_image(
            engine, *indexed_entries(engine, loc_idx, draw_idx), shots
        )
        assert np.array_equal(engine._image_indexed(loc_idx, draw_idx), expected)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stratum_batches(self, name, k):
        engine = BatchedSampler(fixture_protocol(name))
        rng = np.random.default_rng(k)
        for shots in (1, 63, 64, 65, 300):
            batch = sample_injections_stratum(engine.locations, k, shots, rng)
            self.check(engine, *batch)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_masked_bernoulli_batch(self, name):
        engine = BatchedSampler(fixture_protocol(name))
        rng = np.random.default_rng(83)
        loc_idx, draw_idx = sample_injections_model_batch(
            engine.locations, E1_1(p=0.08), 300, rng
        )
        assert (loc_idx < 0).any()
        self.check(engine, loc_idx, draw_idx)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_pair_drawn_twice_cancels(self, name):
        engine = BatchedSampler(fixture_protocol(name))
        rng = np.random.default_rng(89)
        loc_idx, draw_idx = sample_injections_stratum(engine.locations, 2, 65, rng)
        # Shot 0 draws its first pair once more; every other shot's extra
        # slot is empty.
        extra_loc = np.full((65, 1), -1, dtype=loc_idx.dtype)
        extra_draw = np.zeros((65, 1), dtype=draw_idx.dtype)
        extra_loc[0], extra_draw[0] = loc_idx[0, 0], draw_idx[0, 0]
        twice = np.hstack([loc_idx, extra_loc]), np.hstack([draw_idx, extra_draw])
        self.check(engine, *twice)
        # The repeated pair cancels: shot 0 is left with its second pair.
        second = engine._image_indexed(loc_idx[:1, 1:], draw_idx[:1, 1:])
        shot0 = unpacked(engine._image_indexed(*twice), 65)[:, 0]
        assert np.array_equal(shot0, unpacked(second, 1)[:, 0])


class TestSignatureTable:
    """``_signatures()`` from the backward sweep against the forward
    oracle, one (location, draw) pair at a time."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_row_matches_the_oracle(self, name):
        engine = BatchedSampler(fixture_protocol(name))
        nonempty, row_starts, pairs = engine._signatures()
        assert row_starts[0] == 0 and np.all(np.diff(row_starts) > 0)
        # Invert the component-major table into each pair's components.
        components = np.repeat(nonempty, np.diff(np.append(row_starts, pairs.size)))
        flipped = {}
        for component, pair in zip(components.tolist(), pairs.tolist()):
            flipped.setdefault(pair, []).append(component)
        assert 0 <= pairs.min() and pairs.max() < engine._num_pairs
        for location, (key, _, _) in enumerate(engine.locations):
            table = draw_tables(engine.locations)[location]
            for draw, injection in enumerate(table):
                got = flipped.get(engine._pair_starts[location] + draw, [])
                assert len(set(got)) == len(got)
                expected = draw_components(engine.compiled, key, injection)
                assert set(got) == set(expected), (key, draw)

    def test_composed_draws_use_the_table(self):
        """``dicts_to_indexed`` resolves a composition of two draws to its
        draw (or to nothing) and rejects an injection outside the table."""
        from repro.sim.frame import Injection
        from repro.sim.noise import compose_injections

        engine = BatchedSampler(cached_protocol("steane"))
        location = next(
            i for i, (_, kind, _) in enumerate(engine.locations) if kind == "2q"
        )
        key, _, (control, target) = engine.locations[location]
        xi, ix = (Injection(paulis=((w, "X"),)) for w in (control, target))
        both = compose_injections(xi, ix)
        dicts = [{key: both}, {key: compose_injections(xi, xi)}]
        image = unpacked(
            engine._image_indexed(*dicts_to_indexed(engine.locations, dicts)), 2
        )
        expected = np.zeros_like(image)
        expected[draw_components(engine.compiled, key, both), 0] = 1
        assert np.array_equal(image, expected)
        with pytest.raises(ValueError, match="not a fault draw"):
            dicts_to_indexed(
                engine.locations, [{key: Injection(paulis=((target + 1, "X"),))}]
            )


class TestRepeatedBitNames:
    def test_rejected_with_the_bit_and_its_segments(self):
        """The per-shot runner XORs every outcome recorded under one name;
        the packed state keeps one, so the engine refuses the protocol."""
        protocol = fixture_protocol("steane")
        protocol.prep_segment.measure_z(0, "b0.0")
        with pytest.raises(ValueError, match=r"'b0\.0'.*\('prep',\).*\('verif', 0\)"):
            BatchedSampler(protocol)

    def test_repeat_within_one_segment_xors_like_the_runner(self):
        """Inside one segment the sweep gives a repeated name one column,
        the XOR of its records, also for the incoming frame's part."""
        protocol = fixture_protocol("steane")
        protocol.layers[0].circuit.measure_z(0, "p").cx(1, 0).measure_z(0, "p")
        injection_dicts = [{}]
        for location, kind, wires in protocol_locations(protocol):
            injection_dicts += [{location: d} for d in fault_draws(kind, wires)]
        assert_batches_match(protocol, injection_dicts)


class TestResidualWeights:
    """The vectorized coset-weight (certificate) API of both engines."""

    @pytest.mark.parametrize("key", ["steane", "shor", "surface_3"])
    def test_engines_agree_on_residual_weights(self, key):
        from repro.core.errors import error_reducer

        protocol = cached_protocol(key)
        x_reducer = error_reducer(protocol.code, "X")
        z_reducer = error_reducer(protocol.code, "Z")
        batched = BatchedSampler(protocol)
        reference = ReferenceSampler(protocol)
        rng = np.random.default_rng(31)
        loc_idx, draw_idx = sample_injections_stratum(
            batched.locations, 2, 250, rng
        )
        bx, bz = batched.residual_weights_indexed(
            loc_idx, draw_idx, x_reducer, z_reducer
        )
        rx, rz = reference.residual_weights_indexed(
            loc_idx, draw_idx, x_reducer, z_reducer
        )
        assert np.array_equal(bx, rx)
        assert np.array_equal(bz, rz)

    def test_matches_per_shot_coset_weight(self):
        from repro.core.errors import error_reducer

        protocol = cached_protocol("steane")
        runner = ProtocolRunner(protocol)
        x_reducer = error_reducer(protocol.code, "X")
        z_reducer = error_reducer(protocol.code, "Z")
        batched = BatchedSampler(protocol)
        rng = np.random.default_rng(37)
        loc_idx, draw_idx = sample_injections_stratum(
            batched.locations, 2, 120, rng
        )
        dicts = materialize_stratum(batched.locations, loc_idx, draw_idx)
        x_weights, z_weights = batched.residual_weights_indexed(
            loc_idx, draw_idx, x_reducer, z_reducer
        )
        for shot, injections in enumerate(dicts):
            result = runner.run(injections)
            assert x_weights[shot] == x_reducer.coset_weight(result.data_x)
            assert z_weights[shot] == z_reducer.coset_weight(result.data_z)

    def test_batch_result_packed_planes(self):
        protocol = cached_protocol("steane")
        batched = BatchedSampler(protocol)
        rng = np.random.default_rng(41)
        loc_idx, draw_idx = sample_injections_stratum(
            batched.locations, 1, 70, rng
        )
        batch = batched.run_indexed(loc_idx, draw_idx)
        assert batch.x_words is not None and batch.z_words is not None
        assert batch.x_words.shape == (protocol.code.n, (70 + 63) // 64)
        # Packed planes unpack back to the unpacked data arrays.
        for wire in range(protocol.code.n):
            bits = np.unpackbits(
                batch.x_words[wire : wire + 1].view(np.uint8),
                bitorder="little",
                count=70,
            )
            assert np.array_equal(bits, batch.data_x[:, wire])

    def test_empty_batch(self):
        from repro.core.errors import error_reducer

        protocol = cached_protocol("steane")
        batched = BatchedSampler(protocol)
        x_reducer = error_reducer(protocol.code, "X")
        z_reducer = error_reducer(protocol.code, "Z")
        empty = np.zeros((0, 2), dtype=np.intp)
        for engine in (batched, ReferenceSampler(protocol)):
            xw, zw = engine.residual_weights_indexed(empty, empty, x_reducer, z_reducer)
            assert xw.size == 0 and zw.size == 0


class TestVectorizedJudge:
    def test_failure_mask_matches_per_shot_judge(self):
        protocol = cached_protocol("steane")
        judge = LogicalJudge(protocol.code)
        batched = BatchedSampler(protocol)
        rng = np.random.default_rng(23)
        loc_idx, draw_idx = sample_injections_stratum(
            batched.locations, 2, 300, rng
        )
        batch = batched.run_indexed(loc_idx, draw_idx)
        expected = np.array(
            [judge.is_logical_failure(batch.result(s)) for s in range(300)]
        )
        assert np.array_equal(judge.failure_mask(batch.x_words, 300), expected)

    def test_failure_mask_empty(self):
        judge = LogicalJudge(cached_protocol("steane").code)
        assert judge.failure_mask(np.zeros((7, 0), dtype=np.uint64), 0).size == 0


class TestPackedJudge:
    """``failure_mask`` on the engine's packed X planes equals the
    per-shot ``is_logical_failure`` of the reference runner on the same
    runs, for shot counts that do not fill the last word."""

    @staticmethod
    def check(protocol, judge, k, shots, seed):
        batched = BatchedSampler(protocol, judge=judge)
        rng = np.random.default_rng(seed)
        loc_idx, draw_idx = sample_injections_stratum(batched.locations, k, shots, rng)
        expected = ReferenceSampler(protocol, judge=judge).failures_indexed(
            loc_idx, draw_idx
        )
        assert np.array_equal(batched.failures_indexed(loc_idx, draw_idx), expected)
        batch = batched.run_indexed(loc_idx, draw_idx)
        assert np.array_equal(judge.failure_mask(batch.x_words, shots), expected)
        return expected

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_fixture(self, name):
        """Every fixture, 16_2_4 (two logical qubits) included."""
        protocol = fixture_protocol(name)
        judge = LogicalJudge(protocol.code)
        verdicts = [
            self.check(protocol, judge, k, shots, seed)
            for k, shots, seed in ((3, 1, 1), (2, 65, 2), (3, 190, 3))
        ]
        assert np.concatenate(verdicts).any()

    @pytest.mark.parametrize("key", ["shor", "surface_3"])
    def test_matching_judge(self, key):
        protocol = fixture_protocol(key)
        judge = LogicalJudge.with_matching(protocol.code)
        verdicts = [
            self.check(protocol, judge, k, shots, seed)
            for k, shots, seed in ((2, 63, 4), (3, 129, 5))
        ]
        assert np.concatenate(verdicts).any()


class TestSubsetSamplerEngines:
    @pytest.mark.parametrize("key", FAST_CODES)
    def test_engines_produce_identical_tallies(self, key):
        """Same protocol + same seed => same trials/failures per stratum,
        whichever engine executes the shots."""
        protocol = cached_protocol(key)
        tallies = {}
        for engine in ("batched", "reference"):
            sampler = SubsetSampler.for_protocol(
                protocol,
                engine=engine,
                k_max=2,
                rng=np.random.default_rng(2025),
            )
            for k in (1, 2):
                sampler.sample_stratum(k, 300)
            tallies[engine] = {
                k: (stats.trials, stats.failures)
                for k, stats in sampler.strata.items()
            }
        assert tallies["batched"] == tallies["reference"]

    def test_exact_k1_matches_legacy_path(self):
        """The planner's f1 equals the per-shot reference sum."""
        protocol = cached_protocol("steane")
        batched = SubsetSampler.for_protocol(
            protocol, engine="batched", k_max=2, rng=np.random.default_rng(0)
        )
        batched.enumerate_k1_exact()
        assert batched.strata[1].rate == pytest.approx(
            reference_mass(protocol, 1), abs=1e-9
        )

    def test_exact_k2_matches_across_engines(self):
        protocol = cached_protocol("steane")
        sums = {}
        for engine in ("batched", "reference"):
            sampler = SubsetSampler.for_protocol(
                protocol, engine=engine, k_max=2, rng=np.random.default_rng(0)
            )
            sampler.enumerate_k2_exact()
            sums[engine] = sampler.strata[2].failures
        assert sums["batched"] == sums["reference"]


class TestEngineFactory:
    def test_make_sampler_names(self):
        protocol = cached_protocol("steane")
        assert make_sampler(protocol, engine="batched").name == "batched"
        assert make_sampler(protocol, engine="reference").name == "reference"

    def test_make_sampler_rejects_unknown(self):
        for engine in ("warp", "kernel", "auto"):
            with pytest.raises(ValueError, match="unknown engine"):
                make_sampler(cached_protocol("steane"), engine=engine)

    def test_empty_batch(self):
        empty = np.zeros((0, 2), dtype=np.intp)
        for name in ("batched", "reference"):
            engine = make_sampler(cached_protocol("steane"), engine=name)
            assert engine.failures_indexed(empty, empty).size == 0
            assert engine.run_indexed(empty, empty).num_shots == 0

    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_fault_free_shot(self, engine):
        """A ``(1, 0)`` batch is one fault-free run: silent, not failing."""
        engine = make_sampler(cached_protocol("steane"), engine=engine)
        none = np.zeros((1, 0), dtype=np.intp)
        result = engine.run_indexed(none, none)
        assert result.num_shots == 1
        assert not result.data_x.any() and not result.data_z.any()
        assert not any(values.any() for values in result.flips.values())
        assert not engine.failures_indexed(none, none)[0]
