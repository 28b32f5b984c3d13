"""Tests for the raw-speed kernel tier (``repro.sim.kernels`` +
``engine="kernel"``).

The tier's whole contract is *bit-identity at higher speed*: the kernels
(numba-compiled when importable, pure-NumPy twins otherwise) must
reproduce the batched engine exactly — on the primitive level (packing,
segment application, popcount reduction, mask scatter), on the engine
level (verdicts, residual weights, full runs), and through every routed
consumer (subset sampler, ftcheck, budgets, direct MC). ``engine="auto"``
must resolve without error on any interpreter.
"""

import pickle

import numpy as np
import pytest

from repro.sim import kernels
from repro.sim.kernels import (
    apply_segment,
    coset_weights,
    pack_rows,
    toggle_bits,
)
from repro.sim.noise import E1_1, sample_injections_stratum
from repro.sim.sampler import (
    BatchedSampler,
    KernelSampler,
    make_sampler,
    resolve_engine_name,
)
from repro.sim.subset import SubsetSampler, direct_mc

from ..conftest import cached_protocol

CROSS_CODES = ["steane", "shor", "surface_3", "carbon"]


def _stratum(engine, k, shots, seed):
    return sample_injections_stratum(
        engine.locations, k, shots, np.random.default_rng(seed)
    )


class TestKernelPrimitives:
    """The dispatched kernels against independent Python oracles.

    On a numba-free interpreter this pins the NumPy twins; on the CI
    ``repro[fast]`` leg the same tests gate the njit kernels — the
    oracles are written from scratch, not in terms of either twin.
    """

    def test_pack_rows_round_trip(self):
        rng = np.random.default_rng(3)
        mat = rng.integers(0, 2, size=(7, 131), dtype=np.uint8)
        packed = pack_rows(mat)
        assert packed.dtype == np.uint64
        assert packed.shape == (7, (131 + 63) // 64)
        # Bit order within a word is an internal convention; what the
        # popcount pipeline relies on is an exact bits round-trip and
        # zero padding. Undo the packing through the byte view.
        as_bytes = np.ascontiguousarray(packed).view(np.uint8)
        unpacked = np.unpackbits(as_bytes, axis=1)
        np.testing.assert_array_equal(unpacked[:, :131], mat)
        assert not unpacked[:, 131:].any()

    def test_coset_weights_matches_min_weight_oracle(self):
        rng = np.random.default_rng(5)
        mat = rng.integers(0, 2, size=(40, 70), dtype=np.uint8)
        # Duplicated rows exercise the dedup/scatter path.
        mat[17] = mat[3]
        mat[29] = mat[3]
        span = rng.integers(0, 2, size=(8, 70), dtype=np.uint8)
        weights = coset_weights(mat, span)
        expected = ((mat[:, None, :] ^ span[None, :, :]).sum(axis=2)).min(
            axis=1
        )
        np.testing.assert_array_equal(weights, expected)
        assert weights[17] == weights[3] == weights[29]

    def test_coset_weights_empty(self):
        span = np.zeros((1, 16), dtype=np.uint8)
        assert coset_weights(np.zeros((0, 16), dtype=np.uint8), span).size == 0

    def test_apply_segment_matches_xor_oracle(self):
        rng = np.random.default_rng(9)
        frame, components, words, faults = 13, 21, 3, 5
        row_lists = [
            np.sort(
                rng.choice(frame, size=int(rng.integers(0, 5)), replace=False)
            ).astype(np.int64)
            for _ in range(components)
        ]
        counts = np.asarray([rows.size for rows in row_lists], dtype=np.int64)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        indices = np.concatenate(row_lists).astype(np.int64)
        incoming = rng.integers(
            0, 2**63, size=(frame, words), dtype=np.uint64
        )
        fault_nnz = 9
        fault_rows = rng.integers(0, faults, size=fault_nnz, dtype=np.int64)
        fault_cols = rng.integers(
            0, components, size=fault_nnz, dtype=np.int64
        )
        fault_masks = rng.integers(
            0, 2**63, size=(faults, words), dtype=np.uint64
        )
        mask = rng.integers(0, 2**63, size=words, dtype=np.uint64)

        out = np.zeros((components, words), dtype=np.uint64)
        apply_segment(
            incoming, indptr, indices, frame, fault_rows, fault_cols,
            fault_masks, mask, out,
        )

        expected = np.zeros_like(out)
        for component, rows in enumerate(row_lists):
            for row in rows:
                expected[component] ^= incoming[row]
        for entry in range(fault_nnz):
            expected[fault_cols[entry]] ^= fault_masks[fault_rows[entry]] & mask
        expected[:frame] &= mask
        expected[:frame] |= incoming[:frame] & ~mask
        expected[frame:] &= mask
        np.testing.assert_array_equal(out, expected)

    def test_toggle_bits_matches_xor_oracle(self):
        # 400 entries over 88 words x 8 bit positions: repeated (word, bit)
        # entries occur and must cancel.
        rng = np.random.default_rng(13)
        size, entries = 88, 400
        positions = rng.integers(0, size, size=entries).astype(np.intp)
        bits = np.uint64(1) << rng.integers(0, 8, size=entries).astype(np.uint64)
        image = np.zeros(size, dtype=np.uint64)
        toggle_bits(image, positions, bits)
        expected = np.zeros_like(image)
        for entry in range(entries):
            expected[positions[entry]] ^= bits[entry]
        assert len(set(zip(positions.tolist(), bits.tolist()))) < entries
        np.testing.assert_array_equal(image, expected)

    def test_backend_name_consistent_with_available(self):
        assert kernels.backend_name() == (
            "numba" if kernels.available() else "numpy"
        )


class TestEngineBitIdentity:
    """KernelSampler vs BatchedSampler: identical bits everywhere."""

    @pytest.mark.parametrize("key", CROSS_CODES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_indexed_verdicts_identical(self, key, k):
        protocol = cached_protocol(key)
        batched = make_sampler(protocol, engine="batched")
        kernel = make_sampler(protocol, engine="kernel")
        loc_idx, draw_idx = _stratum(batched, k, 400, hash((key, k)) % 2**32)
        np.testing.assert_array_equal(
            batched.failures_indexed(loc_idx, draw_idx),
            kernel.failures_indexed(loc_idx, draw_idx),
        )

    @pytest.mark.parametrize("key", ["steane", "surface_3", "carbon"])
    def test_residual_weights_identical(self, key):
        protocol = cached_protocol(key)
        code = protocol.code
        x_reducer = code.x_error_reducer()
        z_reducer = code.z_error_reducer()
        batched = make_sampler(protocol, engine="batched")
        kernel = make_sampler(protocol, engine="kernel")
        loc_idx, draw_idx = _stratum(batched, 2, 300, 17)
        got_b = batched.residual_weights_indexed(
            loc_idx, draw_idx, x_reducer, z_reducer
        )
        got_k = kernel.residual_weights_indexed(
            loc_idx, draw_idx, x_reducer, z_reducer
        )
        np.testing.assert_array_equal(got_b[0], got_k[0])
        np.testing.assert_array_equal(got_b[1], got_k[1])

    def test_full_run_identical(self):
        """run() (dict path, branch bookkeeping included) matches."""
        from repro.sim.noise import sample_injections

        protocol = cached_protocol("steane")
        batched = make_sampler(protocol, engine="batched")
        kernel = make_sampler(protocol, engine="kernel")
        rng = np.random.default_rng(23)
        dicts = [
            sample_injections(batched.locations, 0.05, rng)
            for _ in range(200)
        ]
        np.testing.assert_array_equal(
            batched.failures(dicts), kernel.failures(dicts)
        )
        run_b = batched.run(dicts)
        run_k = kernel.run(dicts)
        for shot in range(0, 200, 17):
            got_b, got_k = run_b.result(shot), run_k.result(shot)
            np.testing.assert_array_equal(got_b.data_x, got_k.data_x)
            np.testing.assert_array_equal(got_b.data_z, got_k.data_z)
            assert got_b.flips == got_k.flips
            assert got_b.branches_taken == got_k.branches_taken


class TestEngineRegistry:
    def test_auto_never_errors(self):
        """The headline auto contract: resolves on any interpreter."""
        resolved = resolve_engine_name("auto")
        assert resolved == ("kernel" if kernels.available() else "batched")
        sampler = make_sampler(cached_protocol("steane"), engine="auto")
        assert isinstance(sampler, BatchedSampler)

    def test_concrete_names_pass_through(self):
        assert resolve_engine_name("batched") == "batched"
        assert resolve_engine_name("kernel") == "kernel"
        assert resolve_engine_name("reference") == "reference"

    def test_kernel_engine_is_exact_type(self):
        sampler = make_sampler(cached_protocol("steane"), engine="kernel")
        assert type(sampler) is KernelSampler
        assert sampler.name == "kernel"
        assert sampler.backend in ("numba", "numpy")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_sampler(cached_protocol("steane"), engine="warp")

    def test_kernel_sampler_pickles_without_backend_state(self):
        """The backend is a property resolved per process — a pickled
        engine never freezes in the tier it was built under."""
        sampler = make_sampler(cached_protocol("steane"), engine="kernel")
        clone = pickle.loads(pickle.dumps(sampler))
        assert type(clone) is KernelSampler
        assert clone.backend == kernels.backend_name()
        loc_idx, draw_idx = _stratum(sampler, 2, 100, 3)
        np.testing.assert_array_equal(
            sampler.failures_indexed(loc_idx, draw_idx),
            clone.failures_indexed(loc_idx, draw_idx),
        )


class TestConsumerParity:
    """Every routed consumer, engine="kernel" vs engine="batched"."""

    def test_subset_sampler_tallies(self):
        protocol = cached_protocol("steane")
        tallies = {}
        for engine in ("batched", "kernel"):
            with SubsetSampler.for_protocol(
                protocol,
                engine=engine,
                rng=np.random.default_rng(29),
                workers=1,
                max_slab=200,
            ) as sampler:
                sampler.enumerate_k1_exact()
                sampler.sample(800, allocation="uniform")
                tallies[engine] = {
                    k: (stats.trials, stats.failures)
                    for k, stats in sampler.strata.items()
                }
        assert tallies["batched"] == tallies["kernel"]

    def test_ftcheck_certificate(self):
        from repro.core.ftcheck import check_fault_tolerance

        protocol = cached_protocol("steane")
        batched = check_fault_tolerance(protocol, engine="batched")
        kernel = check_fault_tolerance(protocol, engine="kernel")
        assert batched == kernel == []

    def test_two_fault_error_budget(self):
        from repro.core.analysis import two_fault_error_budget

        protocol = cached_protocol("steane")
        batched = two_fault_error_budget(protocol, engine="batched")
        kernel = two_fault_error_budget(protocol, engine="kernel")
        assert batched == kernel

    def test_direct_mc(self):
        protocol = cached_protocol("steane")
        estimates = {}
        for engine in ("batched", "kernel"):
            sampler = make_sampler(protocol, engine=engine)
            estimates[engine] = direct_mc(
                sampler,
                E1_1(p=0.02),
                1500,
                rng=np.random.default_rng(41),
                workers=1,
                max_slab=300,
            )
        assert (
            estimates["batched"].failures == estimates["kernel"].failures
        )
        assert estimates["batched"].trials == estimates["kernel"].trials
