"""Unit tests for the GF(2) linear-algebra substrate."""

import numpy as np
import pytest

from repro.codes.catalog import CATALOG, get_code
from repro.pauli.symplectic import (
    as_bit_matrix,
    as_bit_vector,
    augment_to_basis,
    independent_rows,
    kernel,
    min_weight_in_coset,
    min_weight_vector_in_coset,
    popcount,
    random_full_rank,
    rank,
    row_space_contains,
    rref,
    solve,
    span_iter,
    span_matrix,
)

from ..reference import rank_augment_to_basis, rank_independent_rows


class TestAsBitMatrix:
    def test_from_lists(self):
        mat = as_bit_matrix([[1, 0], [0, 1]])
        assert mat.dtype == np.uint8
        assert mat.shape == (2, 2)

    def test_from_strings(self):
        mat = as_bit_matrix(["101", "010"])
        assert (mat == [[1, 0, 1], [0, 1, 0]]).all()

    def test_from_1d_array_reshapes(self):
        mat = as_bit_matrix(np.array([1, 0, 1], dtype=np.uint8))
        assert mat.shape == (1, 3)

    def test_empty_needs_column_count(self):
        with pytest.raises(ValueError):
            as_bit_matrix([])

    def test_empty_with_n(self):
        mat = as_bit_matrix([], 5)
        assert mat.shape == (0, 5)

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError):
            as_bit_matrix(["101"], n=4)

    def test_values_reduced_mod_2(self):
        mat = as_bit_matrix(np.array([[2, 3]], dtype=np.int64))
        assert (mat == [[0, 1]]).all()

    def test_copy_not_view(self):
        src = np.array([[1, 0]], dtype=np.uint8)
        mat = as_bit_matrix(src)
        mat[0, 0] = 0
        assert src[0, 0] == 1


class TestAsBitVector:
    def test_from_string(self):
        assert (as_bit_vector("110") == [1, 1, 0]).all()

    def test_length_check(self):
        with pytest.raises(ValueError):
            as_bit_vector([1, 0], n=3)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_bit_vector(np.zeros((2, 2)))


class TestRref:
    def test_identity_fixed_point(self):
        eye = np.eye(4, dtype=np.uint8)
        reduced, pivots = rref(eye)
        assert (reduced == eye).all()
        assert pivots == [0, 1, 2, 3]

    def test_removes_dependent_rows(self):
        mat = as_bit_matrix(["110", "011", "101"])  # row3 = row1 + row2
        reduced, pivots = rref(mat)
        assert reduced.shape[0] == 2
        assert len(pivots) == 2

    def test_pivot_columns_are_unit(self):
        rng = np.random.default_rng(1)
        mat = rng.integers(0, 2, size=(4, 7), dtype=np.uint8)
        reduced, pivots = rref(mat)
        for row_index, piv in enumerate(pivots):
            column = reduced[:, piv]
            assert column[row_index] == 1
            assert column.sum() == 1

    def test_row_space_preserved(self):
        rng = np.random.default_rng(2)
        mat = rng.integers(0, 2, size=(3, 6), dtype=np.uint8)
        reduced, _ = rref(mat)
        for row in mat:
            assert row_space_contains(reduced, row)
        for row in reduced:
            assert row_space_contains(mat, row)

    def test_zero_matrix(self):
        reduced, pivots = rref(np.zeros((3, 4), dtype=np.uint8))
        assert reduced.shape == (0, 4)
        assert pivots == []


class TestRankKernel:
    def test_rank_identity(self):
        assert rank(np.eye(5, dtype=np.uint8)) == 5

    def test_rank_dependent(self):
        assert rank(as_bit_matrix(["11", "11"])) == 1

    def test_kernel_orthogonal(self):
        rng = np.random.default_rng(3)
        mat = rng.integers(0, 2, size=(3, 8), dtype=np.uint8)
        ker = kernel(mat)
        assert not (mat @ ker.T % 2).any()

    def test_kernel_dimension(self):
        rng = np.random.default_rng(4)
        mat = random_full_rank(rng, 3, 8)
        assert kernel(mat).shape[0] == 8 - 3

    def test_kernel_of_full_rank_square_is_trivial(self):
        assert kernel(np.eye(4, dtype=np.uint8)).shape[0] == 0

    def test_rank_nullity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mat = rng.integers(0, 2, size=(4, 9), dtype=np.uint8)
            assert rank(mat) + kernel(mat).shape[0] == 9


class TestSolve:
    def test_solves_combination(self):
        mat = as_bit_matrix(["1100", "0110", "0011"])
        vec = mat[0] ^ mat[2]
        coeffs = solve(mat, vec)
        assert coeffs is not None
        assert ((coeffs @ mat % 2) == vec).all()

    def test_unsolvable_returns_none(self):
        mat = as_bit_matrix(["1100"])
        assert solve(mat, as_bit_vector("0010")) is None

    def test_zero_vector_solvable(self):
        mat = as_bit_matrix(["101"])
        coeffs = solve(mat, [0, 0, 0])
        assert coeffs is not None
        assert ((coeffs @ mat % 2) == 0).all()

    def test_empty_matrix(self):
        assert solve(as_bit_matrix([], 3), [0, 0, 0]) is not None
        assert solve(as_bit_matrix([], 3), [1, 0, 0]) is None

    def test_row_space_contains_consistency(self):
        rng = np.random.default_rng(6)
        mat = rng.integers(0, 2, size=(3, 6), dtype=np.uint8)
        coeffs = rng.integers(0, 2, size=3, dtype=np.uint8)
        member = coeffs @ mat % 2
        assert row_space_contains(mat, member)


class TestSpan:
    def test_span_iter_count(self):
        mat = as_bit_matrix(["1000", "0100"])
        assert len(list(span_iter(mat))) == 4

    def test_span_iter_dedupes_dependent_basis(self):
        mat = as_bit_matrix(["11", "11"])
        vectors = [tuple(v) for v in span_iter(mat)]
        assert len(vectors) == len(set(vectors)) == 2

    def test_span_matrix_matches_iter(self):
        rng = np.random.default_rng(7)
        mat = rng.integers(0, 2, size=(3, 6), dtype=np.uint8)
        from_iter = {tuple(v) for v in span_iter(mat)}
        from_matrix = {tuple(v) for v in span_matrix(mat)}
        assert from_iter == from_matrix

    def test_span_matrix_contains_zero_and_rows(self):
        mat = as_bit_matrix(["110", "011"])
        rows = {tuple(v) for v in span_matrix(mat)}
        assert (0, 0, 0) in rows
        assert (1, 1, 0) in rows
        assert (0, 1, 1) in rows
        assert (1, 0, 1) in rows

    def test_span_rank_limit(self):
        with pytest.raises(ValueError):
            span_matrix(np.eye(25, dtype=np.uint8))


class TestCosetWeight:
    def test_zero_group(self):
        group = as_bit_matrix([], 4)
        assert min_weight_in_coset(group, [1, 1, 0, 0]) == 2

    def test_reduction_by_group_element(self):
        group = as_bit_matrix(["1100"])
        # 1100 itself reduces to zero weight.
        assert min_weight_in_coset(group, [1, 1, 0, 0]) == 0
        # 1000 ^ 1100 = 0100: weight stays 1.
        assert min_weight_in_coset(group, [1, 0, 0, 0]) == 1

    def test_representative_achieves_minimum(self):
        rng = np.random.default_rng(8)
        group = rng.integers(0, 2, size=(3, 8), dtype=np.uint8)
        vec = rng.integers(0, 2, size=8, dtype=np.uint8)
        rep = min_weight_vector_in_coset(group, vec)
        assert rep.sum() == min_weight_in_coset(group, vec)
        # Representative differs from vec by a group element.
        assert row_space_contains(group, rep ^ vec)


class TestPopcount:
    @pytest.mark.parametrize("dtype", [np.uint64, np.int64, np.uint8])
    @pytest.mark.parametrize("has_bitwise_count", [True, False])
    def test_matches_bit_count(self, dtype, has_bitwise_count, monkeypatch):
        # Without bitwise_count (numpy < 2) popcount reads a byte table.
        if not has_bitwise_count:
            monkeypatch.delattr(np, "bitwise_count", raising=False)
        rng = np.random.default_rng(4)
        high = int(np.iinfo(dtype).max)
        keys = rng.integers(0, high, size=(7, 5), dtype=dtype, endpoint=True)
        expected = [[int(k).bit_count() for k in row] for row in keys.tolist()]
        assert popcount(keys).tolist() == expected
        assert popcount(keys[:, ::2]).tolist() == [row[::2] for row in expected]

    def test_python_int_keys(self):
        keys = np.array([0, (1 << 70) - 1, 1 << 90], dtype=object)
        assert popcount(keys).tolist() == [0, 70, 1]


class TestIndependentRows:
    def test_keeps_originals(self):
        mat = as_bit_matrix(["110", "011", "101"])
        indep = independent_rows(mat)
        assert indep.shape[0] == 2
        for row in indep:
            assert any((row == orig).all() for orig in mat)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        mat = rng.integers(0, 2, size=(5, 7), dtype=np.uint8)
        once = independent_rows(mat)
        twice = independent_rows(once)
        assert (once == twice).all()


class TestAugmentToBasis:
    def test_augments_to_full_rank(self):
        space = np.eye(4, dtype=np.uint8)
        sub = as_bit_matrix(["1000"])
        added = augment_to_basis(sub, space)
        assert added.shape[0] == 3
        combined = np.concatenate([sub, added], axis=0)
        assert rank(combined) == 4

    def test_rejects_outside_subspace(self):
        space = as_bit_matrix(["1100", "0011"])
        sub = as_bit_matrix(["1000"])
        with pytest.raises(ValueError):
            augment_to_basis(sub, space)

    def test_empty_subspace(self):
        space = as_bit_matrix(["110", "011"])
        added = augment_to_basis(as_bit_matrix([], 3), space)
        assert rank(added) == 2


def _same_outcome(fn, reference, *args):
    """``fn`` and ``reference`` return equal matrices or both refuse."""
    try:
        expected = reference(*args)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            fn(*args)
        return False
    got = fn(*args)
    assert got.dtype == expected.dtype == np.uint8
    assert got.shape == expected.shape
    assert (got == expected).all()
    return True


class TestEchelonMatchesRankReference:
    """The incremental echelon picks exactly the rows (and raises exactly
    where) the rank-per-row loops in ``tests/reference.py`` do."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_codes(self, name):
        code = get_code(name)
        hx, hz = code.hx, code.hz
        kx, kz = kernel(hx), kernel(hz)
        for mat in (hx, hz, kx, kz, np.concatenate([hz, kx, hz])):
            _same_outcome(independent_rows, rank_independent_rows, mat)
        for sub, space in ((hz, kx), (hx, kz), (hx, kx), (hz, kz), (kx, hz)):
            _same_outcome(augment_to_basis, rank_augment_to_basis, sub, space)

    def test_seeded_random_matrices(self):
        rng = np.random.default_rng(2025)
        outcomes = []
        for _ in range(50):
            n = int(rng.integers(1, 20))
            rows = int(rng.integers(0, 12))
            space = rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
            _same_outcome(independent_rows, rank_independent_rows, space)
            # Half the subspaces are spans of space rows (accepted), half
            # arbitrary rows (mostly refused).
            rows = int(rng.integers(0, 6))
            if rng.random() < 0.5 and space.shape[0]:
                mix = rng.integers(0, 2, size=(rows, space.shape[0]), dtype=np.uint8)
                sub = mix @ space % 2
            else:
                sub = rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
            outcomes.append(
                _same_outcome(augment_to_basis, rank_augment_to_basis, sub, space)
            )
        assert any(outcomes) and not all(outcomes)


class TestRandomFullRank:
    def test_produces_full_rank(self):
        rng = np.random.default_rng(10)
        mat = random_full_rank(rng, 4, 6)
        assert rank(mat) == 4

    def test_rejects_impossible(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            random_full_rank(rng, 5, 3)
