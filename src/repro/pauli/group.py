"""Stabilizer-group helpers: coset weights and minimal representatives.

The paper measures error severity by ``wt_S(e) = min_{s in S} wt(s e)``, the
minimum weight over the stabilizer coset. For CSS codes and same-type errors
only the same-type part of ``S`` can reduce the weight (a mixed stabilizer
only adds support), so all routines here work on one F2 support vector at a
time against a same-type group basis.
"""

from __future__ import annotations

import numpy as np

from .symplectic import as_bit_matrix, as_bit_vector, popcount, rref, span_matrix

__all__ = ["CosetReducer"]


class CosetReducer:
    """Fast repeated coset-weight queries against a fixed group.

    Materializes the full span once (fine for the rank <= ~12 groups of
    d < 5 codes) and answers ``wt_S``, minimal-representative and
    batch queries with vectorized numpy.
    """

    def __init__(self, basis, n: int | None = None):
        self.basis = as_bit_matrix(basis, n)
        self.n = self.basis.shape[1]
        reduced, _ = rref(self.basis)
        self.rank = reduced.shape[0]
        self._span = span_matrix(self.basis) if self.rank else np.zeros(
            (1, self.n), dtype=np.uint8
        )
        # Integer row keys for :meth:`dedupe`: qubit 0 is the most
        # significant bit, so key(g ^ v) == key(g) ^ key(v).
        self._place = (
            np.uint64(1) << np.arange(self.n - 1, -1, -1, dtype=np.uint64)
            if self.n <= 64
            else np.array([1 << (self.n - 1 - q) for q in range(self.n)], dtype=object)
        )
        self._keys = self._row_keys(self._span)

    def _row_keys(self, mat: np.ndarray) -> np.ndarray:
        return mat.astype(self._place.dtype) @ self._place

    def coset_weight(self, vec) -> int:
        """``min { wt(vec + g) : g in the group }``."""
        vec = as_bit_vector(vec, self.n)
        return int((self._span ^ vec).sum(axis=1).min())

    def reduce(self, vec) -> np.ndarray:
        """A minimal-weight representative of the coset of ``vec``."""
        vec = as_bit_vector(vec, self.n)
        shifted = self._span ^ vec
        return shifted[int(shifted.sum(axis=1).argmin())].copy()

    def canonical(self, vec) -> bytes:
        """A canonical (hashable) coset label: lexicographically-first member.

        Two vectors get the same label iff they differ by a group element.
        """
        vec = as_bit_vector(vec, self.n)
        shifted = self._span ^ vec
        # Lexicographic minimum over rows via bytes comparison.
        return min(row.tobytes() for row in shifted)

    def dedupe(self, errors) -> list[np.ndarray]:
        """One :meth:`reduce` representative per distinct coset in ``errors``.

        Keeps first-seen order, and each coset is represented by the
        reduction of its first member: the same list as a loop over
        :meth:`canonical` labels, from one pass over the span's keys.
        """
        mat = np.asarray(errors, dtype=np.uint8).reshape(-1, self.n)
        keys = self._row_keys(mat)
        labels = np.empty_like(keys)
        lightest = np.empty(len(keys), dtype=np.intp)
        step = max(1, (1 << 18) // len(self._keys))
        for start in range(0, len(keys), step):
            shifted = keys[start : start + step, None] ^ self._keys
            labels[start : start + step] = shifted.min(axis=1)
            lightest[start : start + step] = popcount(shifted).argmin(axis=1)
        _, first = np.unique(labels, return_index=True)
        first = np.sort(first)
        return list(mat[first] ^ self._span[lightest[first]])

    def within_one(self, rows, others) -> np.ndarray:
        """``out[i][j]``: whether ``rows[i] + others[j]`` has coset weight
        <= 1, i.e. its key is that of a group element plus <= 1 qubit."""
        near = np.concatenate([self._keys, (self._keys[:, None] ^ self._place).ravel()])
        pairs = self._row_keys(np.asarray(rows, dtype=np.uint8))[:, None]
        return np.isin(pairs ^ self._row_keys(np.asarray(others, dtype=np.uint8)), near)

    def coset_weights_batch(self, mat) -> np.ndarray:
        """Coset weights for every row of ``mat`` at once."""
        mat = as_bit_matrix(mat, self.n)
        if mat.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        # (errors, span, n) XOR broadcast; memory ~ rows * 2^rank * n bytes.
        diffs = mat[:, None, :] ^ self._span[None, :, :]
        return diffs.sum(axis=2).min(axis=1).astype(np.int64)

    def coset_weights_dedup(self, mat) -> np.ndarray:
        """Coset weights for every row, reducing each *distinct* row once.

        Monte-Carlo batches repeat the same few residual patterns across
        thousands of shots, so the span broadcast of
        :meth:`coset_weights_batch` runs over the unique rows only and the
        result is scattered back — cost O(unique * 2^rank * n) instead of
        O(rows * 2^rank * n).
        """
        mat = as_bit_matrix(mat, self.n)
        if mat.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        # Small broadcasts are cheaper than the unique() round trip.
        if mat.shape[0] * self._span.shape[0] * self.n <= 1 << 20:
            return self.coset_weights_batch(mat)
        packed = np.packbits(mat, axis=1)
        unique_rows, inverse = np.unique(packed, axis=0, return_inverse=True)
        unpacked = np.unpackbits(unique_rows, axis=1, count=self.n)
        return self.coset_weights_batch(unpacked)[inverse.ravel()]

    def contains(self, vec) -> bool:
        """True iff ``vec`` is itself a group element."""
        vec = as_bit_vector(vec, self.n)
        return bool((self._span == vec).all(axis=1).any())
