"""Lookup-table decoding for the perfect error-correction round.

The paper follows every protocol run by one noiseless EC round with
lookup-table decoding before the destructive readout. For an error of one
type with syndrome ``s`` (parities against the opposite-type checks), the
table stores a minimum-weight error producing ``s``; applying it returns
the state to the code space, and the run fails logically iff the residual
loop (error + correction) acts as a logical operator.

Tables are built breadth-first over error weights, so entries are always
minimum-weight representatives; all ``2^rank`` syndromes of the d < 5
catalog codes fit comfortably.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..pauli.symplectic import as_bit_matrix

__all__ = ["LookupDecoder"]


class LookupDecoder:
    """Min-weight lookup decoder against a fixed check matrix.

    ``checks`` has one row per measured check; an error ``e`` (same type as
    what the checks detect) has syndrome ``checks @ e mod 2``.
    """

    def __init__(self, checks):
        self.checks = as_bit_matrix(checks)
        self.m, self.n = self.checks.shape
        self._table: dict[bytes, np.ndarray] = {}
        self._build()

    def _build(self) -> None:
        # Breadth-first over weights; within one weight the first support
        # in ``itertools.combinations`` order wins. A support's syndrome id
        # is the XOR of its qubits' column ids, so each weight is one
        # vectorized pass instead of one matrix product per support.
        column_ids = np.left_shift(1, np.arange(self.m, dtype=np.int64)) @ self.checks
        zero = np.zeros(self.n, dtype=np.uint8)
        self._table[self._key(zero)] = zero
        total = 1 << self.m
        for weight in range(1, self.n + 1):
            if len(self._table) == total:
                break
            supports = np.fromiter(
                itertools.chain.from_iterable(
                    itertools.combinations(range(self.n), weight)
                ),
                dtype=np.intp,
            ).reshape(-1, weight)
            ids, first = np.unique(
                np.bitwise_xor.reduce(column_ids[supports], axis=1),
                return_index=True,
            )
            bits = ((ids[:, None] >> np.arange(self.m)) & 1).astype(np.uint8)
            errors = np.zeros((ids.size, self.n), dtype=np.uint8)
            np.put_along_axis(errors, supports[first], 1, axis=1)
            for syndrome, error in zip(bits, errors):
                self._table.setdefault(syndrome.tobytes(), error)
        # Some syndromes may be unreachable if checks are dependent; that is
        # fine — decode() raises only if asked for one of those.

    def _key(self, error: np.ndarray) -> bytes:
        return (self.checks @ error % 2).astype(np.uint8).tobytes()

    def syndrome(self, error) -> np.ndarray:
        error = np.asarray(error, dtype=np.uint8)
        return (self.checks @ error % 2).astype(np.uint8)

    def decode(self, syndrome) -> np.ndarray:
        """Minimum-weight error consistent with ``syndrome``."""
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        key = syndrome.tobytes()
        try:
            return self._table[key].copy()
        except KeyError:
            raise ValueError("syndrome outside the decodable set") from None

    def correct(self, error) -> np.ndarray:
        """``error + decode(syndrome(error))`` — the post-EC residual."""
        error = np.asarray(error, dtype=np.uint8)
        return error ^ self.decode(self.syndrome(error))
