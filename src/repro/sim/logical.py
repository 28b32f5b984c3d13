"""Logical-failure determination for |0...0>_L runs (paper Sec. V.B).

After the protocol, the paper applies a perfect EC round with lookup-table
decoding and destructively measures all data qubits in the Z basis; a run
is a logical error when the resulting bitstring anticommutes with a logical
operator of the prepared eigenstate — for |0...0>_L, when any logical-Z
parity is odd. Z-type residuals are invisible to a Z-basis readout of a Z
eigenstate, so only the X-type residual (after perfect X-correction) can
flip a logical-Z parity.
"""

from __future__ import annotations

import numpy as np

from ..codes.css import CSSCode
from .decoder import LookupDecoder
from .frame import RunResult

__all__ = ["LogicalJudge"]


class LogicalJudge:
    """Decides logical failure of protocol runs for one code.

    ``x_decoder`` defaults to the paper's lookup table over the Z checks
    (Z checks detect X errors); any decoder exposing ``checks`` and
    ``decode(syndrome)`` — e.g.
    :class:`~repro.sim.matching.MatchingDecoder` for matchable codes at
    larger distance — plugs into both the per-shot and the batched path.
    The batched path packs each syndrome into one integer id, so the
    decoder may have at most 62 checks.
    """

    def __init__(self, code: CSSCode, x_decoder=None):
        self.code = code
        self.x_decoder = (
            LookupDecoder(code.hz) if x_decoder is None else x_decoder
        )
        checks = self.x_decoder.checks.shape[0]
        if checks > 62:
            raise ValueError(
                f"decoder has {checks} checks; LogicalJudge packs syndromes "
                "into integer ids and supports at most 62"
            )
        self.logical_z = code.logical_z
        # The data wires of each check, then of each logical Z, as
        # ``reduceat`` segments over the packed X planes.
        rows, self._support_wires = np.nonzero(
            np.concatenate([self.x_decoder.checks, self.logical_z])
        )
        self._supported, self._support_starts = np.unique(rows, return_index=True)
        self._parity_memo: dict[int, np.ndarray] = {}

    @classmethod
    def with_matching(cls, code: CSSCode) -> "LogicalJudge":
        """Judge backed by the MWPM decoder (requires a matchable ``hz``)."""
        from .matching import MatchingDecoder

        return cls(code, x_decoder=MatchingDecoder(code.hz))

    def is_logical_failure(self, result: RunResult) -> bool:
        """Perfect EC + destructive Z readout: did a logical-Z parity flip?"""
        residual = self.x_decoder.correct(result.data_x)
        parities = self.logical_z @ residual % 2
        return bool(parities.any())

    def failure_mask(self, x_words: np.ndarray, num_shots: int) -> np.ndarray:
        """Vectorized :meth:`is_logical_failure` over a packed batch.

        ``x_words`` is the ``(n, words)`` uint64 X residual plane of
        ``num_shots`` shots (bit ``s`` of word ``s // 64`` is shot ``s``,
        as the batched engine packs it). Each check's and each logical-Z
        support's rows XOR into one packed plane, so only those ``m + k``
        planes are unpacked. The decoder is the only non-linear step, so
        it runs once per *distinct* syndrome the judge ever sees (the
        correction parities are memoized across calls). This makes even
        an expensive decoder (MWPM) cost O(unique syndromes), not
        O(shots).
        """
        x_words = np.asarray(x_words, dtype=np.uint64)
        if x_words.ndim != 2:
            raise ValueError("expected an (n, words) packed X residual plane")
        if num_shots == 0:
            return np.zeros(0, dtype=bool)
        m = self.x_decoder.checks.shape[0]
        planes = np.zeros((m + self.logical_z.shape[0], x_words.shape[1]), np.uint64)
        planes[self._supported] = np.bitwise_xor.reduceat(
            x_words[self._support_wires], self._support_starts, axis=0
        )
        bits = np.unpackbits(
            planes.view(np.uint8), axis=1, bitorder="little", count=num_shots
        )  # (m + k, shots)
        # Syndrome ids in the narrowest unsigned type that holds m bits:
        # a stable sort of 8- or 16-bit keys is a radix sort.
        id_type = np.min_scalar_type((1 << m) - 1)
        weights = np.left_shift(1, np.arange(m)).astype(id_type)
        ids = np.einsum("j,js->s", weights, bits[:m])
        order = np.argsort(ids, kind="stable")
        ordered = ids[order]
        first = np.empty(num_shots, dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        inverse = np.empty(num_shots, dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        syndrome_ids = ordered[first].tolist()
        memo = self._parity_memo
        for syndrome_id in syndrome_ids:
            if syndrome_id not in memo:
                syndrome = ((syndrome_id >> np.arange(m)) & 1).astype(np.uint8)
                correction = self.x_decoder.decode(syndrome)
                memo[syndrome_id] = self.logical_z @ correction % 2
        correction_parity = np.array(
            [memo[syndrome_id] for syndrome_id in syndrome_ids], dtype=np.uint8
        ).reshape(len(syndrome_ids), self.logical_z.shape[0])
        parity = bits[m:] ^ correction_parity.T.take(inverse, axis=1)  # (k, shots)
        return parity.any(axis=0)
