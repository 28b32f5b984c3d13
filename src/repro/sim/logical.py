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
    The batched path packs each syndrome into one int64 id, so the decoder
    may have at most 62 checks.
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
                "into int64 ids and supports at most 62"
            )
        self.logical_z = code.logical_z
        self._parity_memo: dict[int, np.ndarray] = {}

    def __getstate__(self):
        # The memo is a per-process cache: a pickled judge (the cluster
        # payload) has the same bytes before and after use.
        state = self.__dict__.copy()
        del state["_parity_memo"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._parity_memo = {}

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

    def failure_mask(self, data_x: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_logical_failure` over a ``(shots, n)`` batch.

        The decoder is the only non-linear step, so it runs once per
        *distinct* syndrome the judge ever sees (the correction parities
        are memoized across calls); everything else is two GF(2) matrix
        products across the whole shot axis. This makes even an expensive
        decoder (MWPM) cost O(unique syndromes), not O(shots).
        """
        data_x = np.asarray(data_x, dtype=np.uint8)
        if data_x.ndim != 2:
            raise ValueError("expected a (shots, n) batch of X residuals")
        if data_x.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        checks = self.x_decoder.checks
        syndromes = (data_x @ checks.T) % 2  # (shots, m)
        m = syndromes.shape[1]
        weights = np.left_shift(np.int64(1), np.arange(m, dtype=np.int64))
        unique_ids, inverse = np.unique(syndromes @ weights, return_inverse=True)
        memo = self._parity_memo
        syndrome_ids = unique_ids.tolist()
        for syndrome_id in syndrome_ids:
            if syndrome_id not in memo:
                bits = ((syndrome_id >> np.arange(m)) & 1).astype(np.uint8)
                correction = self.x_decoder.decode(bits)
                memo[syndrome_id] = self.logical_z @ correction % 2
        correction_parity = np.array(
            [memo[syndrome_id] for syndrome_id in syndrome_ids], dtype=np.uint8
        ).reshape(unique_ids.size, self.logical_z.shape[0])
        raw_parity = (data_x @ self.logical_z.T) % 2  # (shots, k)
        parity = raw_parity ^ correction_parity[inverse]
        return parity.any(axis=1)
