"""Deterministic FT preparation of the plus state ``|+...+>_L``.

The paper's method targets logical Pauli eigenstates; its evaluation uses
``|0...0>_L``. This module adds the other computational-basis-adjacent
eigenstate, ``|+...+>_L``, via duality rather than re-deriving the error
algebra:

    H^(x)n |+...+>_L(C)  =  |0...0>_L(dual(C))

Transversal Hadamard exchanges X- and Z-type operators, so a protocol
preparing the dual code's zero state *is* — after relabelling every gate
H-conjugated (ResetZ <-> ResetX, MeasureZ <-> MeasureX, CX direction
reversed) — a plus-state protocol for the original code. Rather than
rewriting circuits we expose the dual protocol directly together with a
plus-state logical judge: the physically meaningful quantities (ancilla
and CNOT counts, FT guarantees, logical error rates) are identical under
the relabelling, and the executable object remains a standard
:class:`~repro.core.protocol.DeterministicProtocol`.
"""

from __future__ import annotations

import numpy as np

from ..codes.css import CSSCode
from ..core.protocol import DeterministicProtocol, synthesize_protocol
from ..pauli.symplectic import independent_rows
from ..sim.logical import LogicalJudge

__all__ = ["synthesize_plus_protocol", "PlusStateJudge"]


def synthesize_plus_protocol(
    code: CSSCode,
    *,
    prep_method: str = "heuristic",
    verification_method: str = "optimal",
    max_correction_measurements: int = 4,
    store=None,
) -> DeterministicProtocol:
    """Deterministic FT protocol preparing ``|+...+>_L`` of ``code``.

    Returned in the Hadamard frame: the protocol literally prepares
    ``|0...0>_L`` of ``code.dual()``; applying transversal H to the data
    qubits (and H-conjugating every gadget) turns it into the plus-state
    protocol of ``code``. Costs and FT properties are frame-invariant.
    """
    return synthesize_protocol(
        code.dual(),
        prep_method=prep_method,
        verification_method=verification_method,
        max_correction_measurements=max_correction_measurements,
        store=store,
    )


class PlusStateJudge(LogicalJudge):
    """Logical-failure decision for plus-state runs.

    In the Hadamard frame the destructive readout is an X-basis
    measurement of the dual code's zero state: Z-type residuals flip
    logical-X parities, X-type residuals are invisible. That is exactly
    :class:`~repro.sim.logical.LogicalJudge` of the dual code — lookup
    decoding over the dual's Hz (= the original Hx), logical operators
    the dual's logical Z — so both the per-shot and the batched engines
    judge plus-state runs through it unchanged.
    """

    def __init__(self, code: CSSCode):
        super().__init__(code.dual())


def plus_state_stabilizers(code: CSSCode) -> np.ndarray:
    """X-type stabilizer supports of ``|+...+>_L`` (Hx rows + logical X).

    Useful for validating plus-state outputs on the tableau simulator in
    the *original* (unconjugated) frame.
    """
    return independent_rows(
        np.concatenate([code.hx, code.logical_x], axis=0)
    )
