"""Dangerous-error extraction for |0...0>_L state preparation.

Implements the paper's ``E_X(C)`` / ``E_Z(C)``: the X (Z) parts of all
single-fault residuals of the preparation circuit whose stabilizer-reduced
weight is at least 2. The reduction groups are asymmetric for |0...0>_L
(docs/architecture.md, "Substitutions and modelling choices"): X errors
reduce modulo ``rowspan(Hx)``, Z errors modulo ``rowspan(Hz) + Z logicals``.
"""

from __future__ import annotations

import numpy as np

from ..codes.css import CSSCode
from ..pauli.group import CosetReducer
from ..synth.prep import PrepCircuit
from .faults import propagate_all_faults

__all__ = [
    "error_reducer",
    "detection_basis",
    "dangerous_errors",
    "is_dangerous",
]


def error_reducer(code: CSSCode, kind: str) -> CosetReducer:
    """The coset-reduction group for errors of ``kind`` on |0...0>_L."""
    if kind == "X":
        return code.x_error_reducer()
    if kind == "Z":
        return code.z_error_reducer()
    raise ValueError(f"kind must be 'X' or 'Z', got {kind!r}")


def detection_basis(code: CSSCode, kind: str) -> np.ndarray:
    """Basis of operators able to detect errors of ``kind`` on |0...0>_L.

    X errors are detected by Z-type state stabilizers (rows of Hz plus the
    logical Zs); Z errors only by the X stabilizers.
    """
    if kind == "X":
        return code.x_detection_basis()
    if kind == "Z":
        return code.z_detection_basis()
    raise ValueError(f"kind must be 'X' or 'Z', got {kind!r}")


def is_dangerous(error: np.ndarray, reducer: CosetReducer) -> bool:
    """True iff the reduced weight of ``error`` is at least 2."""
    return reducer.coset_weight(error) >= 2


def dangerous_errors(
    prep: PrepCircuit, kind: str, *, dedupe: bool = True
) -> list[np.ndarray]:
    """All dangerous errors of ``kind`` from single faults in ``prep``.

    Returns minimal coset representatives; with ``dedupe`` (default) each
    coset appears once — detection parities and correctability only depend
    on the coset. The wt_S >= 2 filter runs as one batched coset reduction
    over every propagated fault at once, and the survivors are deduplicated
    by :meth:`CosetReducer.dedupe`.
    """
    code = prep.code
    reducer = error_reducer(code, kind)
    table = propagate_all_faults(prep.circuit)
    rows = (table.x if kind == "X" else table.z)[:, : code.n]
    dangerous = rows[(reducer.coset_weights_dedup(rows) >= 2) & rows.any(axis=1)]
    if dedupe:
        return reducer.dedupe(dangerous)
    return [reducer.reduce(error) for error in dangerous]
