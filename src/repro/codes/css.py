"""CSS stabilizer codes from a pair of GF(2) parity-check matrices.

A CSS code is specified by ``Hx`` (each row the support of an X-type
stabilizer generator) and ``Hz`` (Z-type). Commutation requires
``Hx @ Hz.T = 0 (mod 2)``. The class computes logical operators, code
distances (via coset enumeration — adequate for the n <= ~20 near-term codes
this library targets), and the error-algebra groups used for |0...0>_L
state-preparation analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..pauli.group import CosetReducer
from ..pauli.symplectic import (
    as_bit_matrix,
    augment_to_basis,
    independent_rows,
    kernel,
    rank,
    row_space_contains,
    span_iter,
)

__all__ = ["CSSCode"]


@dataclass
class CSSCode:
    """An ``[[n, k, d]]`` CSS code defined by X/Z parity-check matrices.

    Attributes
    ----------
    name:
        Human-readable identifier (used in tables and benchmarks).
    hx, hz:
        Stabilizer generator matrices; rows may be redundant — they are
        reduced to independent generators on construction.
    """

    name: str
    hx: np.ndarray
    hz: np.ndarray
    _logical_x: np.ndarray | None = field(default=None, repr=False)
    _logical_z: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.hx = independent_rows(as_bit_matrix(self.hx))
        self.hz = independent_rows(as_bit_matrix(self.hz, self.hx.shape[1]))
        if (self.hx @ self.hz.T % 2).any():
            raise ValueError(f"{self.name}: Hx and Hz do not commute")

    # -- basic parameters ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of physical qubits."""
        return self.hx.shape[1]

    @property
    def k(self) -> int:
        """Number of logical qubits."""
        return self.n - self.hx.shape[0] - self.hz.shape[0]

    @property
    def num_x_stabilizers(self) -> int:
        return self.hx.shape[0]

    @property
    def num_z_stabilizers(self) -> int:
        return self.hz.shape[0]

    # -- logical operators -----------------------------------------------------

    @property
    def logical_z(self) -> np.ndarray:
        """Matrix of k independent logical-Z supports (Z-type operators).

        Logical Z operators commute with all X stabilizers (lie in
        ``ker(Hx)``) and are independent of the Z stabilizers.
        """
        if self._logical_z is None:
            self._logical_z, self._logical_x = self._compute_logicals()
        return self._logical_z

    @property
    def logical_x(self) -> np.ndarray:
        """Matrix of k logical-X supports paired symplectically with logical_z.

        Row i of ``logical_x`` anticommutes with row i of ``logical_z`` and
        commutes with every other logical-Z row.
        """
        if self._logical_x is None:
            self._logical_z, self._logical_x = self._compute_logicals()
        return self._logical_x

    def _compute_logicals(self) -> tuple[np.ndarray, np.ndarray]:
        z_candidates = augment_to_basis(self.hz, kernel(self.hx))
        x_candidates = augment_to_basis(self.hx, kernel(self.hz))
        if z_candidates.shape[0] != self.k or x_candidates.shape[0] != self.k:
            raise RuntimeError(f"{self.name}: logical extraction failed")
        # Pair them symplectically: make logical_x[i] anticommute exactly
        # with logical_z[i] by Gaussian elimination on the pairing matrix.
        pairing = x_candidates @ z_candidates.T % 2  # k x k, full rank
        coeffs = _invert_gf2(pairing)
        logical_x = coeffs @ x_candidates % 2
        return z_candidates.astype(np.uint8), logical_x.astype(np.uint8)

    # -- distances ---------------------------------------------------------

    def z_distance(self) -> int:
        """Minimum weight of a Z logical: min wt over ker(Hx) \\ rowspan(Hz)."""
        return self._distance(self.hx, self.hz)

    def x_distance(self) -> int:
        """Minimum weight of an X logical: min wt over ker(Hz) \\ rowspan(Hx)."""
        return self._distance(self.hz, self.hx)

    def distance(self) -> int:
        return min(self.x_distance(), self.z_distance())

    def _distance(self, h_other: np.ndarray, h_same: np.ndarray) -> int:
        same_reducer = CosetReducer(h_same, self.n)
        best = self.n + 1
        for vec in span_iter(kernel(h_other)):
            if not vec.any():
                continue
            if same_reducer.contains(vec):
                continue
            best = min(best, int(vec.sum()))
        if best > self.n:
            raise RuntimeError(f"{self.name}: no logical operator found")
        return best

    # -- error algebra for |0...0>_L -----------------------------------------

    def x_error_reducer(self) -> CosetReducer:
        """Group that X errors on |0>_L are reduced by: rowspan(Hx)."""
        return CosetReducer(self.hx, self.n)

    def z_error_reducer(self) -> CosetReducer:
        """Group that Z errors on |0>_L are reduced by: rowspan(Hz) + Z_L.

        Logical Z acts trivially on |0...0>_L, so it joins the reduction
        group — a Z error equal to a logical Z is harmless on this state.
        """
        basis = np.concatenate([self.hz, self.logical_z], axis=0)
        return CosetReducer(basis, self.n)

    def x_detection_basis(self) -> np.ndarray:
        """Z-type operators available to *detect* X errors on |0>_L.

        These are the Z-type stabilizers of the state: rows of Hz plus the
        logical Z operators (all deterministic +1 on |0...0>_L).
        """
        return independent_rows(
            np.concatenate([self.hz, self.logical_z], axis=0)
        )

    def z_detection_basis(self) -> np.ndarray:
        """X-type operators available to detect Z errors on |0>_L: Hx only.

        Logical X does not stabilize |0...0>_L, so it cannot be measured
        without disturbing the state.
        """
        return self.hx.copy()

    # -- duality -------------------------------------------------------------

    def dual(self) -> "CSSCode":
        """The X/Z-swapped code (``Hx <-> Hz``).

        Transversal Hadamard maps this code's ``|+...+>_L`` onto the dual
        code's ``|0...0>_L``, so plus-state synthesis reduces to zero-state
        synthesis on the dual (see ``repro.synth.plus``). Self-dual codes
        (Steane, Hamming, Tesseract) are their own dual up to generator
        choice.
        """
        return CSSCode(f"{self.name}~dual", self.hz.copy(), self.hx.copy())

    def is_self_dual(self) -> bool:
        """True iff Hx and Hz span the same space."""
        return all(
            row_space_contains(self.hz, row) for row in self.hx
        ) and all(row_space_contains(self.hx, row) for row in self.hz)

    # -- misc ----------------------------------------------------------------

    def validate(self) -> None:
        """Run internal consistency checks; raises on failure."""
        if (self.hx @ self.hz.T % 2).any():
            raise AssertionError("Hx Hz^T != 0")
        if self.k < 0:
            raise AssertionError("negative k: dependent stabilizers leaked")
        lz, lx = self.logical_z, self.logical_x
        if (self.hx @ lz.T % 2).any():
            raise AssertionError("logical Z anticommutes with an X stabilizer")
        if (self.hz @ lx.T % 2).any():
            raise AssertionError("logical X anticommutes with a Z stabilizer")
        pairing = lx @ lz.T % 2
        if (pairing != np.eye(self.k, dtype=np.uint8)).any():
            raise AssertionError("logicals are not symplectically paired")
        for row in lz:
            if CosetReducer(self.hz, self.n).contains(row):
                raise AssertionError("logical Z lies in the stabilizer")
        for row in lx:
            if CosetReducer(self.hx, self.n).contains(row):
                raise AssertionError("logical X lies in the stabilizer")

    def parameters(self) -> tuple[int, int, int]:
        return self.n, self.k, self.distance()

    def __repr__(self) -> str:
        return f"CSSCode({self.name!r}, n={self.n}, k={self.k})"


def _invert_gf2(mat: np.ndarray) -> np.ndarray:
    """Inverse of a square GF(2) matrix via Gauss-Jordan."""
    mat = as_bit_matrix(mat)
    size = mat.shape[0]
    if mat.shape[1] != size:
        raise ValueError("matrix is not square")
    work = np.concatenate([mat.copy(), np.eye(size, dtype=np.uint8)], axis=1)
    for col in range(size):
        pivot_rows = np.nonzero(work[col:, col])[0]
        if pivot_rows.size == 0:
            raise ValueError("matrix is singular over GF(2)")
        pr = col + int(pivot_rows[0])
        if pr != col:
            work[[col, pr]] = work[[pr, col]]
        for row in range(size):
            if row != col and work[row, col]:
                work[row] ^= work[col]
    return work[:, size:].copy()
