"""Synthesis of non-fault-tolerant |0...0>_L preparation circuits.

For a CSS code the all-zeros logical state is the uniform superposition over
the classical code ``C_X = rowspan(Hx)``: pick an information set ``P``
(pivot columns), put Hadamards on ``P``, and append a CNOT network realizing
the linear map that sends the pivot basis rows to the generator matrix.

The CNOT network is synthesized by *column reduction*: right-multiplying the
generator ``G`` by an elementary matrix (adding column ``c`` to column ``t``)
corresponds to the gate ``CX(c, t)``; reducing ``G`` to the pivot-unit
pattern and reversing the operation list yields the circuit. Because any
column (not only pivots) may serve as the source, partial parities are
shared — strictly more general than naive pivot fan-out and the same circuit
family Ref. [22]'s heuristic explores. Each greedy step scores every
(source, target) pair in one array op over bit-packed columns.

Two tiers mirror Ref. [22]'s Heu/Opt split:

* :func:`prepare_zero_heuristic` — natural RREF pivots + steepest-descent
  column reduction.
* :func:`prepare_zero_optimal` — exhaustive minimization over all
  information sets, each reduced greedily; exact over the pivot choice
  (Ref. [22]'s SAT-optimal search may still shave the odd gate; see
  docs/architecture.md, "Substitutions and modelling choices").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..circuits.circuit import Circuit
from ..codes.css import CSSCode
from ..pauli.symplectic import as_bit_matrix, popcount, rank, rref

__all__ = [
    "PrepCircuit",
    "prepare_zero_heuristic",
    "prepare_zero_optimal",
    "prepare_zero",
    "verify_prep_circuit",
]


@dataclass
class PrepCircuit:
    """A |0...0>_L preparation circuit and the data that produced it."""

    code: CSSCode
    circuit: Circuit
    generator: np.ndarray  # RREF generator matrix realized by the circuit
    pivots: list[int]
    method: str

    @property
    def cnot_count(self) -> int:
        return self.circuit.cnot_count

    def __repr__(self) -> str:
        return (
            f"PrepCircuit({self.code.name}, method={self.method!r}, "
            f"cx={self.cnot_count})"
        )


def prepare_zero_heuristic(code: CSSCode) -> PrepCircuit:
    """Heuristic synthesis: leftmost pivots, greedy column reduction."""
    generator, pivots = rref(code.hx)
    ops = _reduce_columns(generator, pivots)
    return _build(code, generator, pivots, ops, "heuristic")


def prepare_zero_optimal(code: CSSCode, max_info_sets: int = 200_000) -> PrepCircuit:
    """Best circuit over every information set (pivot column choice)."""
    hx = as_bit_matrix(code.hx)
    r = rank(hx)
    n = code.n
    if math.comb(n, r) > max_info_sets:
        raise ValueError("too many information sets; use the heuristic")
    best: tuple[int, np.ndarray, list[int], list[tuple[int, int]]] | None = None
    for columns in itertools.combinations(range(n), r):
        generator = _rref_with_pivots(hx, list(columns))
        if generator is None:
            continue
        ops = _reduce_columns(generator, list(columns))
        if best is None or len(ops) < best[0]:
            best = (len(ops), generator, list(columns), ops)
    if best is None:
        raise RuntimeError("no information set found (is Hx full rank?)")
    _, generator, pivots, ops = best
    return _build(code, generator, pivots, ops, "optimal")


def prepare_zero(code: CSSCode, method: str = "heuristic") -> PrepCircuit:
    """Dispatch on ``method`` in {"heuristic", "optimal"}."""
    if method == "heuristic":
        return prepare_zero_heuristic(code)
    if method == "optimal":
        return prepare_zero_optimal(code)
    raise ValueError(f"unknown prep method {method!r}")


# -- internals ---------------------------------------------------------------


def _rref_with_pivots(mat: np.ndarray, columns: list[int]) -> np.ndarray | None:
    """RREF forcing ``columns`` as the pivot set; None if not an info set."""
    n = mat.shape[1]
    rest = [c for c in range(n) if c not in columns]
    order = columns + rest
    permuted = mat[:, order]
    reduced, pivots = rref(permuted)
    if pivots != list(range(len(columns))):
        return None
    unpermuted = np.zeros_like(reduced)
    unpermuted[:, order] = reduced
    return unpermuted


def _reduce_columns(
    generator: np.ndarray, pivots: list[int]
) -> list[tuple[int, int]]:
    """Column-reduce ``generator`` to the pivot-unit pattern.

    Returns the list of (source, target) column additions performed, in
    reduction order. Strategy: steepest descent — at each step apply the
    addition removing the most ones. Column ``pivots[i]`` must be the unit
    vector of row ``i`` (``ValueError`` otherwise), so adding it to a
    non-pivot column with row ``i`` set removes exactly that 1: every step
    gains at least 1 and the result never exceeds the fan-out cost; equal
    non-pivot columns collapse in a single operation, which is where the
    savings come from.

    Columns are packed into integers (row ``i`` at bit ``i``; Python ints
    from 63 rows on). A step scores the gain ``wt(t) - wt(t ^ c)`` of every
    pair at once; ties go to the first in target-major, source-minor order,
    as in a strict ``>`` scan.
    """
    r, n = generator.shape
    place = np.array([1 << i for i in range(r)], dtype=np.int64 if r < 63 else object)
    cols = place @ generator.astype(place.dtype)
    if len(pivots) != r or (cols[pivots] != place).any():
        raise ValueError("pivot columns must be the unit vectors of their rows")
    targets = np.ones(n, dtype=bool)
    targets[pivots] = False
    ops: list[tuple[int, int]] = []
    while True:
        live = np.flatnonzero(targets & (cols != 0))
        if not len(live):
            return ops
        weights = popcount(cols[live]).astype(np.int64)
        gain = weights[:, None] - popcount(cols[live, None] ^ cols)
        gain[:, cols == 0] = 0  # a zero source changes nothing
        gain[np.arange(len(live)), live] = 0  # nor does c == t
        best = int(gain.argmax())
        t, c = int(live[best // n]), best % n
        cols[t] ^= cols[c]
        ops.append((c, t))


def _build(
    code: CSSCode,
    generator: np.ndarray,
    pivots: list[int],
    ops: list[tuple[int, int]],
    method: str,
) -> PrepCircuit:
    circuit = Circuit(code.n)
    for pivot in pivots:
        circuit.h(pivot)
    # Reduction ops reversed give the preparation CNOTs (each op is its own
    # inverse, and right-multiplication order flips under inversion).
    for c, t in reversed(ops):
        circuit.cx(c, t)
    prep = PrepCircuit(code, circuit, generator.copy(), list(pivots), method)
    verify_prep_circuit(prep)
    return prep


def verify_prep_circuit(prep: PrepCircuit) -> None:
    """Check the circuit maps pivot basis rows onto the generator matrix.

    Simulates the CNOT network as a linear map on F2^n and asserts the image
    of each pivot unit vector is the corresponding generator row — i.e. the
    prepared state really is the superposition over ``C_X``.
    """
    n = prep.code.n
    matrix = np.eye(n, dtype=np.uint8)
    for ins in prep.circuit:
        if ins.kind == "CX":
            matrix[:, ins.target] ^= matrix[:, ins.control]
    for row, pivot in zip(prep.generator, prep.pivots):
        image = matrix[pivot]
        if not (image == row).all():
            raise AssertionError(
                f"prep circuit for {prep.code.name} realizes a wrong state"
            )

