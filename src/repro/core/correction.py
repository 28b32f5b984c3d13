"""CORRECTION CIRCUIT SYNTHESIS as Boolean satisfiability (paper Sec. IV).

Problem (paper box): given errors ``E`` (one class ``E_b`` sharing a
verification syndrome), stabilizer generators to measure from, and bounds
``(u, v)`` — is there a set of ``u`` stabilizers of total weight ``<= v``
such that all errors with the same extended syndrome are reduced to weight
``<= 1`` by one shared recovery?

Encoding. Selector variables ``a[i][j]`` define the measured stabilizers
``s_i`` exactly as in verification synthesis. The recovery for each of the
``2^u`` extended syndromes ``t`` is chosen from a finite *candidate pool*:
if any Pauli corrects every error of a class, then so does some
``c = e + r`` with ``e`` a class member and ``wt(r) <= 1`` (a recovery is
only meaningful modulo the reduction group, and correcting ``e`` means
``c in e + {weight<=1} + R``). The pool is therefore
``{e + r : e in E, wt(r) <= 1}`` deduplicated by coset — small, and the
correctability predicate ``ok[e][m] = (wt_R(e + c_m) <= 1)`` is
*precomputed*, so the SAT instance contains no reduction-group reasoning.

Only the distinct, inclusion-maximal columns of ``ok`` are encoded. A class
has a common recovery iff some column of ``ok`` covers it, iff some maximal
column does, so the pruned instance is equisatisfiable with the full one
for every ``(u, v)``. The dropped candidates are interchangeable for the
solver, which would otherwise refute them one by one (tetrahedral's
hardest class keeps 13 of 164 columns). The recovery itself is still the
lightest valid candidate of the full pool, chosen after the solve.

* ``sigma_i(e)``: XOR chains over ``a[i][:]`` with folded parities;
* ``guard(e, t) <-> AND_i (sigma_i(e) == t_i)``  (Tseitin AND);
* per syndrome ``t``: ``OR_m sel[t][m]`` over the maximal columns ``m``;
* per ``(e, t, m)`` with ``not ok[e][m]``: ``guard(e,t) -> not sel[t][m]``;
* total weight ``sum_{i,q} s_i[q] <= v`` via a totalizer (assumption-probed).

Lexicographic optimality loop: smallest ``u`` (with ``u = 0`` checked
directly — a single shared recovery, no SAT needed), then smallest ``v``.
At the minimal ``u`` the measurements of an optimal solution are linearly
independent (a dependent one adds nothing to the syndrome partition, so
``u - 1`` would do), hence ``v`` is at least the *floor*: the summed
weight of the ``u`` lightest nonzero span vectors. The first weight probe
asks for the floor itself; only if that is UNSAT does the bound step down
by one from the model in hand. The optimality certificate is UNSAT at
``u - 1``, plus either UNSAT at ``v - 1`` or ``v`` = floor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..pauli.group import CosetReducer
from ..pauli.symplectic import as_bit_matrix, span_weight_floors
from ..sat.cardinality import Totalizer
from ..sat.cnf import CNF
from ..sat.encode import encode_and, encode_xor_chain
from ..sat.solver import Solver

__all__ = ["CorrectionCircuit", "synthesize_correction", "CorrectionInfeasible"]


class CorrectionInfeasible(RuntimeError):
    """No correction circuit exists within the configured bounds."""


@dataclass
class CorrectionCircuit:
    """A synthesized correction: extra measurements plus the recovery map.

    ``recoveries`` maps each extended syndrome ``t`` (tuple of ints, length
    ``len(measurements)``) to the Pauli recovery support to apply. Syndromes
    never produced by any single fault are absent — the executor applies no
    recovery for them.
    """

    measurements: list[np.ndarray]
    recoveries: dict[tuple[int, ...], np.ndarray]
    num_errors: int = 0

    @property
    def num_ancillas(self) -> int:
        return len(self.measurements)

    @property
    def cnot_count(self) -> int:
        return int(sum(int(m.sum()) for m in self.measurements))

    def recovery_for(self, syndrome: tuple[int, ...]) -> np.ndarray | None:
        return self.recoveries.get(tuple(syndrome))

    def __repr__(self) -> str:
        return (
            f"CorrectionCircuit(a={self.num_ancillas}, w={self.cnot_count}, "
            f"branches={len(self.recoveries)})"
        )


def synthesize_correction(
    errors,
    detection_basis,
    reducer: CosetReducer,
    *,
    max_measurements: int = 4,
) -> CorrectionCircuit:
    """Optimal correction circuit for one error class (see module docstring).

    ``errors`` are same-type support vectors (the class ``E_b``); include
    the zero vector for faults that only flipped measurements. Raises
    :class:`CorrectionInfeasible` if no solution exists with at most
    ``max_measurements`` extra measurements.
    """
    errors = reducer.dedupe(errors)
    n = reducer.n
    if not errors:
        return CorrectionCircuit([], {})
    candidates, ok = _candidate_pool(errors, reducer)
    # u = 0: one shared recovery, checked directly.
    direct = _common_recovery(range(len(errors)), candidates, ok)
    if direct is not None:
        return CorrectionCircuit(
            [], {(): candidates[direct].copy()}, num_errors=len(errors)
        )
    basis = as_bit_matrix(detection_basis, n)
    cover = _maximal_columns(ok)
    for u in range(1, max_measurements + 1):
        encoder = _CorrectionEncoder(basis, errors, cover, u)
        solver = Solver(encoder.cnf)
        result = solver.solve()
        if not result.sat:
            continue
        best = encoder.extract(result.model, errors, candidates, ok)
        # Probe the floor first; only if it is UNSAT step the bound down
        # by one from the model in hand. ``lowest`` is the least weight
        # not yet refuted.
        lowest = bound = int(span_weight_floors(basis)[u - 1])
        while best.cnot_count > lowest:
            probe = solver.solve(assumptions=encoder.totalizer.at_most(bound))
            if probe.sat:
                best = encoder.extract(probe.model, errors, candidates, ok)
            else:
                lowest = bound + 1
            bound = best.cnot_count - 1
        best.num_errors = len(errors)
        return best
    raise CorrectionInfeasible(
        f"no correction with <= {max_measurements} measurements for "
        f"{len(errors)} errors"
    )


# -- internals ---------------------------------------------------------------


def _candidate_pool(
    errors: list[np.ndarray], reducer: CosetReducer
) -> tuple[list[np.ndarray], np.ndarray]:
    """Recovery candidates and the ok[error][candidate] predicate."""
    n = reducer.n
    singles = np.vstack([np.zeros(n, dtype=np.uint8), np.eye(n, dtype=np.uint8)])
    error_matrix = np.array(errors, dtype=np.uint8)
    pool = reducer.dedupe((error_matrix[:, None, :] ^ singles).reshape(-1, n))
    return pool, reducer.within_one(error_matrix, pool)


def _maximal_columns(ok: np.ndarray) -> np.ndarray:
    """The distinct inclusion-maximal columns of ``ok``.

    A column is dropped if it repeats another or if its set of corrected
    errors is a proper subset of another column's.
    """
    columns = np.unique(ok.T, axis=0)
    kept: list[int] = []
    # Wider columns first: a proper superset is always seen before its subsets.
    for c in np.argsort(-columns.sum(axis=1), kind="stable"):
        if not any((columns[c] <= columns[k]).all() for k in kept):
            kept.append(c)
    return columns[np.sort(kept)].T


def _common_recovery(error_indices, candidates, ok) -> int | None:
    """Index of a candidate correcting every listed error, or None."""
    indices = list(error_indices)
    if not indices:
        return None
    mask = np.ones(len(candidates), dtype=bool)
    for ei in indices:
        mask &= ok[ei]
        if not mask.any():
            return None
    # Prefer the lightest recovery.
    weights = [int(candidates[mi].sum()) for mi in np.nonzero(mask)[0]]
    winners = np.nonzero(mask)[0]
    return int(winners[int(np.argmin(weights))])


class _CorrectionEncoder:
    """CNF for fixed ``u``; weight bound probed through the totalizer.

    ``cover[e][m]`` says whether recovery choice ``m`` corrects error ``e``;
    :func:`synthesize_correction` passes the maximal columns of ``ok``, but
    any column set with the same maximal columns gives an equisatisfiable
    instance.
    """

    def __init__(self, basis, errors, cover, u: int):
        self.basis = basis
        self.r, self.n = basis.shape
        self.u = u
        self.cnf = CNF()
        self.a = [
            [self.cnf.new_var(f"a[{i}][{j}]") for j in range(self.r)]
            for i in range(u)
        ]
        self.sel: dict[tuple[int, ...], list[int]] = {}
        support_lits: list[int] = []
        for i in range(u):
            for q in range(self.n):
                contributors = [
                    self.a[i][j] for j in range(self.r) if basis[j][q]
                ]
                support_lits.append(encode_xor_chain(self.cnf, contributors))
            self.cnf.add_clause(list(self.a[i]))  # non-trivial measurement
        self._break_symmetry()
        syndromes = list(itertools.product((0, 1), repeat=u))
        for t in syndromes:
            self.sel[t] = [self.cnf.new_var() for _ in range(cover.shape[1])]
            self.cnf.add_clause(self.sel[t])
        parities = [(self.basis @ e) % 2 for e in errors]
        for ei, parity in enumerate(parities):
            sigma = []
            for i in range(u):
                lits = [self.a[i][j] for j in range(self.r) if parity[j]]
                sigma.append(encode_xor_chain(self.cnf, lits))
            for t in syndromes:
                guard_inputs = [
                    sigma[i] if t[i] else -sigma[i] for i in range(u)
                ]
                guard = encode_and(self.cnf, guard_inputs)
                bad = np.nonzero(~cover[ei])[0]
                for mi in bad:
                    self.cnf.add_clause([-guard, -self.sel[t][int(mi)]])
        self.totalizer = Totalizer(self.cnf, support_lits)

    def _break_symmetry(self) -> None:
        for i in range(self.u - 1):
            prefix_equal: list[int] = []
            for j in range(self.r):
                hi, lo = self.a[i][j], self.a[i + 1][j]
                self.cnf.add_clause([-lit for lit in prefix_equal] + [-hi, lo])
                prefix_equal.append(
                    encode_xor_chain(self.cnf, [hi, lo], parity=1)
                )

    def extract(self, model, errors, candidates, ok) -> CorrectionCircuit:
        measurements = []
        for i in range(self.u):
            vec = np.zeros(self.n, dtype=np.uint8)
            for j in range(self.r):
                if model[self.a[i][j]]:
                    vec ^= self.basis[j]
            measurements.append(vec)
        # Recoveries: only for syndromes actually produced by some error.
        # Given the measurements, the recovery per class is recomputed as
        # the *lightest* candidate valid for every class member (the SAT
        # model guarantees one exists; its own pick may be heavier).
        groups: dict[tuple[int, ...], list[int]] = {}
        for ei, error in enumerate(errors):
            t = tuple(int(m @ error) % 2 for m in measurements)
            groups.setdefault(t, []).append(ei)
        recoveries: dict[tuple[int, ...], np.ndarray] = {}
        for t, members in groups.items():
            chosen = _common_recovery(members, candidates, ok)
            if chosen is None:
                raise AssertionError("SAT model yielded an uncorrectable class")
            recoveries[t] = candidates[chosen].copy()
        return CorrectionCircuit(measurements, recoveries)
