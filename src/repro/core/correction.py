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

Lexicographic optimality: smallest ``u``, then smallest ``v``. ``u = 0``
is checked directly (a single shared recovery). Enumeration settles the
rest wherever it is complete, and SAT only what remains:

* Incompatible sets. A class is correctable iff it contains no minimal
  *incompatible* error set ``S`` (the AND of the ``ok`` rows of ``S`` is
  zero; found level by level, at most 86 sets over at most 13 errors per
  catalog branch). A measurement set therefore works iff it *separates*
  every such ``S``: some measurement anticommutes with part of ``S`` only.
* ``u = 1``: scan the nonzero span vectors of the detection basis by
  (weight, ``span_matrix`` row), lightest first; the first that separates
  every ``S`` is the optimum, and if none does ``u = 1`` is refuted. No
  SAT call.
* ``u >= 2``, the floor. ``u - 1`` is refuted, so an optimal set is
  linearly independent (a dependent measurement adds nothing to the
  syndrome partition, so ``u - 1`` would do) and ``v`` is at least the
  *floor*: the summed weight of the ``u`` lightest nonzero span vectors.
  A set at the floor holds every vector lighter than the ``u``-th lightest
  weight ``w_u`` plus vectors of weight exactly ``w_u`` (the tier). A
  depth-first search over the tier in lexicographic index order, pruned
  only where no completion can separate the remaining sets, returns the
  first feasible set: optimal, and the tie pick.
* Otherwise SAT: UNSAT at ``u`` moves on to ``u + 1``; a model starts the
  weight descent, which probes ``floor + 1`` first and steps down by one
  from the model in hand only if that is UNSAT.

Every tie is broken by the enumeration order, so a correction found by
enumeration depends on the code alone, not on the solver's search. The
optimality certificate is a refutation of ``u - 1`` (scan or UNSAT), plus
either ``v`` = floor, or UNSAT at ``v - 1``, or (``u = 1``) no lighter
vector in the scan. On the 11 fast Table I rows 61 SAT calls remain, 15
of them UNSAT.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..pauli.group import CosetReducer
from ..pauli.symplectic import as_bit_matrix, span_matrix
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
    span = span_matrix(basis)
    rank = len(span).bit_length() - 1
    # Nonzero span vectors, lightest first, ties in span_matrix row order.
    weights = span.sum(axis=1, dtype=np.int64)
    order = np.argsort(weights, kind="stable")[1:]
    span, weights = span[order], weights[order]
    splits = _split_matrix(span, errors, _incompatible_sets(cover))
    # An optimal set is independent, so it holds at most ``rank`` vectors.
    for u in range(1, min(max_measurements, rank) + 1):
        if u == 1:
            # Every single measurement, lightest first: the first that
            # works is the optimum, and if none does u = 1 is refuted.
            picked = np.flatnonzero(splits.all(axis=1))[:1].tolist() or None
        else:
            picked = _floor_pick(splits, weights, u)
        if picked is not None:
            measurements = [span[i].copy() for i in picked]
            return CorrectionCircuit(
                measurements,
                _recoveries(measurements, errors, candidates, ok),
                num_errors=len(errors),
            )
        if u > 1:
            floor = int(weights[:u].sum())
            best = _sat_optimum(basis, errors, cover, candidates, ok, u, floor)
            if best is not None:
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


def _sat_optimum(basis, errors, cover, candidates, ok, u: int, floor: int):
    """Least-weight correction with ``u`` measurements, all weights up to
    ``floor`` being refuted; None if ``u`` measurements are UNSAT."""
    encoder = _CorrectionEncoder(basis, errors, cover, u)
    solver = Solver(encoder.cnf)
    result = solver.solve()
    if not result.sat:
        return None
    best = encoder.extract(result.model, errors, candidates, ok)
    # Probe one above the floor first; only if that is UNSAT step the
    # bound down by one from the model in hand. ``lowest`` is the least
    # weight not yet refuted.
    lowest = bound = floor + 1
    while best.cnot_count > lowest:
        probe = solver.solve(assumptions=encoder.totalizer.at_most(bound))
        if probe.sat:
            best = encoder.extract(probe.model, errors, candidates, ok)
        else:
            lowest = bound + 1
        bound = best.cnot_count - 1
    return best


def _recoveries(measurements, errors, candidates, ok) -> dict:
    """Recovery of every extended syndrome some error produces: the
    lightest candidate valid for every error of that syndrome."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for ei, error in enumerate(errors):
        t = tuple(int(m @ error) % 2 for m in measurements)
        groups.setdefault(t, []).append(ei)
    recoveries: dict[tuple[int, ...], np.ndarray] = {}
    for t, members in groups.items():
        chosen = _common_recovery(members, candidates, ok)
        if chosen is None:
            raise AssertionError("measurements leave an uncorrectable class")
        recoveries[t] = candidates[chosen].copy()
    return recoveries


def _bit_mask(row: np.ndarray) -> int:
    """The bool vector ``row`` as an integer (entry ``i`` at bit ``i``)."""
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def _incompatible_sets(cover: np.ndarray) -> list[list[int]]:
    """The minimal sets of errors that no single recovery corrects.

    ``cover[e][m]`` says whether recovery ``m`` corrects error ``e``, so a
    set shares a recovery iff the AND of its rows is nonzero; every error
    alone is corrected by its own coset representative. The sets are
    found level by level: only a compatible set is grown, by an error of
    higher index, and an incompatible growth is minimal iff dropping any
    one member leaves a compatible set of the previous level.
    """
    rows = [_bit_mask(row) for row in cover]
    minimal: list[int] = []
    level = {1 << e: row for e, row in enumerate(rows)}
    while level:
        grown: dict[int, int] = {}
        for members, shared in level.items():
            for e in range(members.bit_length(), len(rows)):
                bigger = members | (1 << e)
                if shared & rows[e]:
                    grown[bigger] = shared & rows[e]
                elif all(bigger ^ (1 << x) in level for x in _bits(members)):
                    minimal.append(bigger)
        level = grown
    return [_bits(members) for members in minimal]


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _split_matrix(vectors: np.ndarray, errors, sets) -> np.ndarray:
    """``split[i][s]``: measuring ``vectors[i]`` separates the errors of
    ``sets[s]`` (it anticommutes with some and commutes with others).

    A measurement set leaves every extended-syndrome class correctable iff
    it separates every minimal incompatible set: a class is correctable
    iff it contains none of them whole.
    """
    flips = (vectors @ np.array(errors, dtype=np.uint8).T) % 2 == 1
    split = np.zeros((len(vectors), len(sets)), dtype=bool)
    for s, members in enumerate(sets):
        inside = flips[:, members]
        split[:, s] = inside.any(axis=1) & ~inside.all(axis=1)
    return split


def _floor_pick(splits: np.ndarray, weights: np.ndarray, u: int) -> list[int] | None:
    """The lexicographically first ``u`` vectors at the span-weight floor
    that separate every incompatible set, or None.

    ``weights`` are sorted. A ``u``-set of distinct vectors at the floor
    holds every vector lighter than the ``u``-th lightest weight ``w`` and
    fills up with vectors of weight exactly ``w`` (the tier).
    """
    w = weights[u - 1]
    lighter = int(np.searchsorted(weights, w))
    end = int(np.searchsorted(weights, w, side="right"))
    unhit = ~np.logical_or.reduce(splits[:lighter], axis=0)
    tier = splits[lighter:end][:, unhit]
    chosen = _first_cover(tier, u - lighter)
    if chosen is None:
        return None
    return list(range(lighter)) + [lighter + i for i in chosen]


def _first_cover(tier: np.ndarray, need: int) -> list[int] | None:
    """Lexicographically first ``need`` rows of ``tier`` that together
    have every column set, or None.

    A depth-first search in index order with two prunes that skip only
    infeasible subtrees: the rows from the current index on must still
    cover every unhit column, and the scan stops past the last row that
    hits the lowest unhit column.
    """
    count, num_sets = tier.shape
    hits = [_bit_mask(row) for row in tier]
    suffix = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix[i] = suffix[i + 1] | hits[i]
    last = np.where(
        tier.any(axis=0), count - 1 - np.argmax(tier[::-1], axis=0), -1
    ).tolist()

    def search(start: int, need: int, unhit: int) -> list[int] | None:
        if not unhit:
            return list(range(start, start + need))
        if not need:
            return None
        lowest = (unhit & -unhit).bit_length() - 1
        for i in range(start, min(count - need, last[lowest]) + 1):
            if suffix[i] & unhit != unhit:
                return None
            rest = search(i + 1, need - 1, unhit & ~hits[i])
            if rest is not None:
                return [i, *rest]
        return None

    return search(0, need, (1 << num_sets) - 1)


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
        return CorrectionCircuit(
            measurements, _recoveries(measurements, errors, candidates, ok)
        )
