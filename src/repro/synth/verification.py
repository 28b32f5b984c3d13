"""Synthesis of verification measurements (non-deterministic FT layer).

Given the set of dangerous propagated errors of one type, a verification
circuit is a set of state-stabilizer measurements such that every dangerous
error anticommutes with (= flips) at least one of them. Following Ref. [22],
we synthesize these optimally with SAT — minimal number of measurements
first, minimal total CNOT weight second — and also provide a greedy
set-cover heuristic plus exhaustive enumeration of *all* optimal solutions,
which the paper's global optimization procedure consumes.

Encoding. With candidate basis ``G = [g_1..g_r]`` (detection group) and
selector variables ``a[i][j]`` (measurement ``s_i = XOR_j a[i][j] g_j``):

* support bits ``s_i[q] = XOR_{j : g_j[q]=1} a[i][j]`` (Tseitin chains);
* detection:   for every error ``e``, ``OR_i sigma_i(e)`` where
  ``sigma_i(e) = XOR_{j : <e,g_j>=1} a[i][j]`` (constants folded in);
* weight:      ``sum_{i,q} s_i[q] <= v`` via a totalizer, probed with
  assumptions so one solver run covers all weight bounds;
* non-triviality and row symmetry breaking on the ``a`` matrix.

The weight bound steps down by one from the first model and stops at
UNSAT or at the *floor*, the summed weight of the ``u`` lightest nonzero
span vectors: at the minimal ``u`` the measurements are linearly
independent (an error flipping a dependent measurement flips one it
depends on), so no lighter set exists. The certificate is UNSAT at
``u - 1``, plus either UNSAT at ``v - 1`` or ``v`` = floor. Unlike
correction, verification does not probe the floor first: the model that
probe returns is a different tied optimum, and the verification choice
shapes the error classes downstream, so it would move Table I cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pauli.symplectic import as_bit_matrix, span_matrix, span_weight_floors
from ..sat.cardinality import Totalizer
from ..sat.cnf import CNF
from ..sat.encode import encode_xor_chain
from ..sat.solver import Solver

__all__ = [
    "VerificationResult",
    "synthesize_verification_optimal",
    "synthesize_verification_greedy",
    "enumerate_optimal_verifications",
]


@dataclass
class VerificationResult:
    """A set of verification measurement supports plus search metadata."""

    measurements: list[np.ndarray]
    method: str

    @property
    def num_ancillas(self) -> int:
        return len(self.measurements)

    @property
    def total_weight(self) -> int:
        return int(sum(int(m.sum()) for m in self.measurements))

    def __repr__(self) -> str:
        return (
            f"VerificationResult(a={self.num_ancillas}, "
            f"w={self.total_weight}, method={self.method!r})"
        )


def _detection_parities(detection_basis: np.ndarray, errors) -> list[tuple[int, ...]]:
    """Per error, the parity ``<e, g_j>`` against each basis row."""
    return [
        tuple(int(x) for x in (detection_basis @ e) % 2) for e in errors
    ]


class _VerificationEncoder:
    """CNF for 'u measurements of total weight <= v detect all errors'."""

    def __init__(self, detection_basis: np.ndarray, errors, u: int):
        self.basis = as_bit_matrix(detection_basis)
        self.r, self.n = self.basis.shape
        self.u = u
        self.cnf = CNF()
        self.a = [
            [self.cnf.new_var(f"a[{i}][{j}]") for j in range(self.r)]
            for i in range(u)
        ]
        self.support_lits: list[int] = []
        self._encode_supports()
        self._encode_detection(errors)
        self._break_symmetry()
        self.totalizer = Totalizer(self.cnf, self.support_lits)

    def _encode_supports(self) -> None:
        for i in range(self.u):
            row_lits = []
            for q in range(self.n):
                contributors = [
                    self.a[i][j] for j in range(self.r) if self.basis[j][q]
                ]
                lit = encode_xor_chain(self.cnf, contributors)
                row_lits.append(lit)
            self.support_lits.extend(row_lits)
            # Non-trivial measurement: some selector bit set.
            self.cnf.add_clause(list(self.a[i]))

    def _encode_detection(self, errors) -> None:
        parities = _detection_parities(self.basis, errors)
        for parity in parities:
            contributors_template = [j for j in range(self.r) if parity[j]]
            if not contributors_template:
                raise ValueError(
                    "an error commutes with the whole detection group; "
                    "it can never be verified"
                )
            sigma_lits = []
            for i in range(self.u):
                lits = [self.a[i][j] for j in contributors_template]
                sigma_lits.append(encode_xor_chain(self.cnf, lits))
            self.cnf.add_clause(sigma_lits)

    def _break_symmetry(self) -> None:
        """Order measurement rows lexicographically (a[i] <= a[i+1])."""
        for i in range(self.u - 1):
            prefix_equal: list[int] = []
            for j in range(self.r):
                hi, lo = self.a[i][j], self.a[i + 1][j]
                # (all previous equal) -> not (hi=1 and lo=0)
                self.cnf.add_clause(
                    [-lit for lit in prefix_equal] + [-hi, lo]
                )
                eq = encode_xor_chain(self.cnf, [hi, lo], parity=1)
                prefix_equal.append(eq)

    def extract(self, model) -> list[np.ndarray]:
        out = []
        for i in range(self.u):
            vec = np.zeros(self.n, dtype=np.uint8)
            for j in range(self.r):
                if model[self.a[i][j]]:
                    vec ^= self.basis[j]
            out.append(vec)
        return out


def synthesize_verification_optimal(
    detection_basis,
    errors,
    max_measurements: int = 8,
) -> VerificationResult | None:
    """Lexicographically optimal verification (measurements, then weight).

    Returns None when ``errors`` is empty (no verification needed).
    """
    errors = list(errors)
    if not errors:
        return None
    basis = as_bit_matrix(detection_basis)
    for u in range(1, max_measurements + 1):
        encoder = _VerificationEncoder(basis, errors, u)
        solver = Solver(encoder.cnf)
        result = solver.solve()
        if not result.sat:
            continue
        measurements = encoder.extract(result.model)
        best_v = sum(int(m.sum()) for m in measurements)
        # Tighten the weight bound until UNSAT or down to the floor.
        floor = int(span_weight_floors(basis)[u - 1])
        while best_v > floor:
            probe = solver.solve(assumptions=encoder.totalizer.at_most(best_v - 1))
            if not probe.sat:
                break
            measurements = encoder.extract(probe.model)
            best_v = sum(int(m.sum()) for m in measurements)
        return VerificationResult(measurements, "optimal")
    raise RuntimeError(
        f"no verification with <= {max_measurements} measurements exists"
    )


def synthesize_verification_greedy(detection_basis, errors) -> VerificationResult | None:
    """Greedy set cover over the full detection span (Ref. [22] heuristic).

    Picks, per round, the candidate detecting the most not-yet-detected
    errors, tie-broken by weight.
    """
    errors = [np.asarray(e, dtype=np.uint8) for e in errors]
    if not errors:
        return None
    basis = as_bit_matrix(detection_basis)
    candidates = [c for c in span_matrix(basis) if c.any()]
    undetected = list(range(len(errors)))
    chosen: list[np.ndarray] = []
    while undetected:
        scored = []
        for candidate in candidates:
            hit = [
                idx
                for idx in undetected
                if int(candidate @ errors[idx]) % 2 == 1
            ]
            scored.append((len(hit), -int(candidate.sum()), candidate, hit))
        scored.sort(key=lambda item: (item[0], item[1]), reverse=True)
        count, _, winner, hits = scored[0]
        if count == 0:
            raise RuntimeError("greedy cover stalled: undetectable error")
        chosen.append(winner.copy())
        undetected = [idx for idx in undetected if idx not in hits]
    return VerificationResult(chosen, "greedy")


def enumerate_optimal_verifications(
    detection_basis,
    errors,
    limit: int = 256,
    max_measurements: int = 8,
) -> list[VerificationResult]:
    """All verification circuits at the optimal (u, v) point.

    Used by the global optimization procedure (paper Sec. IV): every optimal
    verification induces different error classes and therefore different
    correction circuits. Solutions are deduplicated up to measurement order
    (symmetry breaking in the encoding already removes most duplicates).
    """
    errors = list(errors)
    if not errors:
        return []
    first = synthesize_verification_optimal(
        detection_basis, errors, max_measurements
    )
    u = first.num_ancillas
    v = first.total_weight
    encoder = _VerificationEncoder(as_bit_matrix(detection_basis), errors, u)
    encoder.totalizer.assert_at_most(v)
    solver = Solver(encoder.cnf)
    found: list[VerificationResult] = []
    seen: set[tuple[bytes, ...]] = set()
    while len(found) < limit:
        result = solver.solve()
        if not result.sat:
            break
        measurements = encoder.extract(result.model)
        key = tuple(sorted(m.tobytes() for m in measurements))
        if key not in seen:
            seen.add(key)
            found.append(VerificationResult(measurements, "optimal"))
        # Block this exact selector assignment.
        blocking = []
        for i in range(u):
            for j in range(encoder.r):
                var = encoder.a[i][j]
                blocking.append(-var if result.model[var] else var)
        encoder.cnf.add_clause(blocking)
        solver = Solver(encoder.cnf)
    return found
