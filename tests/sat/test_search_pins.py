"""Pins of the solver's search: exact effort counts on fixed inputs.

``(conflicts, decisions, propagations)`` is the fingerprint of a CDCL
search: a change to branching order, watch-list order, learnt-clause
layout or backjump choice moves at least one of them. These pins hold
for every ``PYTHONHASHSEED``. A deliberate change to the search (a new
heuristic, proof logging that alters clause order) re-pins them in the
same commit; a speed-up of the same search leaves them untouched.
"""

import numpy as np
import pytest

from repro.codes.catalog import get_code
from repro.core.protocol import synthesize_protocol
from repro.sat.cardinality import Totalizer
from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from repro.store.keys import protocol_digest

from ..reference import reference_load
from .test_solver import pigeonhole, random_kcnf


def fingerprint(result) -> tuple:
    return (result.sat, result.conflicts, result.decisions, result.propagations)


def loader_cnf(rng, num_vars: int = 50, num_clauses: int = 185) -> CNF:
    """Random 3-CNF that makes the loader simplify: mid-stream units (one
    of which propagates a second unit), repeated literals and tautologies."""
    cnf = CNF()
    cnf.new_vars(num_vars)
    for i in range(num_clauses):
        if i == 60:
            cnf.add_clause([5])
        elif i == 61:
            cnf.add_clause([-5, 12])
        elif i == 140:
            cnf.add_clause([-9])
        else:
            chosen = rng.choice(num_vars, size=3, replace=False)
            lits = [int(v + 1) * (1 if rng.integers(0, 2) else -1) for v in chosen]
            if i % 23 == 10:
                lits.append(lits[0])  # repeated literal
            if i % 29 == 17:
                lits.append(-lits[1])  # tautology
            cnf.add_clause(lits)
    return cnf


class TestFixedCnfPins:
    def test_pigeonhole_6_5(self):
        assert fingerprint(Solver(pigeonhole(6, 5)).solve()) == PHP_6_5

    def test_random_3sat_batch_at_threshold(self):
        # 60 variables, 256 clauses: ratio 4.27, where SAT and UNSAT mix.
        rng = np.random.default_rng(2026)
        got = [fingerprint(Solver(random_kcnf(rng, 60, 256, 3)).solve())
               for _ in range(len(RANDOM_3SAT))]
        assert got == RANDOM_3SAT

    def test_loader_simplification_batch(self):
        rng = np.random.default_rng(35)
        got = [fingerprint(Solver(loader_cnf(rng)).solve())
               for _ in range(len(LOADER_CNF))]
        assert got == LOADER_CNF

    def test_totalizer_bound_tightening(self):
        # The optimality-loop pattern: one solver, a shrinking weight bound
        # under assumptions, until the bound is infeasible.
        rng = np.random.default_rng(7)
        cnf = random_kcnf(rng, 40, 140, 3)
        totalizer = Totalizer(cnf, range(1, 41))
        solver = Solver(cnf)
        got = []
        for k in range(40, -1, -1):
            result = solver.solve(assumptions=totalizer.at_most(k))
            got.append((k,) + fingerprint(result))
            if not result.sat:
                break
        assert got == TOTALIZER_SEQUENCE


def loaded_state(solver) -> tuple:
    return (solver._ok, solver._clauses, solver._watches, solver._trail,
            solver._assign, solver._qhead, solver.propagations)


class TestLoaderState:
    """Skipping ``_simplify_clause`` where it has nothing to do leaves the
    clause database, watch lists and level-0 trail exactly as simplifying
    every clause does."""

    def test_fixed_cnfs(self):
        rng = np.random.default_rng(35)
        cnfs = [loader_cnf(rng) for _ in range(len(LOADER_CNF))]
        cnfs += [pigeonhole(6, 5), random_kcnf(rng, 60, 256, 3)]
        conflicting = CNF()
        a, b = conflicting.new_vars(2)
        for clause in ([a, b], [a], [-a, b], [-b], [a, b, -b]):
            conflicting.add_clause(clause)
        for cnf in cnfs + [conflicting]:
            assert loaded_state(Solver(cnf)) == loaded_state(reference_load(cnf))
        assert not Solver(conflicting)._ok

    @pytest.mark.parametrize("name", ["steane", "11_1_3"])
    def test_synthesis_cnfs(self, name, monkeypatch):
        init = Solver.__init__
        cnfs = []

        def recorded(self, cnf):
            cnfs.append(CNF())
            cnfs[-1].new_vars(cnf.num_vars)
            cnfs[-1].clauses = [list(clause) for clause in cnf.clauses]
            init(self, cnf)

        monkeypatch.setattr(Solver, "__init__", recorded)
        synthesize_protocol(get_code(name), store=False)
        monkeypatch.undo()
        assert cnfs
        for cnf in cnfs:
            assert loaded_state(Solver(cnf)) == loaded_state(reference_load(cnf))


class TestSynthesisPins:
    @pytest.mark.parametrize(
        "name", ["steane", "shor", "surface_3", "11_1_3", "tetrahedral", "16_2_4"]
    )
    def test_summed_effort_and_digest(self, name, monkeypatch):
        effort = [0, 0, 0, 0, 0]  # calls, unsat calls, conflicts, decisions, props
        solve = Solver.solve

        def counted(self, assumptions=None):
            before = (self.conflicts, self.decisions, self.propagations)
            result = solve(self, assumptions)
            effort[0] += 1
            effort[1] += not result.sat
            effort[2] += result.conflicts - before[0]
            effort[3] += result.decisions - before[1]
            effort[4] += result.propagations - before[2]
            return result

        monkeypatch.setattr(Solver, "solve", counted)
        protocol = synthesize_protocol(get_code(name), store=False)
        assert (tuple(effort), protocol_digest(protocol)) == SYNTHESIS_PINS[name]


# Recorded from the search as it stands; see the module docstring.
PHP_6_5 = (False, 147, 186, 1684)
RANDOM_3SAT = [
    (False, 85, 105, 1281), (False, 119, 135, 1877), (True, 60, 81, 1016),
    (False, 79, 92, 1346), (False, 118, 147, 1867), (True, 7, 18, 174),
    (True, 93, 120, 1508), (True, 36, 51, 702),
]
LOADER_CNF = [
    (True, 1, 5, 63), (True, 4, 16, 95), (True, 11, 19, 160), (True, 3, 19, 77),
    (False, 27, 27, 437), (True, 1, 10, 54), (True, 13, 27, 251), (False, 11, 12, 163),
]
# (bound, sat, conflicts, decisions, propagations); the counts accumulate
# over the solver's lifetime.
TOTALIZER_SEQUENCE = [
    (40, True, 2, 121, 344), (39, True, 2, 245, 600), (38, True, 2, 369, 856),
    (37, True, 2, 493, 1112), (36, True, 2, 617, 1368), (35, True, 2, 741, 1624),
    (34, True, 2, 865, 1880), (33, True, 2, 989, 2136), (32, True, 2, 1113, 2392),
    (31, True, 2, 1236, 2648), (30, True, 2, 1358, 2904), (29, True, 2, 1479, 3160),
    (28, True, 2, 1599, 3416), (27, True, 2, 1717, 3672), (26, True, 2, 1833, 3928),
    (25, True, 2, 1945, 4184), (24, True, 2, 2053, 4440), (23, True, 2, 2154, 4696),
    (22, True, 2, 2245, 4952), (21, True, 2, 2317, 5208), (20, True, 2, 2358, 5464),
    (19, True, 2, 2393, 5720), (18, True, 2, 2430, 5976), (17, True, 2, 2468, 6232),
    (16, True, 3, 2509, 6510), (15, True, 3, 2550, 6766), (14, False, 80, 2636, 10582),
]
# code -> ((calls, unsat calls, conflicts, decisions, propagations), digest)
SYNTHESIS_PINS = {
    "steane": ((1, 0, 0, 13, 32),
               "ec1cf91e59407e21f8ac00da31447525361b182cd3b12e71110df8175ad1a85b"),
    "shor": ((2, 1, 3, 27, 96),
             "33c592f9405a04a46125a147b65642975e7d4af2968d345e9a2c3185c59c8b81"),
    "surface_3": ((3, 1, 4, 31, 121),
                  "322dcc4261284ad2bb1fe309d4e7e43b459704daba377c430b8d5e2d735eaa7c"),
    "11_1_3": ((5, 0, 13, 96, 640),
               "fd5b319e6d16294bc827e880afab04bf63ad6f049a89198366183e08b7990213"),
    "tetrahedral": ((6, 2, 375, 923, 15857),
                    "b63e8de4b42255aea5818fa1e9a8be036c8e219c0b91581df5f37efe7cef2621"),
    "16_2_4": ((11, 2, 433, 951, 38286),
               "23e57ea8047f7686b3aa795b79c47bde361255a7b234b19ecfbb855f786bbde5"),
}
