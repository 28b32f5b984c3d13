"""Correctness tests for the CDCL solver (the Z3 substitute).

The decisive test is the random cross-check: thousands of small random
CNFs whose satisfiability is decided independently by brute force.
"""

import itertools

import numpy as np
import pytest

from repro.sat import solver as solver_module
from repro.sat.cnf import CNF
from repro.sat.solver import Solver, solve_cnf


def brute_force_sat(cnf: CNF) -> bool:
    for assignment in itertools.product((False, True), repeat=cnf.num_vars):
        values = (None,) + assignment
        if all(
            any(
                values[abs(lit)] == (lit > 0)
                for lit in clause
            )
            for clause in cnf.clauses
        ):
            return True
    return False


class TruthTable:
    """Brute force by bit-packed truth table; bit v-1 of an index is var v."""

    def __init__(self, cnf: CNF):
        index = np.arange(1 << cnf.num_vars, dtype=np.uint32)
        self.bits = [None] + [np.packbits((index >> (v - 1)) & 1 == 1)
                              for v in range(1, cnf.num_vars + 1)]
        self.ok = np.full_like(self.bits[1], 0xFF)
        for clause in cnf.clauses:
            satisfied = np.zeros_like(self.ok)
            for lit in clause:
                satisfied |= self.literal(lit)
            self.ok &= satisfied

    def literal(self, lit: int) -> np.ndarray:
        return self.bits[lit] if lit > 0 else ~self.bits[-lit]

    def sat(self, assumptions=()) -> bool:
        mask = self.ok.copy()
        for lit in assumptions:
            mask &= self.literal(lit)
        return bool(mask.any())


def pigeonhole(pigeons: int, holes: int) -> CNF:
    """PHP(pigeons, holes): every pigeon in a hole, no two in one hole."""
    cnf = CNF()
    var = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        cnf.add_clause([var[p][h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1][h], -var[p2][h]])
    return cnf


def random_kcnf(rng, num_vars: int, num_clauses: int, width: int) -> CNF:
    cnf = CNF()
    cnf.new_vars(num_vars)
    for _ in range(num_clauses):
        clause_vars = rng.choice(num_vars, size=width, replace=False)
        cnf.add_clause(
            [int(v + 1) * (1 if rng.integers(0, 2) else -1) for v in clause_vars]
        )
    return cnf


def model_satisfies(cnf: CNF, model) -> bool:
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in cnf.clauses
    )


class TestBasics:
    def test_empty_formula_sat(self):
        assert Solver(CNF()).solve().sat

    def test_single_unit(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_unit(v)
        result = Solver(cnf).solve()
        assert result.sat
        assert result.value(v) is True

    def test_contradictory_units(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_unit(v)
        cnf.add_unit(-v)
        assert not Solver(cnf).solve().sat

    def test_empty_clause_unsat(self):
        cnf = CNF()
        cnf.new_var()
        cnf.add_clause([])
        assert not Solver(cnf).solve().sat

    def test_implication_chain(self):
        cnf = CNF()
        vs = cnf.new_vars(20)
        cnf.add_unit(vs[0])
        for a, b in zip(vs, vs[1:]):
            cnf.add_clause([-a, b])
        result = Solver(cnf).solve()
        assert result.sat
        assert all(result.value(v) for v in vs)

    def test_model_unavailable_on_unsat(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_unit(v)
        cnf.add_unit(-v)
        result = Solver(cnf).solve()
        with pytest.raises(ValueError):
            result.value(v)

    def test_bool_protocol(self):
        cnf = CNF()
        cnf.new_var()
        assert bool(Solver(cnf).solve())


class TestPigeonhole:
    """PHP(n+1, n) is UNSAT and exercises the conflict-analysis machinery."""

    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_pigeonhole_unsat(self, holes):
        assert not Solver(pigeonhole(holes + 1, holes)).solve().sat

    def test_exact_fit_sat(self):
        cnf = pigeonhole(4, 4)
        result = Solver(cnf).solve()
        assert result.sat
        assert model_satisfies(cnf, result.model)


class TestRandomCrossCheck:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_3sat_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            num_vars = int(rng.integers(3, 10))
            num_clauses = int(rng.integers(1, int(5 * num_vars)))
            cnf = CNF()
            cnf.new_vars(num_vars)
            for _ in range(num_clauses):
                width = int(rng.integers(1, 4))
                clause_vars = rng.choice(num_vars, size=width, replace=False)
                clause = [
                    int(v + 1) * (1 if rng.integers(0, 2) else -1)
                    for v in clause_vars
                ]
                cnf.add_clause(clause)
            expected = brute_force_sat(cnf)
            result = Solver(cnf).solve()
            assert result.sat == expected
            if result.sat:
                assert model_satisfies(cnf, result.model)

    def test_random_xor_systems(self):
        # XOR chains stress propagation-heavy instances.
        from repro.sat.encode import add_xor_constraint

        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            mat = rng.integers(0, 2, size=(n - 1, n), dtype=np.uint8)
            rhs = rng.integers(0, 2, size=n - 1, dtype=np.uint8)
            cnf = CNF()
            vs = cnf.new_vars(n)
            for row, b in zip(mat, rhs):
                lits = [vs[j] for j in range(n) if row[j]]
                add_xor_constraint(cnf, lits, int(b))
            result = Solver(cnf).solve()
            # Solvable iff rhs is in the column space — cross-check by brute force.
            assert result.sat == brute_force_sat(cnf)


class TestAssumptions:
    def build(self):
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        cnf.add_clause([a, b])
        cnf.add_clause([-a, c])
        return cnf, (a, b, c)

    def test_assumption_forces_value(self):
        cnf, (a, b, c) = self.build()
        solver = Solver(cnf)
        result = solver.solve(assumptions=[a])
        assert result.sat
        assert result.value(a) and result.value(c)

    def test_conflicting_assumptions_unsat(self):
        cnf, (a, b, c) = self.build()
        solver = Solver(cnf)
        assert not solver.solve(assumptions=[a, -c]).sat

    def test_solver_reusable_after_assumption_unsat(self):
        cnf, (a, b, c) = self.build()
        solver = Solver(cnf)
        assert not solver.solve(assumptions=[a, -c]).sat
        assert solver.solve().sat
        assert solver.solve(assumptions=[-a]).sat

    def test_incremental_bound_tightening(self):
        # The optimality-loop usage pattern: one solver, shrinking bounds.
        from repro.sat.cardinality import Totalizer

        cnf = CNF()
        vs = cnf.new_vars(6)
        cnf.add_clause(vs)  # at least one true
        cnf.add_clause([vs[0], vs[1]])
        totalizer = Totalizer(cnf, vs)
        solver = Solver(cnf)
        for k in range(5, -1, -1):
            result = solver.solve(assumptions=totalizer.at_most(k))
            if k >= 1:
                assert result.sat
                assert sum(result.model[v] for v in vs) <= k
            else:
                assert not result.sat

    def test_statistics_accumulate(self):
        cnf, _ = self.build()
        solver = Solver(cnf)
        solver.solve()
        assert solver.propagations >= 0
        result = solver.solve()
        assert result.sat


class TestVsidsOrder:
    """Decisions follow the current activities, before and after a rescale."""

    @pytest.mark.parametrize("seed", range(4))
    def test_decisions_after_activity_rescale(self, seed):
        # One incremental solver over many assumption queries keeps its
        # activities; starting the increment at 1e99 forces a rescale
        # within the first few conflicts.
        rng = np.random.default_rng(seed)
        cnf = random_kcnf(rng, 16, 68, 3)
        table = TruthTable(cnf)
        solver = Solver(cnf)
        solver._var_inc = 1e99
        pick = solver._pick_branch_var
        after_rescale = []

        def checked_pick():
            free = [v for v in range(1, solver.num_vars + 1)
                    if solver._assign[2 * v] < 0]
            activity = solver._activity
            expected = max(free, key=lambda v: (activity[v], -v), default=0)
            var = pick()
            assert var == expected
            if solver._var_inc < 1e50:
                after_rescale.append(var)
            return var

        solver._pick_branch_var = checked_pick
        for _ in range(60):
            size = int(rng.integers(0, 4))
            assumptions = [int(v + 1) * (1 if rng.integers(0, 2) else -1)
                           for v in rng.choice(16, size=size, replace=False)]
            result = solver.solve(assumptions)
            assert result.sat == table.sat(assumptions)
            if result.sat:
                assert model_satisfies(cnf, result.model)
                assert all(result.model[abs(l)] == (l > 0) for l in assumptions)
        assert solver._var_inc < 1e50, "no rescale happened"
        assert after_rescale, "no decision after the rescale"


class TestReduceDb:
    """Learnt-database reduction, forced on small instances."""

    def test_reduction_keeps_verdicts_locks_and_watches(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_MAX_LEARNTS", 0)
        rng = np.random.default_rng(0)
        reductions = 0
        locked_at_risk = 0
        for _ in range(8):
            # Random 5-SAT near its threshold: hundreds of conflicts on
            # 20 variables, so the database passes 100 learnts.
            cnf = random_kcnf(rng, 20, 420, 5)
            solver = Solver(cnf)
            reduce_db = solver._reduce_db

            def checked_reduce():
                nonlocal reductions, locked_at_risk
                before = list(solver._learnts)
                if len(before) >= 100:  # below that the policy keeps all
                    reductions += 1
                    locked = {id(r) for r in solver._reason if r is not None}
                    # The half the policy would drop if reasons were not locked.
                    by_activity = sorted(
                        (c for c in before if len(c) > 2),
                        key=lambda c: solver._cla_activity.get(id(c), 0.0),
                    )
                    locked_at_risk += sum(
                        id(c) in locked for c in by_activity[: len(by_activity) // 2]
                    )
                else:
                    locked = set()
                reduce_db()
                kept = {id(c) for c in solver._learnts}
                assert all(id(c) in kept for c in before if id(c) in locked)
                live = kept | {id(c) for c in solver._clauses}
                for watch_list in solver._watches:
                    assert all(id(c) in live for c in watch_list)
                for clause in solver._learnts:
                    assert any(c is clause for c in solver._watches[clause[0] ^ 1])
                    assert any(c is clause for c in solver._watches[clause[1] ^ 1])

            solver._reduce_db = checked_reduce
            result = solver.solve()
            assert result.sat == TruthTable(cnf).sat()
            if result.sat:
                assert model_satisfies(cnf, result.model)
        assert reductions > 0
        assert locked_at_risk > 0


class TestSolveCnfHelper:
    def test_one_shot(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_unit(v)
        assert solve_cnf(cnf).sat
