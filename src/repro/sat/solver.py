"""A CDCL SAT solver in pure Python.

This stands in for Z3 in the paper's pipeline (docs/architecture.md, "SAT
substrate"): the synthesis encodings are plain Boolean CNF, and the bound
iteration happens outside the solver, so a complete SAT solver is all that
is required.

Feature set (classic MiniSat-style architecture):

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause minimization by reason subsumption,
* VSIDS variable activities with periodic rescaling + phase saving,
* Luby restarts,
* learnt-clause database reduction by activity,
* incremental solving under assumptions.

The implementation favours flat lists and local-variable caching; it solves
the paper's correction-synthesis instances (tens of thousands of clauses) in
seconds, which matches how the authors use Z3 (many small decision queries).
"""

from __future__ import annotations

from .cnf import CNF, clause_to_internal

__all__ = ["Solver", "SolveResult"]

_LUBY_BASE = 128
# Learnt clauses kept before the first database reduction; the limit
# grows by 16 per restart.
_MAX_LEARNTS = 4000


def _luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while True:
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1 + 1
        k -= 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1


class SolveResult:
    """Outcome of a solve call: satisfiability plus (optionally) a model."""

    __slots__ = ("sat", "model", "conflicts", "decisions", "propagations")

    def __init__(self, sat, model, conflicts, decisions, propagations):
        self.sat = sat
        self.model = model
        self.conflicts = conflicts
        self.decisions = decisions
        self.propagations = propagations

    def __bool__(self) -> bool:
        return self.sat

    def value(self, var: int) -> bool:
        """Truth value of ``var`` in the found model."""
        if self.model is None:
            raise ValueError("no model available (UNSAT or not solved)")
        return self.model[var]

    def __repr__(self) -> str:
        status = "SAT" if self.sat else "UNSAT"
        return (
            f"SolveResult({status}, conflicts={self.conflicts}, "
            f"decisions={self.decisions}, propagations={self.propagations})"
        )


class Solver:
    """CDCL solver over a :class:`~repro.sat.cnf.CNF` formula.

    Data layout (MiniSat's, Een & Sorensson 2003): assignments are stored
    per internal literal, ``_assign[lit]`` in {-1 unassigned, 0 false,
    1 true}, so a watched literal's value is a single list lookup. The
    VSIDS order is an indexed binary max-heap of variables (``_heap`` plus
    ``_heap_pos[var]``, -1 when absent) ordered by activity, ties to the
    lower variable index. Every unassigned variable is in the heap.
    """

    def __init__(self, cnf: CNF):
        self.num_vars = cnf.num_vars
        nv = self.num_vars + 1
        self._assign = [-1] * (2 * nv)
        self._level = [0] * nv
        self._reason: list[list[int] | None] = [None] * nv
        self._trail: list[int] = []  # internal literals
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._watches: list[list[list[int]]] = [[] for _ in range(2 * nv)]
        self._clauses: list[list[int]] = []
        self._learnts: list[list[int]] = []
        self._activity = [0.0] * nv
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_activity: dict[int, float] = {}
        # All activities start at 0, so ascending index order is a heap.
        self._heap = list(range(1, nv))
        self._heap_pos = [-1] + list(range(nv - 1))
        self._phase = [0] * nv
        self._seen = [0] * nv
        self._ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        for clause in cnf.clauses:
            if not self._add_clause(clause_to_internal(clause)):
                self._ok = False
                break

    # -- clause management --------------------------------------------------

    def _add_clause(self, lits: list[int]) -> bool:
        """Add an original clause (internal literals). False if UNSAT now."""
        # With no level-0 assignment, a clause over >= 2 distinct
        # variables has nothing to simplify.
        if self._trail or len(lits) < 2 or len({l >> 1 for l in lits}) < len(lits):
            lits = self._simplify_clause(lits)
            if lits is None:  # tautology or satisfied at level 0
                return True
            if not lits:
                return False
            if len(lits) == 1:
                return self._enqueue(lits[0], None) and self._propagate() is None
        self._attach(lits)
        self._clauses.append(lits)
        return True

    def _simplify_clause(self, lits: list[int]) -> list[int] | None:
        out = []
        seen = set()
        for lit in lits:
            if lit ^ 1 in seen:
                return None  # tautology
            if lit in seen:
                continue
            val = self._assign[lit]
            if val == 1 and self._level[lit >> 1] == 0:
                return None  # already satisfied forever
            if val == 0 and self._level[lit >> 1] == 0:
                continue  # literal is dead
            seen.add(lit)
            out.append(lit)
        return out

    def _attach(self, lits: list[int]) -> None:
        self._watches[lits[0] ^ 1].append(lits)
        self._watches[lits[1] ^ 1].append(lits)

    # -- assignment ---------------------------------------------------------

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        assign = self._assign
        val = assign[lit]
        if val >= 0:
            return val == 1
        assign[lit] = 1
        assign[lit ^ 1] = 0
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        watches = self._watches
        assign = self._assign
        levels = self._level
        reasons = self._reason
        trail = self._trail
        level = len(self._trail_lim)
        start = qhead = self._qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = lit ^ 1
            watch_list = watches[lit]
            j = 0
            moved = 0
            for clause in watch_list:
                # Normalize so clause[1] is the false literal being visited.
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                fval = assign[first]
                if fval == 1:
                    watch_list[j] = clause
                    j += 1
                    continue
                # Find a new literal to watch in clause[2:], if any.
                k, size = 2, len(clause)
                while k < size and assign[clause[k]] == 0:
                    k += 1
                if k < size:
                    other = clause[k]
                    clause[1] = other
                    clause[k] = false_lit
                    watches[other ^ 1].append(clause)
                    moved += 1
                    continue
                # Clause is unit or conflicting.
                watch_list[j] = clause
                j += 1
                if fval == 0:  # first is false too -> conflict
                    # j + moved clauses were visited; keep the rest.
                    del watch_list[j:j + moved]
                    self._qhead = qhead
                    self.propagations += qhead - start
                    return clause
                assign[first] = 1
                assign[first ^ 1] = 0
                var = first >> 1
                levels[var] = level
                reasons[var] = clause
                trail.append(first)
            del watch_list[j:]
        self._qhead = qhead
        self.propagations += qhead - start
        return None

    # -- conflict analysis ---------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning. Returns (learnt clause, backjump level)."""
        seen = self._seen
        levels = self._level
        reasons = self._reason
        trail = self._trail
        activity = self._activity
        heap_pos = self._heap_pos
        sift_up = self._sift_up
        var_inc = self._var_inc
        learnt = [0]  # placeholder for the asserting literal
        counter = 0
        lit = -1
        reason: list[int] | None = conflict
        index = len(trail)
        current_level = len(self._trail_lim)
        while True:
            if reason is None:
                raise AssertionError("decision reached before UIP")
            for k in range(0 if lit == -1 else 1, len(reason)):
                q = reason[k]
                var = q >> 1
                if not seen[var]:
                    var_level = levels[var]
                    if var_level > 0:
                        seen[var] = 1
                        # VSIDS bump: raise the activity, restore heap order.
                        activity[var] += var_inc
                        if activity[var] > 1e100:
                            self._rescale_activity()
                            var_inc = self._var_inc
                        elif heap_pos[var] >= 0:
                            sift_up(heap_pos[var])
                        if var_level >= current_level:
                            counter += 1
                        else:
                            learnt.append(q)
            while True:
                index -= 1
                lit = trail[index]
                if seen[lit >> 1]:
                    break
            var = lit >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            reason = reasons[var]
        learnt[0] = lit ^ 1
        # Clause minimization: drop literals implied by the rest.
        minimized = [learnt[0]]
        for q in learnt[1:]:
            red = reasons[q >> 1]
            if red is None:
                minimized.append(q)
                continue
            for k in range(1, len(red)):
                var = red[k] >> 1
                if not seen[var] and levels[var] > 0:
                    minimized.append(q)
                    break
        for q in learnt[1:]:
            seen[q >> 1] = 0
        learnt = minimized
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the highest level among learnt[1:] (the clause's
        # second-highest), and watch its first literal at that level.
        max_i = 1
        backjump = levels[learnt[1] >> 1]
        for i in range(2, len(learnt)):
            var_level = levels[learnt[i] >> 1]
            if var_level > backjump:
                backjump = var_level
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, backjump

    # -- VSIDS order ----------------------------------------------------------

    def _sift_up(self, i: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        activity = self._activity
        var = heap[i]
        act = activity[var]
        while i:
            parent = (i - 1) >> 1
            above = heap[parent]
            above_act = activity[above]
            if above_act > act or (above_act == act and above < var):
                break
            heap[i] = above
            pos[above] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _sift_down(self, i: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        activity = self._activity
        n = len(heap)
        var = heap[i]
        act = activity[var]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            below = heap[child]
            below_act = activity[below]
            if child + 1 < n:
                right = heap[child + 1]
                right_act = activity[right]
                if right_act > below_act or (right_act == below_act and right < below):
                    child += 1
                    below = right
                    below_act = right_act
            if act > below_act or (act == below_act and var < below):
                break
            heap[i] = below
            pos[below] = i
            i = child
        heap[i] = var
        pos[var] = i

    def _rescale_activity(self) -> None:
        activity = self._activity
        for v in range(1, self.num_vars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100
        # Scaling keeps the order but can turn unequal activities equal;
        # re-sort so the lower-index tie-break still holds.
        heap = self._heap
        heap.sort(key=lambda v: (-activity[v], v))
        pos = self._heap_pos
        for i, v in enumerate(heap):
            pos[v] = i

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        limit = trail_lim[level]
        trail = self._trail
        assign = self._assign
        phase = self._phase
        reasons = self._reason
        heap = self._heap
        pos = self._heap_pos
        sift_up = self._sift_up
        for lit in reversed(trail[limit:]):
            var = lit >> 1
            phase[var] = (lit & 1) ^ 1
            assign[lit] = -1
            assign[lit ^ 1] = -1
            reasons[var] = None
            if pos[var] < 0:
                heap.append(var)
                sift_up(len(heap) - 1)
        del trail[limit:]
        del trail_lim[level:]
        self._qhead = len(trail)

    def _pick_branch_var(self) -> int:
        """Pop the most active variable; skip and drop assigned ones."""
        heap = self._heap
        pos = self._heap_pos
        assign = self._assign
        while heap:
            var = heap[0]
            pos[var] = -1
            last = heap.pop()
            if heap:
                heap[0] = last
                self._sift_down(0)
            if assign[2 * var] < 0:
                return var
        return 0

    def _reduce_db(self) -> None:
        """Drop the less active half of long learnt clauses."""
        if len(self._learnts) < 100:
            return
        locked = set()
        for var in range(1, self.num_vars + 1):
            reason = self._reason[var]
            if reason is not None:
                locked.add(id(reason))
        scored = sorted(
            (c for c in self._learnts if len(c) > 2 and id(c) not in locked),
            key=lambda c: self._cla_activity.get(id(c), 0.0),
        )
        drop = set(id(c) for c in scored[: len(scored) // 2])
        if not drop:
            return
        self._learnts = [c for c in self._learnts if id(c) not in drop]
        for wl in self._watches:
            wl[:] = [c for c in wl if id(c) not in drop]

    # -- main loop -----------------------------------------------------------

    def solve(self, assumptions: list[int] | None = None) -> SolveResult:
        """Solve the formula, optionally under signed-literal assumptions."""
        if not self._ok:
            return SolveResult(False, None, self.conflicts, self.decisions,
                               self.propagations)
        assumption_lits = clause_to_internal(assumptions or [])
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return SolveResult(False, None, self.conflicts, self.decisions,
                               self.propagations)
        restart_count = 0
        conflict_budget = _LUBY_BASE * _luby(1)
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not self._trail_lim:
                    return SolveResult(False, None, self.conflicts,
                                       self.decisions, self.propagations)
                if len(self._trail_lim) <= len(assumption_lits):
                    # Conflict forced purely by assumptions.
                    self._backtrack(0)
                    return SolveResult(False, None, self.conflicts,
                                       self.decisions, self.propagations)
                learnt, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        return SolveResult(False, None, self.conflicts,
                                           self.decisions, self.propagations)
                else:
                    self._attach(learnt)
                    self._learnts.append(learnt)
                    self._cla_activity[id(learnt)] = self._var_inc
                    if not self._enqueue(learnt[0], learnt):
                        raise AssertionError("asserting literal conflict")
                self._var_inc /= self._var_decay
                if len(self._learnts) > _MAX_LEARNTS + 16 * restart_count:
                    self._reduce_db()
                continue
            if conflicts_here >= conflict_budget:
                restart_count += 1
                conflicts_here = 0
                conflict_budget = _LUBY_BASE * _luby(restart_count + 1)
                self._backtrack(0)
                continue
            # Re-establish assumptions after any backtracking below them.
            if len(self._trail_lim) < len(assumption_lits):
                lit = assumption_lits[len(self._trail_lim)]
                val = self._assign[lit]
                if val == 0:
                    self._backtrack(0)
                    return SolveResult(False, None, self.conflicts,
                                       self.decisions, self.propagations)
                self._trail_lim.append(len(self._trail))
                if val < 0:
                    self._enqueue(lit, None)
                continue
            var = self._pick_branch_var()
            if var == 0:
                assign = self._assign
                model = [False] * (self.num_vars + 1)
                for v in range(1, self.num_vars + 1):
                    model[v] = assign[2 * v] == 1
                result = SolveResult(True, model, self.conflicts,
                                     self.decisions, self.propagations)
                self._backtrack(0)
                return result
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            # Phase saving: repeat the previous polarity, default negative.
            self._enqueue(2 * var + (self._phase[var] ^ 1), None)


def solve_cnf(cnf: CNF, assumptions: list[int] | None = None) -> SolveResult:
    """One-shot convenience: build a solver and solve."""
    return Solver(cnf).solve(assumptions)
