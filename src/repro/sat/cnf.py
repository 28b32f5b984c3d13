"""CNF formula container and variable manager.

Literal convention (internal): a variable is a positive integer ``v``; the
positive literal is ``2*v`` and the negative literal ``2*v + 1``. This keeps
literals usable as dense array indices inside the solver. The public API of
this module speaks *signed DIMACS* integers (``+v`` / ``-v``), which are far
more convenient for encoders; conversion happens at the solver boundary.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["CNF", "lit_to_internal", "clause_to_internal", "internal_to_lit"]


def lit_to_internal(lit: int) -> int:
    """Signed DIMACS literal -> internal index (2v / 2v+1)."""
    return 2 * lit if lit > 0 else -2 * lit + 1


def clause_to_internal(clause: Iterable[int]) -> list[int]:
    """:func:`lit_to_internal` over a clause, inlined: the solver converts
    every clause and assumption list through here."""
    return [l + l if l > 0 else 1 - l - l for l in clause]


def internal_to_lit(internal: int) -> int:
    """Internal index -> signed DIMACS literal."""
    var = internal >> 1
    return -var if internal & 1 else var


class CNF:
    """A growing CNF formula with its own variable allocator.

    Clauses are lists of signed ints (DIMACS style, no terminating 0).
    Variable names can be registered for debugging/model extraction.
    """

    def __init__(self):
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self._names: dict[str, int] = {}
        self._reverse: dict[int, str] = {}

    # -- variables ----------------------------------------------------------

    def new_var(self, name: str | None = None) -> int:
        """Allocate a fresh variable, optionally registering ``name``."""
        self.num_vars += 1
        var = self.num_vars
        if name is not None:
            if name in self._names:
                raise ValueError(f"duplicate variable name {name!r}")
            self._names[name] = var
            self._reverse[var] = name
        return var

    def new_vars(self, count: int, prefix: str | None = None) -> list[int]:
        """Allocate ``count`` fresh variables (named ``prefix[i]`` if given)."""
        return [
            self.new_var(f"{prefix}[{i}]" if prefix else None)
            for i in range(count)
        ]

    def var(self, name: str) -> int:
        """Look up a registered variable by name."""
        return self._names[name]

    def name_of(self, var: int) -> str | None:
        return self._reverse.get(var)

    # -- clauses ------------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> None:
        clause = list(literals)
        if not clause:
            # An empty clause makes the formula trivially UNSAT; keep it so
            # the solver reports that instead of silently dropping it.
            self.clauses.append(clause)
            return
        for lit in clause:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} references unknown variable")
        self.clauses.append(clause)

    def add_clauses(self, clause_iter: Iterable[Iterable[int]]) -> None:
        for clause in clause_iter:
            self.add_clause(clause)

    def add_unit(self, lit: int) -> None:
        self.add_clause([lit])

    # -- io -----------------------------------------------------------------

    def to_dimacs(self) -> str:
        """Serialize in DIMACS CNF format (for external debugging)."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        """Parse a DIMACS CNF string."""
        cnf = cls()
        declared_vars = 0
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                declared_vars = int(parts[2])
                while cnf.num_vars < declared_vars:
                    cnf.new_var()
                continue
            literals = [int(tok) for tok in line.split()]
            if literals and literals[-1] == 0:
                literals = literals[:-1]
            for lit in literals:
                while abs(lit) > cnf.num_vars:
                    cnf.new_var()
            cnf.add_clause(literals)
        return cnf

    def __repr__(self) -> str:
        return f"CNF(vars={self.num_vars}, clauses={len(self.clauses)})"
