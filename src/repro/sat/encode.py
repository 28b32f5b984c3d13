"""CNF encodings: Tseitin gates, XOR chains, cardinality constraints.

These are the building blocks the synthesis encodings are assembled from
(docs/architecture.md, "SAT substrate"). All functions take signed DIMACS literals and a
:class:`~repro.sat.cnf.CNF` to grow.
"""

from __future__ import annotations

from typing import Sequence

from .cnf import CNF

__all__ = [
    "encode_and",
    "encode_or",
    "encode_xor_gate",
    "encode_xor_chain",
    "add_xor_constraint",
    "at_most_one",
    "at_most_k_seq",
    "at_least_one",
    "exactly_one",
    "implies_clause",
]


def constant_literals(cnf: CNF) -> tuple[int, int]:
    """Return (true_lit, false_lit), allocating the constant var on demand."""
    try:
        var = cnf.var("__const_true__")
    except KeyError:
        var = cnf.new_var("__const_true__")
        cnf.add_unit(var)
    return var, -var


def encode_and(cnf: CNF, inputs: Sequence[int], name: str | None = None) -> int:
    """Fresh literal ``g`` with ``g <-> AND(inputs)``."""
    inputs = list(inputs)
    if not inputs:
        true, _ = constant_literals(cnf)
        return true
    if len(inputs) == 1:
        return inputs[0]
    g = cnf.new_var(name)
    for lit in inputs:
        cnf.add_clause([-g, lit])
    cnf.add_clause([g] + [-lit for lit in inputs])
    return g


def encode_or(cnf: CNF, inputs: Sequence[int], name: str | None = None) -> int:
    """Fresh literal ``g`` with ``g <-> OR(inputs)``."""
    inputs = list(inputs)
    if not inputs:
        _, false = constant_literals(cnf)
        return false
    if len(inputs) == 1:
        return inputs[0]
    g = cnf.new_var(name)
    for lit in inputs:
        cnf.add_clause([g, -lit])
    cnf.add_clause([-g] + list(inputs))
    return g


def encode_xor_gate(cnf: CNF, a: int, b: int, name: str | None = None) -> int:
    """Fresh literal ``g`` with ``g <-> a XOR b``."""
    g = cnf.new_var(name)
    cnf.add_clause([-g, a, b])
    cnf.add_clause([-g, -a, -b])
    cnf.add_clause([g, -a, b])
    cnf.add_clause([g, a, -b])
    return g


def encode_xor_chain(
    cnf: CNF, inputs: Sequence[int], parity: int = 0, name: str | None = None
) -> int:
    """Fresh literal equal to ``XOR(inputs) XOR parity`` (parity in {0, 1}).

    An empty input list yields the constant ``parity``.
    """
    inputs = list(inputs)
    if not inputs:
        true, false = constant_literals(cnf)
        return true if parity else false
    acc = inputs[0]
    for lit in inputs[1:]:
        acc = encode_xor_gate(cnf, acc, lit)
    if parity:
        acc = -acc
    return acc


def add_xor_constraint(cnf: CNF, inputs: Sequence[int], parity: int) -> None:
    """Assert ``XOR(inputs) == parity`` directly (no output literal).

    Uses a chain of fresh variables; cheaper than forcing an output gate when
    the XOR value is fixed.
    """
    inputs = list(inputs)
    if not inputs:
        if parity:
            cnf.add_clause([])  # unsatisfiable
        return
    if len(inputs) == 1:
        cnf.add_unit(inputs[0] if parity else -inputs[0])
        return
    acc = inputs[0]
    for lit in inputs[1:-1]:
        acc = encode_xor_gate(cnf, acc, lit)
    last = inputs[-1]
    # acc XOR last == parity
    if parity:
        cnf.add_clause([acc, last])
        cnf.add_clause([-acc, -last])
    else:
        cnf.add_clause([-acc, last])
        cnf.add_clause([acc, -last])


def at_least_one(cnf: CNF, literals: Sequence[int]) -> None:
    cnf.add_clause(list(literals))


def at_most_one(
    cnf: CNF, literals: Sequence[int], condition: int | None = None
) -> None:
    """Pairwise at-most-one; ``condition`` guards every clause if given.

    Pairwise is fine here: the library only applies AMO to residual-weight
    vectors of length <= ~20.
    """
    literals = list(literals)
    guard = [] if condition is None else [-condition]
    for i in range(len(literals)):
        for j in range(i + 1, len(literals)):
            cnf.add_clause(guard + [-literals[i], -literals[j]])


def exactly_one(cnf: CNF, literals: Sequence[int]) -> None:
    at_least_one(cnf, literals)
    at_most_one(cnf, literals)


def at_most_k_seq(cnf: CNF, literals: Sequence[int], k: int) -> None:
    """Sequential-counter encoding of ``sum(literals) <= k`` (Sinz 2005)."""
    literals = list(literals)
    n = len(literals)
    if k < 0:
        cnf.add_clause([])
        return
    if k >= n:
        return
    if k == 0:
        for lit in literals:
            cnf.add_unit(-lit)
        return
    # registers[i][j] <-> "at least j+1 of the first i+1 literals are true"
    registers = [[cnf.new_var() for _ in range(k)] for _ in range(n)]
    cnf.add_clause([-literals[0], registers[0][0]])
    for j in range(1, k):
        cnf.add_unit(-registers[0][j])
    for i in range(1, n):
        cnf.add_clause([-literals[i], registers[i][0]])
        cnf.add_clause([-registers[i - 1][0], registers[i][0]])
        for j in range(1, k):
            cnf.add_clause(
                [-literals[i], -registers[i - 1][j - 1], registers[i][j]]
            )
            cnf.add_clause([-registers[i - 1][j], registers[i][j]])
        cnf.add_clause([-literals[i], -registers[i - 1][k - 1]])
    # Note: the final overflow clause above forbids the (k+1)-th true literal.


def implies_clause(cnf: CNF, guard: int, clause: Sequence[int]) -> None:
    """Add ``guard -> OR(clause)``."""
    cnf.add_clause([-guard] + list(clause))
