"""SAT substrate: CNF container, CDCL solver, and CNF encodings.

This package replaces Z3 in the paper's toolchain; see the "Substitutions
and modelling choices" and "SAT substrate" sections of
docs/architecture.md.
"""

from .cardinality import Totalizer
from .cnf import CNF
from .encode import (
    add_xor_constraint,
    at_least_one,
    at_most_k_seq,
    at_most_one,
    encode_and,
    encode_or,
    encode_xor_chain,
    encode_xor_gate,
    exactly_one,
    implies_clause,
)
from .solver import Solver, SolveResult, solve_cnf

__all__ = [
    "CNF",
    "SolveResult",
    "Solver",
    "Totalizer",
    "add_xor_constraint",
    "at_least_one",
    "at_most_k_seq",
    "at_most_one",
    "encode_and",
    "encode_or",
    "encode_xor_chain",
    "encode_xor_gate",
    "exactly_one",
    "implies_clause",
    "solve_cnf",
]
