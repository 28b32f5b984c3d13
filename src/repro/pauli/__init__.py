"""F2 symplectic substrate: GF(2) linear algebra, Pauli operators, cosets."""

from .group import CosetReducer
from .pauli import Pauli
from .symplectic import (
    as_bit_matrix,
    as_bit_vector,
    augment_to_basis,
    independent_rows,
    kernel,
    min_weight_in_coset,
    min_weight_vector_in_coset,
    rank,
    row_space_contains,
    rref,
    solve,
    span_iter,
    span_matrix,
    span_weight_floors,
)

__all__ = [
    "CosetReducer",
    "Pauli",
    "as_bit_matrix",
    "as_bit_vector",
    "augment_to_basis",
    "independent_rows",
    "kernel",
    "min_weight_in_coset",
    "min_weight_vector_in_coset",
    "rank",
    "row_space_contains",
    "rref",
    "solve",
    "span_iter",
    "span_matrix",
    "span_weight_floors",
]
