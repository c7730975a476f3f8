"""Small shared utilities: exact integer math and validation helpers."""

from repro.util.intmath import (
    extended_gcd,
    gcd_vector,
    integer_solve,
    is_integer_matrix,
    lcm,
)

__all__ = [
    "extended_gcd",
    "gcd_vector",
    "integer_solve",
    "is_integer_matrix",
    "lcm",
]
