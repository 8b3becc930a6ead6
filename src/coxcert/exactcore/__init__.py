"""Exact arithmetic core: rationals, quadratic irrationals, polynomials,
real-root counting and isolation, and symmetric-matrix inertia."""

from .linalg import (
    Matrix,
    Signature,
    leading_principal_minors,
    mat_eq,
    trace,
    transpose,
)
from .poly import (
    Interval,
    Poly,
    cauchy_root_bound,
    poly_gcd,
    refine_root_interval,
    root_intervals,
    roots_above,
    squarefree_part,
)
from .quadratic import QuadElem, is_squarefree, quad_sign

__all__ = [
    "Interval",
    "Matrix",
    "Poly",
    "QuadElem",
    "Signature",
    "cauchy_root_bound",
    "is_squarefree",
    "leading_principal_minors",
    "mat_eq",
    "poly_gcd",
    "quad_sign",
    "refine_root_interval",
    "root_intervals",
    "roots_above",
    "squarefree_part",
    "trace",
    "transpose",
]
