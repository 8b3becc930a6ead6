"""Exact arithmetic core: rationals, quadratic irrationals, polynomials,
Sturm root counting, and symmetric-matrix inertia."""

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
    count_roots,
    isolate_real_roots,
    poly_gcd,
    refine_root_interval,
    root_intervals,
    squarefree_part,
    sturm_sequence,
)
from .quadratic import QuadElem, is_squarefree, quad_sign

__all__ = [
    "Interval",
    "Matrix",
    "Poly",
    "QuadElem",
    "Signature",
    "cauchy_root_bound",
    "count_roots",
    "is_squarefree",
    "isolate_real_roots",
    "leading_principal_minors",
    "mat_eq",
    "poly_gcd",
    "quad_sign",
    "refine_root_interval",
    "root_intervals",
    "squarefree_part",
    "sturm_sequence",
    "trace",
    "transpose",
]
