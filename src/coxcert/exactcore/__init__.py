"""Exact arithmetic core: rationals, quadratic irrationals, polynomials,
real-root counting and isolation, and symmetric-matrix inertia.

The three submodules load on first attribute access, so a command compiles
only the ones it calls.
"""

from __future__ import annotations

from .. import _lazy

linalg, poly, quadratic = (_lazy(f"{__name__}.{name}") for name in ("linalg", "poly", "quadratic"))

# The public names, each served by __getattr__ from its submodule.
_EXPORTS = {
    name: module
    for module, names in (
        (linalg, ("Matrix", "leading_principal_minors", "trace")),
        (
            poly,
            (
                "Interval",
                "Poly",
                "Signature",
                "cauchy_root_bound",
                "poly_gcd",
                "refine_root_interval",
                "root_intervals",
                "roots_above",
                "squarefree_part",
            ),
        ),
        (quadratic, ("QuadElem", "is_squarefree", "quad_sign")),
    )
    for name in names
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_EXPORTS[name], name)


__all__ = sorted(_EXPORTS)
