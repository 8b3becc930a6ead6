"""coxcert: exact certification of reflection-group embeddings.

Given a diagram on n vertices (edges mark the NON-commuting generator
pairs), the package builds the associated one-parameter family M_d of
symmetric matrices, computes exact thresholds epsilon and D, picks a unit
alpha in Z[sqrt m] with alpha >= max(1/epsilon, D), and certifies the
reflection representation at alpha: group relations, integrality,
preservation of an indefinite form, compactness of the Galois-conjugate
form, Zariski density via the bracket-closure trace (vertex pairs counted
by graph distance), and faithfulness by Vinberg's theorem.  All verdicts come
from exact arithmetic over Q and Q(sqrt m); floats appear only in reports.

The six stage modules load on first attribute access, so each command
compiles and runs only the stages it calls.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys


def _lazy(name: str):
    """Register the dotted module `name` in sys.modules; its source runs on first attribute access."""
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


cyclecheck, gram, liealg, units, vinberg, words = (
    _lazy(f"{__name__}.{name}") for name in ("cyclecheck", "gram", "liealg", "units", "vinberg", "words")
)

# The public names of each submodule.  __getattr__ serves these, and the
# submodules diagram, errors and exactcore, imported plainly on first use.
_EXPORTS = {
    name: module
    for module, names in {
        "cyclecheck": (
            "CycleReport",
            "circulant_identity_ok",
            "verify_cycle_example",
        ),
        "diagram": ("CoxeterDiagram", "cycle_complement", "is_connected", "parse_diagram", "serialize_diagram"),
        "exactcore": ("Interval", "Matrix", "Poly", "QuadElem", "Signature", "quad_sign"),
        "gram": (
            "ThresholdReport",
            "d_threshold",
            "epsilon_threshold",
            "evaluate_pencil",
            "gram_pencil",
            "minor_polynomials",
            "stable_signature",
            "threshold_report",
        ),
        "liealg": ("DensityCertificate", "bracket_closure_density"),
        "units": (
            "GaloisReport",
            "PellSolution",
            "UnitValue",
            "choose_unit",
            "fundamental_pell",
            "galois_pair_check",
        ),
        "vinberg": (
            "EmbeddingCertificate",
            "RelationReport",
            "build_embedding_certificate",
            "compact_conjugate_check",
            "expected_trace",
            "generators_integral",
            "verify_relations",
        ),
        "words": ("FaithfulnessReport", "append_letter", "enumerate_by_length", "faithfulness_probe"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    if name in ("diagram", "errors", "exactcore"):
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


__version__ = "0.1.0"

__all__ = [*sorted(_EXPORTS), "__version__"]
