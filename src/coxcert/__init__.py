"""coxcert: exact certification of reflection-group embeddings.

Given a diagram on n vertices (edges mark the NON-commuting generator
pairs), the package builds the associated one-parameter family M_d of
symmetric matrices, computes exact thresholds epsilon and D, picks a unit
alpha in Z[sqrt m] with alpha >= max(1/epsilon, D), and certifies the
reflection representation at alpha: group relations, integrality,
preservation of an indefinite form, compactness of the Galois-conjugate
form, Zariski density via the bracket-closure trace (vertex pairs counted
by graph distance), and a finite faithfulness probe.  All verdicts come
from exact arithmetic over Q and Q(sqrt m); floats appear only in reports.
"""

from __future__ import annotations

from .cyclecheck import (
    CycleReport,
    SpectrumPrediction,
    circulant_identity_ok,
    predicted_spectrum,
    verify_cycle_example,
)
from .diagram import (
    CoxeterDiagram,
    cycle_complement,
    is_connected,
    parse_diagram,
    serialize_diagram,
)
from .exactcore import (
    Interval,
    Matrix,
    Poly,
    QuadElem,
    Signature,
    quad_sign,
)
from .gram import (
    GramPencil,
    ThresholdReport,
    d_threshold,
    epsilon_threshold,
    evaluate_pencil,
    gram_pencil,
    minor_polynomials,
    stable_signature,
    threshold_report,
)
from .liealg import (
    DensityCertificate,
    bracket_closure_density,
)
from .units import (
    GaloisReport,
    PellSolution,
    UnitValue,
    choose_unit,
    fundamental_pell,
    galois_pair_check,
)
from .vinberg import (
    EmbeddingCertificate,
    RelationReport,
    build_embedding_certificate,
    compact_conjugate_check,
    expected_trace,
    generators_integral,
    verify_relations,
)
from .words import (
    FaithfulnessReport,
    append_letter,
    enumerate_by_length,
    faithfulness_probe,
)

__version__ = "0.1.0"

__all__ = [
    "CoxeterDiagram",
    "CycleReport",
    "DensityCertificate",
    "EmbeddingCertificate",
    "FaithfulnessReport",
    "GaloisReport",
    "GramPencil",
    "Interval",
    "Matrix",
    "PellSolution",
    "Poly",
    "QuadElem",
    "RelationReport",
    "Signature",
    "SpectrumPrediction",
    "ThresholdReport",
    "UnitValue",
    "append_letter",
    "bracket_closure_density",
    "build_embedding_certificate",
    "choose_unit",
    "circulant_identity_ok",
    "compact_conjugate_check",
    "cycle_complement",
    "d_threshold",
    "enumerate_by_length",
    "epsilon_threshold",
    "evaluate_pencil",
    "expected_trace",
    "faithfulness_probe",
    "fundamental_pell",
    "galois_pair_check",
    "generators_integral",
    "gram_pencil",
    "is_connected",
    "minor_polynomials",
    "parse_diagram",
    "predicted_spectrum",
    "quad_sign",
    "serialize_diagram",
    "stable_signature",
    "threshold_report",
    "verify_cycle_example",
    "verify_relations",
    "__version__",
]
