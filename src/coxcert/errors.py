"""Exception types shared across the package.

Errors derived from InputError indicate bad user input (malformed diagram
files, unsupported radicands and so on); the CLI maps them to exit code 2.
Everything else signals a failed mathematical check or an internal bug and
maps to exit code 1.
"""

from __future__ import annotations


class CoxcertError(Exception):
    """Root of the package exception hierarchy."""


class InputError(CoxcertError):
    """Bad input supplied by the caller (CLI exit code 2)."""


class DiagramSyntaxError(InputError):
    """Malformed diagram file; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class IndexOutOfRange(InputError):
    """Vertex index outside 1..n."""


class DuplicateEdge(InputError):
    """The same edge listed twice."""


class TooFewVertices(InputError):
    """Diagrams need at least 3 vertices."""


class TooManyVertices(InputError):
    """More vertices than diagram.MAX_VERTICES, the cap on untrusted input."""


class NTooSmall(InputError):
    """Cycle complements need at least 5 vertices."""


class Disconnected(InputError):
    """The construction requires a connected diagram."""


class NotSquarefree(InputError):
    """Radicand m must be squarefree and >= 2."""


class MixedRadicands(CoxcertError):
    """Arithmetic attempted between elements of different quadratic fields."""


class ZeroPolynomial(CoxcertError):
    """Root counting on the zero polynomial is undefined."""


class EndpointIsRoot(CoxcertError):
    """An interval endpoint annihilates the polynomial being counted."""


class SameVertex(CoxcertError):
    """A vertex pair operation needs two distinct vertices."""


class DegenerateForm(CoxcertError):
    """The symmetric form is singular where a nondegenerate one is required."""


class UnexpectedDimension(CoxcertError):
    """A solution space came out with the wrong dimension."""


class VerificationFailed(CoxcertError):
    """An internal consistency re-check failed; indicates a bug."""


class InequalityFailed(CoxcertError):
    """The Galois conjugate bound failed: alpha lies below 1/epsilon."""


class BallTooLarge(InputError):
    """A ball enumeration would hold more than words.MAX_BALL_ELEMENTS elements."""
