"""Exception types shared across the package, one per exit code.

InputError is bad input from the caller (a malformed diagram file, an
unsupported radicand, a ball past its cap and so on); the CLI maps it to
exit code 2.  VerificationFailed is a failed mathematical check, or a failed
internal consistency check, and maps to exit code 1.
"""

from __future__ import annotations


class CoxcertError(Exception):
    """Root of the package exception hierarchy."""


class InputError(CoxcertError):
    """Bad input supplied by the caller (CLI exit code 2)."""


class VerificationFailed(CoxcertError):
    """A mathematical check failed, or an internal consistency check did (a bug)."""
