"""Exception taxonomy.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these to machine-readable failure codes.
"""

from __future__ import annotations

__all__ = [
    "VacuumDataError",
    "InvalidArgumentError",
    "DegenerateFitError",
    "NoTailError",
    "NotMonotoneError",
    "NegativeRadicandError",
    "NoConvergenceError",
    "NonpositiveIterateError",
    "SingularSystemError",
    "ConstructionFailedError",
    "EvaluationOutOfRangeError",
    "ProfileParseError",
    "SchemaError",
]


class VacuumDataError(Exception):
    """Base class for all package errors."""

    code = "error"


class InvalidArgumentError(VacuumDataError, ValueError):
    code = "invalid-argument"


class DegenerateFitError(VacuumDataError, ValueError):
    """Power-law fit attempted on data that vanishes or changes sign."""

    code = "degenerate-fit"


class NoTailError(VacuumDataError, ValueError):
    """The data have no power-law far field for a fit to read."""

    code = "no-tail"


class NotMonotoneError(VacuumDataError, ValueError):
    """Conformal factor fails the required monotonicity."""

    code = "not-monotone"


class NegativeRadicandError(VacuumDataError, ValueError):
    """Mean-curvature reconstruction hit a negative radicand beyond tolerance."""

    code = "negative-radicand"


class NoConvergenceError(VacuumDataError, RuntimeError):
    code = "no-convergence"


class NonpositiveIterateError(VacuumDataError, RuntimeError):
    """Newton step drove the conformal factor nonpositive even after 60 halvings."""

    code = "nonpositive-iterate"


class SingularSystemError(VacuumDataError, RuntimeError):
    code = "singular-system"


class ConstructionFailedError(VacuumDataError, RuntimeError):
    """No admissible interior interpolant found."""

    code = "construction-failed"


class EvaluationOutOfRangeError(VacuumDataError, ValueError):
    """Evaluation at a radius past the grid's r_max."""

    code = "evaluation-out-of-range"


class ProfileParseError(VacuumDataError, ValueError):
    """Malformed CSV content; carries the 1-based line number."""

    code = "parse-error"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(VacuumDataError, ValueError):
    """CSV header or JSON structure does not match the documented schema."""

    code = "schema-error"
