"""Domain errors raised by the mmwprop library.

Every error the library raises deliberately derives from :class:`MmwPropError`
so callers (and the CLI) can distinguish domain failures from bugs. The CLI
reports the class name with the ``Error`` suffix stripped.
"""

from __future__ import annotations

import math


class MmwPropError(Exception):
    """Base class for all domain errors."""


class InvariantViolationError(MmwPropError):
    """A value violates a documented field or precondition invariant."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"data row {row}: {message}"
        super().__init__(message)
        self.row = row


class MissingColumnError(MmwPropError):
    """A required CSV column is absent from the header."""


class BadNumericError(MmwPropError):
    """A CSV cell could not be parsed as a finite number."""

    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"data row {row}, column {column!r}: not a finite number: {value!r}")
        self.row = row
        self.column = column


class PerfectTransmissionError(MmwPropError):
    """Reflection coefficient is zero, so the loss in dB is unbounded."""


class TooFewSamplesError(MmwPropError):
    """An estimator was given fewer samples than it needs."""


class MixedFrequenciesError(MmwPropError):
    """Samples from different frequencies were passed to a single-band fit."""


class EstimateAtBoundError(MmwPropError):
    """A search estimate sits at an end of its search range, not at a minimum."""


class FlatObjectiveError(MmwPropError):
    """An estimator's objective is flat to within rounding over its whole search range."""


class NonFiniteResultError(MmwPropError):
    """A result overflowed to infinity (or is NaN), so it cannot be printed as a number."""


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise NonFiniteResultError(f"a result is not a finite number: {value}")
    return value


class MissingEntryError(MmwPropError, KeyError):
    """A reference-table lookup has no entry for the requested key."""

    __str__ = Exception.__str__  # KeyError would quote the message


class DegenerateAnglesError(MmwPropError):
    """All incidence angles coincide, so a slope cannot be fitted."""


class MissingSpecularAngleError(MmwPropError):
    """The observation sweep does not include the specular direction."""


class OneSidedPatternError(MmwPropError):
    """A scattering pattern does not cover both sides of the surface normal."""


class OverUnityBudgetError(MmwPropError):
    """Reflected plus transmitted fractions exceed the incident power."""


class BelowReferenceDistanceError(MmwPropError):
    """A distance lies below the 1 m close-in reference distance."""


class AllAtReferenceDistanceError(MmwPropError):
    """Every sample sits at the reference distance; the slope is undefined."""


class UndeterminedExponentError(MmwPropError):
    """The distances sit so close to the 1 m anchor that the data cannot fix the exponent."""


class NonPositiveExponentError(MmwPropError):
    """A close-in fit's exponent is not > 0: the losses sit at or below the 1 m anchor."""
