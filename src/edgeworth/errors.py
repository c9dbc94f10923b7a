"""Exception types shared across the package.

Every failure mode that callers are expected to handle has its own class so
that library users (and the command line driver) can map problems to exit
codes without string matching.
"""

import contextlib
import numbers
import operator

import numpy as np


class EdgeworthError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(EdgeworthError):
    """Invalid input data or configuration."""


# What counts as an input number is decided here, for every function
# that takes one: a bool (an int to Python) or a string is not one.  Each
# consumer checks the range (finite, positive, ...) itself.

def _as_index(name, value):
    """``operator.index(value)``, or a :class:`ValidationError` naming
    ``name``: a size or seed is taken as an integer, never truncated."""
    if not isinstance(value, (bool, np.bool_)):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValidationError(f"{name} must be an integer, not {value!r}")


def _as_real(name, value):
    """``float(value)`` of an int or float, NaN and infinities included, or
    a :class:`ValidationError` naming ``name``; an int too large for a
    float is refused, not rounded to infinity."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ValidationError(f"{name} must be a real number, not {value!r}")


def _as_reals(name, value):
    """Float ndarray of an int or float ndarray, or of nested lists of
    numbers that :func:`_as_real` takes (one number gives a 0-d array)."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value.astype(float, copy=False)

    def leaves(v):
        return [leaves(e) for e in v] if isinstance(v, (list, tuple)) else _as_real(name, v)

    try:
        return np.array(leaves(value), dtype=float)
    except ValueError:
        raise ValidationError(f"{name} must be a regular array of numbers") from None


class OracleInfeasible(EdgeworthError):
    """A brute-force oracle cannot run within its resource bounds."""


# --- jets ---------------------------------------------------------------

class DivByZeroConstantTerm(ValidationError):
    """Series division by a series whose constant term vanishes."""


class LogOfZeroConstantTerm(ValidationError):
    """Series logarithm of a series whose constant term vanishes."""


# --- spectral -----------------------------------------------------------

class NonStochasticModel(ValidationError):
    """Transition matrix rows do not sum to one."""


class SingularStationarySolve(EdgeworthError):
    """The stationary-distribution linear system is singular."""


class GapBelowTolerance(EdgeworthError):
    """Spectral gap of the transition matrix is numerically zero."""


class BorderedSolveSingular(EdgeworthError):
    """The bordered eigenvalue-perturbation system is singular."""


# --- expansion ----------------------------------------------------------

class DegenerateVariance(EdgeworthError):
    """Asymptotic variance is not positive."""


class NonRealDrift(EdgeworthError):
    """Asymptotic mean has a non-negligible imaginary part."""


class ImaginaryResidue(EdgeworthError):
    """A coefficient that must be real carries imaginary residue."""


class DegreeOverflow(EdgeworthError):
    """A polynomial exceeds its guaranteed degree bound."""


class NonZeroMean(EdgeworthError):
    """A density-level polynomial has nonzero Gaussian mean and cannot be
    antidifferentiated within the Hermite ladder."""


# --- models -------------------------------------------------------------

class InconsistentDimensions(ValidationError):
    """Matrix and vector shapes of a model do not agree."""


class InsufficientMoments(ValidationError):
    """Too few moments supplied for the requested expansion order."""


class SlopeBelowOne(ValidationError):
    """A piecewise map branch is not uniformly expanding."""


# --- oracle -------------------------------------------------------------

class TableTooLarge(OracleInfeasible):
    """The exact dynamic program would exceed its 10**7-cell budget."""


class TooManyValues(OracleInfeasible):
    """The resonance scan would exceed its distinct-difference budget."""


class OracleUnavailable(OracleInfeasible):
    """No oracle can produce the requested reference quantity."""

