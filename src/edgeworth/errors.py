"""Exception types shared across the package.

Every failure mode that callers are expected to handle has its own class so
that library users (and the command line driver) can map problems to exit
codes without string matching.
"""

import contextlib
import math
import numbers
import operator

import numpy as np


class EdgeworthError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(EdgeworthError):
    """Invalid input data or configuration."""


# What counts as an input number is decided here, for every function
# that takes one: a bool (an int to Python) or a string is not one, nor
# is a NaN or an infinity.  An integer's range (a horizon of at least 1,
# an order in 0..8) is checked by its reader too; a finite real's range
# (positive, stochastic) is checked by the consumer that knows it.

def _as_index(name, value, lo=None, hi=None):
    """``operator.index(value)`` of at least ``lo`` and at most ``hi``
    (None for no bound; ``hi`` needs ``lo``), or a :class:`ValidationError`
    naming ``name``: a horizon, order, count or seed is taken as an
    integer, never truncated."""
    index = None
    if not isinstance(value, (bool, np.bool_)):
        with contextlib.suppress(TypeError):
            index = operator.index(value)
    if index is None:
        raise ValidationError(f"{name} must be an integer, not {value!r}")
    if (lo is not None and index < lo) or (hi is not None and index > hi):
        bound = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValidationError(f"{name} must be {bound}, not {index!r}")
    return index


def _as_horizons(name, values, lo=1):
    """The list of :func:`_as_index` integers of at least ``lo`` in
    ``values``, or a :class:`ValidationError` naming ``name`` if the
    ladder is empty or does not strictly increase."""
    try:
        horizons = [_as_index(name, v, lo) for v in values]
    except TypeError:
        raise ValidationError(f"{name} must be a list of integers, not {values!r}") from None
    if not horizons:
        raise ValidationError(f"{name} must hold at least one horizon")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValidationError(f"{name} must be strictly increasing")
    return horizons


def _real(name, value):
    """``float(value)`` of an int or float (an int too large for a float is
    refused, not rounded to infinity), or a ValidationError naming ``name``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ValidationError(f"{name} must be a real number, not {value!r}")


def _as_real(name, value):
    """The :func:`_real` float of ``value`` if it is finite."""
    x = _real(name, value)
    if math.isfinite(x):
        return x
    raise ValidationError(f"{name} must be finite, not {x!r}")


def _as_reals(name, value):
    """Finite float ndarray of an int or float ndarray (a float one is not
    copied), or of nested lists of numbers that :func:`_real` takes (one
    number gives a 0-d array)."""
    def leaves(v):
        return [leaves(e) for e in v] if isinstance(v, (list, tuple)) else _real(name, v)

    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        array = value.astype(float, copy=False)
    else:
        try:
            array = np.array(leaves(value), dtype=float)
        except ValueError:
            raise ValidationError(f"{name} must be a regular array of numbers") from None
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} holds NaN or infinite entries")
    return array


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

