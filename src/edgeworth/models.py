"""Concrete model constructors: Markov chains, i.i.d. laws, Ulam maps.

Every model exposes ``operator_family(order)`` returning the Taylor jets
of its twisted operator family, which is all the expansion machinery
needs.  Finite-state Markov models additionally expose the raw
``transition`` / ``observable`` / ``mu0`` arrays consumed by the exact
oracles.  The observable lives on transitions: ``X_n = h[x_n, x_{n+1}]``;
state observables embed as constant rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InconsistentDimensions,
    InsufficientMoments,
    NonStochasticModel,
    SlopeBelowOne,
    ValidationError,
)
from . import spectral

_SPAN_TOL = 1e-9
_SPAN_DENOM_CAP = 10 ** 6


def _lattice_span(h):
    """Largest span with all observable values integer multiples of it.

    Values are reconstructed as fractions with denominator at most 10**6;
    any value failing reconstruction within 1e-9 marks the model
    non-lattice.  Returns ``None`` when non-lattice or all values vanish.
    """
    vals = np.unique(np.asarray(h, dtype=float))
    fracs = []
    for v in vals:
        if abs(v) <= _SPAN_TOL:
            continue
        f = Fraction(v).limit_denominator(_SPAN_DENOM_CAP)
        if abs(float(f) - v) > _SPAN_TOL:
            return None
        fracs.append(f)
    if not fracs:
        return None
    g = Fraction(0)
    for f in fracs:
        g = Fraction(
            math.gcd(g.numerator * f.denominator, f.numerator * g.denominator),
            g.denominator * f.denominator,
        )
        if g.denominator > _SPAN_DENOM_CAP:
            return None
    span = float(g)
    if any(abs(v / span - round(v / span)) > _SPAN_TOL for v in vals):
        return None
    return span


class MarkovModel:
    """Validated finite-state chain with per-transition observable.

    Attributes
    ----------
    transition : ndarray
        Row-stochastic d x d matrix.
    observable : ndarray
        Real d x d matrix of per-transition values.
    mu0 : ndarray
        Initial distribution.
    lattice_span : float or None
        Span when every observable value is an integer multiple of it.
    """

    __slots__ = ("transition", "observable", "mu0", "lattice_span")

    def __init__(self, transition, observable, mu0, lattice_span=None):
        self.transition = np.asarray(transition, dtype=float)
        self.observable = np.asarray(observable, dtype=float)
        self.mu0 = np.asarray(mu0, dtype=float)
        self.lattice_span = lattice_span

    @property
    def dim(self):
        return self.transition.shape[0]

    @property
    def is_lattice(self):
        return self.lattice_span is not None

    def operator_family(self, order):
        """Taylor jets of the twisted family up to ``order``."""
        return spectral.build_operator_family(self, order)


def markov_model(P, h, mu0):
    """Validated finite-state model with lattice span auto-detection.

    Parameters
    ----------
    P : array_like
        d x d row-stochastic transition matrix.
    h : array_like
        d x d observable values on transitions.
    mu0 : array_like
        Initial distribution of length d.

    Raises
    ------
    InconsistentDimensions
        If the shapes disagree.
    NonStochasticModel
        If P rows or mu0 fail to be probability vectors within 1e-12.
    ValidationError
        If any entry of P, h or mu0 is NaN or infinite.
    """
    P = np.asarray(P, dtype=float)
    h = np.asarray(h, dtype=float)
    mu0 = np.asarray(mu0, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InconsistentDimensions("transition matrix must be square")
    if h.shape != P.shape:
        raise InconsistentDimensions(
            f"observable shape {h.shape} differs from transition {P.shape}"
        )
    if mu0.shape != (P.shape[0],):
        raise InconsistentDimensions(
            f"initial distribution length {mu0.shape} does not match dimension {P.shape[0]}"
        )
    for name, values in (("transition", P), ("observable", h), ("initial distribution", mu0)):
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{name} holds NaN or infinite entries")
    if np.any(P < 0) or np.any(mu0 < 0):
        raise NonStochasticModel("negative probabilities")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
        raise NonStochasticModel("transition rows do not sum to 1 within 1e-12")
    if abs(mu0.sum() - 1.0) > 1e-12:
        raise NonStochasticModel("initial distribution does not sum to 1 within 1e-12")
    return MarkovModel(P, h, mu0, lattice_span=_lattice_span(h))


class IidMomentModel:
    """One-dimensional model specified by raw moments only.

    The single operator jet is the characteristic-function series
    ``sum_k m_k (it)**k / k!``; no path-level oracle is available.
    """

    __slots__ = ("moments", "mu0")

    def __init__(self, moments):
        self.moments = np.asarray(moments, dtype=float)
        self.mu0 = np.array([1.0])

    @property
    def dim(self):
        return 1

    @property
    def is_lattice(self):
        return False

    lattice_span = None

    def operator_family(self, order):
        """1 x 1 jet family from the stored moments.

        Raises
        ------
        InsufficientMoments
            If fewer than ``order`` moments are stored.
        """
        if order > self.moments.size:
            raise InsufficientMoments(
                f"order {order} requested but only {self.moments.size} moments stored"
            )
        coeffs = np.zeros((1, 1, order + 1), dtype=complex)
        coeffs[0, 0, 0] = 1.0
        fact = 1.0
        for k in range(1, order + 1):
            fact *= k
            coeffs[0, 0, k] = self.moments[k - 1] * (1j ** k) / fact
        return spectral.OperatorFamilyJet(coeffs, self.mu0)


def _hankel_check(moments):
    """Positive-semidefiniteness of the moment Hankel matrix."""
    m = np.concatenate([[1.0], np.asarray(moments, dtype=float)])
    half = (m.size - 1) // 2
    H = np.array([[m[i + j] for j in range(half + 1)] for i in range(half + 1)])
    eigs = np.linalg.eigvalsh(H)
    scale = max(1.0, float(np.max(np.abs(H))))
    if eigs.min() < -1e-9 * scale:
        raise ValidationError(
            f"moment sequence is not realizable: Hankel eigenvalue {eigs.min():.3e}"
        )


def iid_model(pmf=None, moments=None):
    """Model of i.i.d. summands, from a finite pmf or a moment list.

    A pmf yields a full Markov embedding (identical rows, observable
    constant along columns) so every exact oracle applies; a moment list
    yields a 1 x 1 jet-only model.

    Parameters
    ----------
    pmf : sequence of (value, probability), optional
    moments : sequence of raw moments m_1 .. m_s, optional

    Raises
    ------
    InsufficientMoments
        If fewer than two moments are supplied.
    ValidationError
        If the pmf or the moment Hankel matrix is invalid.
    """
    if (pmf is None) == (moments is None):
        raise ValidationError("exactly one of pmf and moments must be given")
    if pmf is not None:
        values = np.array([float(v) for v, _ in pmf])
        probs = np.array([float(p) for _, p in pmf])
        if values.size == 0:
            raise ValidationError("empty pmf")
        if np.any(probs < 0) or abs(math.fsum(probs) - 1.0) > 1e-12:
            raise ValidationError("pmf probabilities must be nonnegative and sum to 1")
        d = values.size
        P = np.tile(probs, (d, 1))
        h = np.tile(values, (d, 1))
        return markov_model(P, h, probs)
    moments = np.asarray(moments, dtype=float)
    if moments.size < 2:
        raise InsufficientMoments("at least two moments required")
    _hankel_check(moments)
    return IidMomentModel(moments)


def pmf_moments(pmf, kmax):
    """Raw moments m_1 .. m_kmax of a finite pmf, exactly accumulated."""
    return [
        math.fsum(float(p) * float(v) ** k for v, p in pmf) for k in range(1, kmax + 1)
    ]


class UlamModel(MarkovModel):
    """Discretized interval map; keeps the map itself for Monte Carlo."""

    __slots__ = ("map_kind", "map_endpoints", "map_g_vec")

    def __init__(self, transition, observable, mu0, lattice_span, map_kind, map_endpoints, g):
        super().__init__(transition, observable, mu0, lattice_span)
        self.map_kind = map_kind
        self.map_endpoints = np.asarray(map_endpoints, dtype=float)
        self.map_g_vec = g


def ulam_model(map_kind="doubling", g=None, cells=1024, endpoints=None, density=None):
    """Discretized expanding interval map as a finite-state model.

    The unit interval splits into ``cells`` equal cells; the transition
    mass is the normalized length of ``cell_j intersect f^{-1}(cell_k)``
    and the observable is ``g`` at the midpoint of that intersection
    (mass-weighted across branches if several contribute).

    Parameters
    ----------
    map_kind : str
        "doubling" for x -> 2x mod 1, or "piecewise-linear" with
        ``endpoints`` giving full branches over [0, 1].
    g : callable
        Observable on [0, 1]; must accept numpy arrays.
    cells : int
        Number of cells, at least 16.
    endpoints : sequence, optional
        Branch endpoints 0 = e_0 < ... < e_B = 1 for "piecewise-linear".
    density : callable, optional
        Unnormalized initial density; uniform when omitted.

    Raises
    ------
    SlopeBelowOne
        If any branch has slope at most 1.
    """
    if g is None:
        raise ValidationError("observable g is required")
    if cells < 16:
        raise ValidationError("at least 16 cells required")
    if map_kind == "doubling":
        endpoints = [0.0, 0.5, 1.0]
    elif map_kind == "piecewise-linear":
        if endpoints is None or len(endpoints) < 2:
            raise ValidationError("piecewise-linear map needs branch endpoints")
        endpoints = [float(e) for e in endpoints]
        if endpoints[0] != 0.0 or endpoints[-1] != 1.0 or np.any(np.diff(endpoints) <= 0):
            raise ValidationError("endpoints must increase from 0 to 1")
    else:
        raise ValidationError(f"unknown map kind {map_kind!r}")

    widths = np.diff(endpoints)
    slopes = 1.0 / widths
    if np.any(slopes <= 1.0):
        raise SlopeBelowOne(f"branch slopes {slopes} must exceed 1")

    n = cells
    edges = np.arange(n + 1) / n
    P = np.zeros((n, n))
    h = np.zeros((n, n))
    wsum = np.zeros((n, n))
    for b in range(len(widths)):
        lo_b, w_b = endpoints[b], widths[b]
        # branch preimage of cell_k is lo_b + [k, k+1) * w_b / n
        for k in range(n):
            plo = lo_b + edges[k] * w_b
            phi = lo_b + edges[k + 1] * w_b
            j0 = int(np.floor(plo * n))
            j1 = min(int(np.ceil(phi * n)), n)
            for j in range(j0, j1):
                lo = max(plo, edges[j])
                hi = min(phi, edges[j + 1])
                if hi <= lo:
                    continue
                mass = (hi - lo) * n
                P[j, k] += mass
                gval = g(0.5 * (lo + hi))
                h[j, k] += mass * gval
                wsum[j, k] += mass
    nz = wsum > 0
    h[nz] /= wsum[nz]
    P /= P.sum(axis=1, keepdims=True)

    if density is None:
        mu0 = np.full(n, 1.0 / n)
    else:
        mids = (edges[:-1] + edges[1:]) / 2
        mu0 = np.array([float(density(x)) for x in mids])
        if np.any(mu0 < 0):
            raise ValidationError("density must be nonnegative")
        mu0 /= mu0.sum()
    validated = markov_model(P, h, mu0)
    return UlamModel(
        validated.transition,
        validated.observable,
        validated.mu0,
        validated.lattice_span,
        map_kind,
        endpoints,
        g,
    )


@dataclass(frozen=True)
class DiophantineScan:
    """Resonance scan: grid values of d(s) and the fitted lower envelope."""

    s: np.ndarray
    d: np.ndarray
    K: float
    beta: float
    residual: float


def diophantine_scan(h, s_grid):
    """Quantitative non-resonance scan of an observable matrix.

    For each grid frequency ``s`` the statistic is
    ``d(s) = max over (r, j, k) of frac((b_{r,j,k} - b_{r,1,k}) s)`` with
    ``b_{r,j,k} = h_{rj} + h_{jk}``.  The bound ``d(s) >= K |s|**-beta``
    is fitted by least squares on the running record minima of ``d``
    (the lower envelope), since only those constrain the bound.

    Parameters
    ----------
    h : array_like
        d x d observable matrix with d >= 2.
    s_grid : array_like
        Frequencies, nonzero.

    Returns
    -------
    DiophantineScan
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 2:
        raise InconsistentDimensions("observable matrix must be square with d >= 2")
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.size == 0 or np.any(s_grid == 0):
        raise ValidationError("frequency grid must be nonempty and nonzero")
    d = h.shape[0]
    diffs = []
    for r in range(d):
        for j in range(d):
            for k in range(d):
                diffs.append((h[r, j] - h[r, 0]) + (h[j, k] - h[0, k]))
    diffs = np.unique(np.asarray(diffs))

    dvals = np.empty(s_grid.size)
    for i, s in enumerate(s_grid):
        dvals[i] = np.max(np.mod(diffs * s, 1.0))

    if np.max(dvals) <= 1e-12:
        warnings.warn(
            "observable is resonant: d(s) vanishes identically, "
            "expansion orders beyond the CLT are unreliable",
            stacklevel=2,
        )
        return DiophantineScan(s_grid, dvals, 0.0, 0.0, 0.0)

    order = np.argsort(np.abs(s_grid), kind="stable")
    rec_s, rec_d = [], []
    best = np.inf
    for i in order:
        if dvals[i] < best and dvals[i] > 0:
            best = dvals[i]
            rec_s.append(abs(s_grid[i]))
            rec_d.append(dvals[i])
    if len(rec_s) < 2:
        return DiophantineScan(s_grid, dvals, float(min(rec_d, default=0.0)), 0.0, 0.0)
    X = np.log(np.asarray(rec_s))
    Y = np.log(np.asarray(rec_d))
    slope, intercept = np.polyfit(X, Y, 1)
    resid = float(np.sqrt(np.mean((slope * X + intercept - Y) ** 2)))
    return DiophantineScan(s_grid, dvals, float(np.exp(intercept)), float(-slope), resid)


_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _two_state():
    return markov_model(
        [[0.7, 0.3], [0.4, 0.6]],
        [[1.0, 0.0], [0.0, 0.0]],
        [1.0, 0.0],
    )


def _three_state_lattice():
    # skewed integer rewards so every polynomial family is nontrivial
    return markov_model(
        [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
        [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 1.0, 0.0]],
        [1.0, 0.0, 0.0],
    )


def _diophantine_two_state():
    # golden-ratio reward: badly approximable, so the characteristic
    # distance d(t) stays bounded below on any finite window
    return markov_model(
        [[0.75, 0.25], [0.45, 0.55]],
        [[1.0, 0.0], [_GOLDEN, 0.0]],
        [1.0, 0.0],
    )


def _bernoulli():
    return iid_model(pmf=[(0.0, 0.5), (1.0, 0.5)])


def _iid_moments():
    # moments of the centered law P(-1) = 1/4, P(0) = 2/3, P(3) = 1/12:
    # unit variance, E X^3 = 2, E X^4 = 7
    return iid_model(moments=pmf_moments([(-1.0, 0.25), (0.0, 2.0 / 3.0), (3.0, 1.0 / 12.0)], 8))


def _doubling_ulam():
    return ulam_model(map_kind="doubling", g=lambda x: np.cos(2.0 * np.pi * x), cells=1024)


BUNDLED_MODELS = {
    "two_state": _two_state,
    "three_state_lattice": _three_state_lattice,
    "diophantine_two_state": _diophantine_two_state,
    "bernoulli": _bernoulli,
    "iid_moments": _iid_moments,
    "doubling_ulam": _doubling_ulam,
}


def bundled_model(name):
    """Construct a bundled example model by name."""
    try:
        builder = BUNDLED_MODELS[name]
    except KeyError:
        raise ValidationError(
            f"unknown model {name!r}; available: {sorted(BUNDLED_MODELS)}"
        ) from None
    return builder()
