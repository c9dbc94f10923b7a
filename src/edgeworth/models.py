"""Concrete model constructors: Markov chains, i.i.d. laws, Ulam maps.

Every model exposes ``operator_family(order)`` returning the Taylor jets
of its twisted operator family, which is all the expansion machinery
needs.  Finite-state Markov models additionally expose the chain
(``entries()``, ``mu0``) consumed by the exact oracles.  The observable
lives on transitions: ``X_n = h[x_n, x_{n+1}]``; state observables embed
as constant rows.

Every finite-state model is a :class:`MarkovModel`, checked once by its
constructor, which drops the transitions of probability 0 with their
rewards and takes the lattice span from the values that S_N can take.
Every chain is stored one way, on its transitions of positive
probability (:meth:`MarkovModel.entries`); ``transition`` and
``observable`` form d x d arrays from them for the consumers that need
matrices.
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
    TooManyValues,
    ValidationError,
)
from . import spectral

_SPAN_TOL = 1e-9
_SPAN_DENOM_CAP = 10 ** 6
MAX_ULAM_CELLS = 4096
_MAX_SCAN_SUMS = 10 ** 7


def _lattice_span(h):
    """Largest span with all reward values ``h`` integer multiples of it.

    When every nonzero value is an integer multiple, within 1e-9, of the
    smallest nonzero magnitude, that magnitude is the span, so an
    irrational reward keeps its exact value.  Otherwise values are
    reconstructed as fractions with denominator at most 10**6; any value
    failing reconstruction within 1e-9 marks the model non-lattice.
    Returns ``None`` when non-lattice or all values vanish.
    """
    vals = np.unique(np.asarray(h, dtype=float))
    nonzero = vals[np.abs(vals) > _SPAN_TOL]
    if nonzero.size:
        m = float(np.min(np.abs(nonzero)))
        ratios = nonzero / m
        if np.all(np.abs(ratios - np.rint(ratios)) <= _SPAN_TOL):
            return m
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
    """Checked finite-state chain with per-transition rewards.

    Also public as :func:`markov_model`.  The chain is given as d x d
    arrays, or as a :class:`~edgeworth.spectral.SparseMatrix` pair on one
    row-major pattern (as :func:`ulam_model` gives it), and is stored one
    way: the row-major coordinates ``rows``, ``cols`` of its transitions
    of positive probability with the values ``p`` and ``h`` on them, read
    through :meth:`entries`.  Every check runs on the given values; the
    caller's arrays are not modified, and entries of probability 0 leave
    the stored pattern with their rewards.

    Parameters
    ----------
    transition : array_like or SparseMatrix
        d x d row-stochastic transition matrix.
    observable : array_like or SparseMatrix
        d x d rewards on transitions; a SparseMatrix on the same pattern
        as ``transition``.
    mu0 : array_like
        Initial distribution of length d.

    Attributes
    ----------
    transition, observable : ndarray
        The checked chain as d x d arrays, formed anew on each access;
        ``observable`` is 0 wherever ``transition`` is.
    mu0 : ndarray
    lattice_span : float or None
        Span when every reward of a transition of positive probability is
        an integer multiple of it.

    Raises
    ------
    InconsistentDimensions
        If the shapes or patterns disagree.
    NonStochasticModel
        If P rows or mu0 fail to be probability vectors within 1e-12.
    ValidationError
        If any entry of P, h or mu0 is NaN or infinite.
    """

    __slots__ = ("_entries", "mu0", "lattice_span")

    def __init__(self, transition, observable, mu0):
        mu0 = np.asarray(mu0, dtype=float)
        if isinstance(transition, spectral.SparseMatrix):
            rows, cols, d = transition.rows, transition.cols, transition.dim
            if not (isinstance(observable, spectral.SparseMatrix) and observable.dim == d
                    and np.array_equal(observable.rows, rows)
                    and np.array_equal(observable.cols, cols)):
                raise InconsistentDimensions("observable must share the transition's pattern")
            P, h = transition.values, observable.values
            inside = np.all((rows >= 0) & (rows < d) & (cols >= 0) & (cols < d))
            if not (P.shape == h.shape == rows.shape and inside
                    and np.all(np.diff(rows * d + cols) > 0)):
                raise InconsistentDimensions(
                    "the pattern must list distinct entries of a d x d matrix in row-major order"
                )
            row_sums = np.bincount(rows, weights=P, minlength=d)
        else:
            P = np.asarray(transition, dtype=float)
            h = np.asarray(observable, dtype=float)
            if P.ndim != 2 or P.shape[0] != P.shape[1]:
                raise InconsistentDimensions("transition matrix must be square")
            if h.shape != P.shape:
                raise InconsistentDimensions(
                    f"observable shape {h.shape} differs from transition {P.shape}"
                )
            d = P.shape[0]
            row_sums = P.sum(axis=1)
            # every entry, in row-major order
            rows, cols = np.divmod(np.arange(P.size), d)
            P, h = P.ravel(), h.ravel()
        if mu0.shape != (d,):
            raise InconsistentDimensions(
                f"initial distribution length {mu0.shape} does not match dimension {d}"
            )
        for name, values in (("transition", P), ("observable", h), ("initial distribution", mu0)):
            if not np.all(np.isfinite(values)):
                raise ValidationError(f"{name} holds NaN or infinite entries")
        if np.any(P < 0) or np.any(mu0 < 0):
            raise NonStochasticModel("negative probabilities")
        if np.max(np.abs(row_sums - 1.0)) > 1e-12:
            raise NonStochasticModel("transition rows do not sum to 1 within 1e-12")
        if abs(mu0.sum() - 1.0) > 1e-12:
            raise NonStochasticModel("initial distribution does not sum to 1 within 1e-12")
        possible = P > 0
        self._entries = rows[possible], cols[possible], P[possible], h[possible]
        self.mu0 = mu0
        self.lattice_span = _lattice_span(self._entries[3])

    @property
    def dim(self):
        return self.mu0.size

    def entries(self):
        """``(rows, cols, p, h)`` of the transitions of positive
        probability, in row-major order: the chain as it is stored."""
        return self._entries

    def _matrix(self, values):
        rows, cols = self._entries[:2]
        return spectral.SparseMatrix(values, rows, cols, self.dim).toarray()

    @property
    def transition(self):
        return self._matrix(self._entries[2])

    @property
    def observable(self):
        return self._matrix(self._entries[3])

    def operator_family(self, order):
        """Taylor jets of the twisted family up to ``order``."""
        return spectral.build_operator_family(self, order)


markov_model = MarkovModel


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

    lattice_span = None

    def operator_family(self, order):
        """Jet family of the one entry ``(0, 0)`` from the stored moments.

        Raises
        ------
        InsufficientMoments
            If fewer than ``order`` moments are stored.
        """
        if order > self.moments.size:
            raise InsufficientMoments(
                f"order {order} requested but only {self.moments.size} moments stored"
            )
        coeffs = np.zeros((order + 1, 1))
        coeffs[0, 0] = 1.0
        fact = 1.0
        for k in range(1, order + 1):
            fact *= k
            # times 1/k!, as build_operator_family scales (see there)
            coeffs[k, 0] = self.moments[k - 1] * (1.0 / fact)
        # one entry, (0, 0)
        at = np.zeros(1, dtype=np.intp)
        return spectral.OperatorFamilyJet(coeffs, self.mu0, at, at)


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
    if moments.ndim != 1:
        raise ValidationError("moments must be a flat list")
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

    def __init__(self, transition, observable, mu0, map_kind, map_endpoints, g):
        super().__init__(transition, observable, mu0)
        self.map_kind = map_kind
        self.map_endpoints = np.asarray(map_endpoints, dtype=float)
        self.map_g_vec = g


# rows of the dense matrix that _row_sums rebuilds at a time
_ROW_BLOCK = 64


def _row_sums(rows, cols, values, n):
    """``P.sum(axis=1)`` of the n x n matrix with these row-major entries,
    equal to it bit for bit, without forming it.

    A row of at most two entries sums to the one rounding of their sum in
    any order, zeros being exact, so ``np.bincount`` serves it.  Rows with
    more entries are written into a block of ``_ROW_BLOCK`` zero rows and
    summed there by numpy, whose pairwise summation then groups them by
    column exactly as in the full matrix.
    """
    sums = np.bincount(rows, weights=values, minlength=n)
    counts = np.bincount(rows, minlength=n)
    busy = np.flatnonzero(counts > 2)
    sel = counts[rows] > 2
    at, cols, values = np.searchsorted(busy, rows[sel]), cols[sel], values[sel]
    block = np.zeros((min(_ROW_BLOCK, busy.size), n))
    for first in range(0, busy.size, _ROW_BLOCK):
        part = busy[first:first + _ROW_BLOCK]
        lo, hi = np.searchsorted(at, [first, first + part.size])
        cell = (at[lo:hi] - first, cols[lo:hi])
        block[cell] = values[lo:hi]
        sums[part] = block[:part.size].sum(axis=1)
        block[cell] = 0.0
    return sums


def ulam_model(map_kind="doubling", g=None, cells=1024, endpoints=None):
    """Discretized expanding interval map as a finite-state model.

    The unit interval splits into ``cells`` equal cells; the transition
    mass is the normalized length of ``cell_j intersect f^{-1}(cell_k)``
    and the observable is ``g`` at the midpoint of that intersection
    (mass-weighted across branches if several contribute).  The initial
    distribution is uniform.

    The chain is built straight on its nonzeros, about (slope + 1) per
    row, and handed to :class:`MarkovModel` as a ``SparseMatrix`` pair:
    no d x d array or temporary is formed.  The values equal those of the
    dense build bit for bit: the hits of an entry are added in branch and
    step order, starting from 0, and the row sums are those of
    ``P.sum(axis=1)`` (see :func:`_row_sums`).

    Parameters
    ----------
    map_kind : str
        "doubling" for x -> 2x mod 1, or "piecewise-linear" with
        ``endpoints`` giving full branches over [0, 1].
    g : callable
        Observable on [0, 1]; must accept numpy arrays.
    cells : int
        Number of cells, from 16 to ``MAX_ULAM_CELLS``.
    endpoints : sequence, optional
        Branch endpoints 0 = e_0 < ... < e_B = 1 for "piecewise-linear".

    Raises
    ------
    SlopeBelowOne
        If any branch has slope at most 1.
    ValidationError
        If ``g`` is missing, ``cells`` is out of range or the map is
        malformed.
    """
    if g is None:
        raise ValidationError("observable g is required")
    if cells < 16:
        raise ValidationError("at least 16 cells required")
    if cells > MAX_ULAM_CELLS:
        raise ValidationError(f"at most {MAX_ULAM_CELLS} cells supported, got {cells}")
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

    n = int(cells)
    edges = np.arange(n + 1) / n
    k = np.arange(n)
    # every hit: its flat index j * n + k, its mass and mass times g
    at, mass, gmass = [], [], []
    for lo_b, w_b in zip(endpoints, widths):
        # branch preimage of cell_k is lo_b + [k, k+1) * w_b / n; it is
        # shorter than one cell, so it meets cells j0 and j0 + 1, unless
        # rounding at a cell edge adds one more candidate
        plo = lo_b + edges[:-1] * w_b
        phi = lo_b + edges[1:] * w_b
        j0 = np.floor(plo * n).astype(np.intp)
        j1 = np.minimum(np.ceil(phi * n).astype(np.intp), n)
        for step in range(int(np.max(j1 - j0))):
            j = j0 + step
            cell = np.minimum(j, n - 1)
            lo = np.maximum(plo, edges[cell])
            hi = np.minimum(phi, edges[cell + 1])
            hit = (j < j1) & (hi > lo)
            lo, hi = lo[hit], hi[hit]
            at.append(j[hit] * n + k[hit])
            mass.append((hi - lo) * n)
            gmass.append(mass[-1] * g(0.5 * (lo + hi)))
    # a stable sort puts the hits in row-major order and keeps the hits of
    # one entry in branch and step order; bincount adds them in that order
    at = np.concatenate(at)
    order = np.argsort(at, kind="stable")
    at = at[order]
    first = np.ones(at.size, dtype=bool)
    first[1:] = at[1:] != at[:-1]
    entry = np.cumsum(first) - 1
    w = np.bincount(entry, weights=np.concatenate(mass)[order])
    # w holds the unnormalized masses, the weights of the h average
    h = np.bincount(entry, weights=np.concatenate(gmass)[order]) / w
    rows, cols = np.divmod(at[first], n)
    P = w / _row_sums(rows, cols, w, n)[rows]

    return UlamModel(
        spectral.SparseMatrix(P, rows, cols, n),
        spectral.SparseMatrix(h, rows, cols, n),
        np.full(n, 1.0 / n),
        map_kind,
        endpoints,
        g,
    )


_RESONANT_TOL = 1e-12


@dataclass(frozen=True)
class DiophantineScan:
    """Resonance scan: grid values of d(s) and the fitted lower envelope."""

    s: np.ndarray
    d: np.ndarray
    K: float
    beta: float
    residual: float

    @property
    def resonant(self):
        """Whether d(s) vanishes on the whole grid (within 1e-12)."""
        return bool(np.max(self.d) <= _RESONANT_TOL)


def _distinct_columns(a):
    """Columns of ``a`` sorted, with a mask marking each first occurrence."""
    a = np.sort(a, axis=0)
    first = np.ones(a.shape, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a, first


def diophantine_scan(h, s_grid):
    """Quantitative non-resonance scan of an observable matrix.

    For each grid frequency ``s`` the statistic is
    ``d(s) = max over (r, j, k) of ||(b_{r,j,k} - b_{r,1,k}) s||`` with
    ``b_{r,j,k} = h_{rj} + h_{jk}`` and ``||x|| = |x - rint(x)|`` the
    distance to the nearest integer, so ``d(s)`` lies in ``[0, 1/2]`` and
    a rounding residue in a difference reads as about 0, not about 1.
    The bound ``d(s) >= K |s|**-beta``
    is fitted by least squares on the running record minima of ``d``
    (the lower envelope), since only those constrain the bound.

    For a middle index ``j`` the differences are the sums ``u + v`` of
    the distinct entries ``u`` of column ``j`` of ``h - h[:, :1]`` and
    ``v`` of row ``j`` of ``h - h[:1, :]``; the scan takes one pass over
    ``j`` and holds ``len(s_grid)`` times one such set of sums at a time.

    Parameters
    ----------
    h : array_like
        d x d observable matrix with d >= 2.
    s_grid : array_like
        Frequencies, nonzero.

    Returns
    -------
    DiophantineScan

    Raises
    ------
    TooManyValues
        If the sums over all ``j`` number more than 10**7.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 2:
        raise InconsistentDimensions("observable matrix must be square with d >= 2")
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.size == 0 or np.any(s_grid == 0):
        raise ValidationError("frequency grid must be nonempty and nonzero")
    cols, col_first = _distinct_columns(h - h[:, :1])
    rows, row_first = _distinct_columns((h - h[:1, :]).T)
    sizes = col_first.sum(axis=0) * row_first.sum(axis=0)
    if sizes.sum() > _MAX_SCAN_SUMS:
        raise TooManyValues(
            f"resonance scan needs {int(sizes.sum())} reward differences, "
            f"budget {_MAX_SCAN_SUMS}"
        )
    dvals = np.zeros(s_grid.size)
    for j in range(h.shape[0]):
        diffs = np.add.outer(cols[col_first[:, j], j], rows[row_first[:, j], j]).ravel()
        x = np.multiply.outer(s_grid, diffs)
        np.maximum(dvals, np.abs(x - np.rint(x)).max(axis=1), out=dvals)

    if np.max(dvals) <= _RESONANT_TOL:
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
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown model {name!r}; available: {sorted(BUNDLED_MODELS)}"
        ) from None
    return builder()
