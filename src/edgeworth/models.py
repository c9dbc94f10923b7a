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
probability (:meth:`MarkovModel.entries`), and every consumer in the
package, the resonance scan included, reads it there.
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
    _as_index,
    _as_reals,
)
from . import oracle, spectral

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
    vals = oracle._distinct(np.asarray(h, dtype=float))
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
    ratios = vals / span
    if np.any(np.abs(ratios - np.rint(ratios)) > _SPAN_TOL):
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
    mu0 : array_like, optional
        Initial distribution of length d; None (the default) for the
        uniform one.

    Attributes
    ----------
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
        If an entry of P, h or mu0 is not a finite number
        (:func:`_as_reals`), or P is not a nonempty matrix.
    """

    __slots__ = ("_entries", "mu0", "lattice_span")

    def __init__(self, transition, observable, mu0=None):
        if isinstance(transition, spectral.SparseMatrix):
            rows, cols, d = transition.rows, transition.cols, transition.dim
            if not (isinstance(observable, spectral.SparseMatrix) and observable.dim == d
                    and np.array_equal(observable.rows, rows)
                    and np.array_equal(observable.cols, cols)):
                raise InconsistentDimensions("observable must share the transition's pattern")
            P = _as_reals("transition", transition.values)
            h = _as_reals("observable", observable.values)
            inside = np.all((rows >= 0) & (rows < d) & (cols >= 0) & (cols < d))
            if not (P.shape == h.shape == rows.shape and inside
                    and np.all(np.diff(rows * d + cols) > 0)):
                raise InconsistentDimensions(
                    "the pattern must list distinct entries of a d x d matrix in row-major order"
                )
        else:
            P, h = _as_reals("transition", transition), _as_reals("observable", observable)
            if P.ndim != 2 or P.shape[0] == 0:
                raise ValidationError("transition must be a nonempty matrix")
            if P.shape[0] != P.shape[1]:
                raise InconsistentDimensions("transition matrix must be square")
            if h.shape != P.shape:
                raise InconsistentDimensions(
                    f"observable shape {h.shape} differs from transition {P.shape}"
                )
            d = P.shape[0]
            # every entry, in row-major order
            rows, cols = np.divmod(np.arange(P.size), d)
            P, h = P.ravel(), h.ravel()
        mu0 = np.full(d, 1.0 / d) if mu0 is None else _as_reals("mu0", mu0)
        if mu0.shape != (d,):
            raise InconsistentDimensions(
                f"initial distribution length {mu0.shape} does not match dimension {d}"
            )
        if np.any(P < 0) or np.any(mu0 < 0):
            raise NonStochasticModel("negative probabilities")
        # each row summed in column order, whichever form the chain came in
        if np.max(np.abs(np.bincount(rows, weights=P, minlength=d) - 1.0)) > 1e-12:
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
        self.moments = _as_reals("moments", moments)
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
        order = _as_index("order", order, 2)
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
        pairs = _as_reals("pmf", pmf)
        if pairs.size == 0:
            raise ValidationError("empty pmf")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValidationError("pmf must list (value, probability) pairs")
        values, probs = np.ascontiguousarray(pairs.T)
        if np.any(probs < 0) or abs(math.fsum(probs) - 1.0) > 1e-12:
            raise ValidationError("pmf probabilities must be nonnegative and sum to 1")
        d = values.size
        P = np.tile(probs, (d, 1))
        h = np.tile(values, (d, 1))
        return markov_model(P, h, probs)
    moments = _as_reals("moments", moments)
    if moments.ndim != 1:
        raise ValidationError("moments must be a flat list")
    if moments.size < 2:
        raise InsufficientMoments("at least two moments required")
    _hankel_check(moments)
    return IidMomentModel(moments)


def pmf_moments(pmf, kmax):
    """Raw moments m_1 .. m_kmax of a finite pmf, exactly accumulated from
    Python floats."""
    pairs, kmax = _as_reals("pmf", pmf), _as_index("kmax", kmax, 1)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValidationError("pmf must list (value, probability) pairs")
    return [math.fsum(p * v ** k for v, p in pairs.tolist()) for k in range(1, kmax + 1)]


class UlamModel(MarkovModel):
    """Discretized interval map; keeps the map itself for Monte Carlo."""

    __slots__ = ("map_kind", "map_endpoints", "map_g_vec")

    def __init__(self, transition, observable, mu0, map_kind, map_endpoints, g):
        super().__init__(transition, observable, mu0)
        self.map_kind = map_kind
        self.map_endpoints = np.asarray(map_endpoints, dtype=float)
        self.map_g_vec = g


def ulam_model(map_kind="doubling", g=None, cells=1024, endpoints=None):
    """Discretized expanding interval map as a finite-state model.

    The unit interval splits into ``cells`` equal cells; the transition
    mass is the normalized length of ``cell_j intersect f^{-1}(cell_k)``
    and the observable is ``g`` at the midpoint of that intersection
    (mass-weighted across branches if several contribute).  The initial
    distribution is uniform.

    The chain is built straight on its nonzeros, about (slope + 1) per
    row, and handed to :class:`MarkovModel` as a ``SparseMatrix`` pair:
    no d x d array or temporary is formed.  The hits of an entry are added
    in branch and step order, starting from 0, and each row is normalized
    by the sum of its entries in column order, the ``np.bincount`` sum
    that :class:`MarkovModel` checks the rows with.

    Parameters
    ----------
    map_kind : str
        "doubling" for x -> 2x mod 1, or "piecewise-linear" with
        ``endpoints`` giving full branches over [0, 1].
    g : callable
        Observable on [0, 1]; must accept numpy arrays and act on them
        elementwise: its value at a point may not depend on the order or
        the length of the array the point comes in.  The Monte Carlo
        oracle evaluates it on tiles of trials, reordered by leading bits.
    cells : int
        Number of cells, from 16 to ``MAX_ULAM_CELLS``.
    endpoints : sequence, optional
        Branch endpoints 0 = e_0 < ... < e_B = 1 for "piecewise-linear".

    Raises
    ------
    SlopeBelowOne
        If any branch has slope at most 1.
    ValidationError
        If ``g`` is missing, ``cells`` is not an integer in range or the
        map is malformed.
    """
    if g is None:
        raise ValidationError("observable g is required")
    n = cells = _as_index("cells", cells)
    if cells < 16:
        raise ValidationError("at least 16 cells required")
    if cells > MAX_ULAM_CELLS:
        raise ValidationError(f"at most {MAX_ULAM_CELLS} cells supported, got {cells}")
    if endpoints is not None:  # read whatever the map
        endpoints = _as_reals("endpoints", endpoints)
        if endpoints.ndim != 1:
            raise ValidationError("endpoints must be a flat list")
    if map_kind == "doubling":
        endpoints = [0.0, 0.5, 1.0]
    elif map_kind == "piecewise-linear":
        if endpoints is None or endpoints.size < 2:
            raise ValidationError("piecewise-linear map needs branch endpoints")
        if endpoints[0] != 0.0 or endpoints[-1] != 1.0 or np.any(np.diff(endpoints) <= 0):
            raise ValidationError("endpoints must increase from 0 to 1")
    else:
        raise ValidationError(f"unknown map kind {map_kind!r}")

    widths = np.diff(endpoints)
    slopes = 1.0 / widths
    if np.any(slopes <= 1.0):
        raise SlopeBelowOne(f"branch slopes {slopes} must exceed 1")

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
    # np.unique numbers the entries in row-major order; bincount adds the
    # hits of each entry in the order they were appended, branch then step
    keys, entry = np.unique(np.concatenate(at), return_inverse=True)
    w = np.bincount(entry, weights=np.concatenate(mass))
    # w holds the unnormalized masses, the weights of the h average
    h = np.bincount(entry, weights=np.concatenate(gmass)) / w
    rows, cols = np.divmod(keys, n)
    P = w / np.bincount(rows, weights=w, minlength=n)[rows]

    return UlamModel(
        spectral.SparseMatrix(P, rows, cols, n),
        spectral.SparseMatrix(h, rows, cols, n),
        None,
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


def diophantine_scan(model, s_grid):
    """Quantitative non-resonance scan of a chain's rewards.

    For each grid frequency ``s`` the statistic is
    ``d(s) = max over (r, j, k) of ||(b_{r,j,k} - b_{r,1,k}) s||`` with
    ``b_{r,j,k} = h_{rj} + h_{jk}`` and ``||x|| = |x - rint(x)|`` the
    distance to the nearest integer, so ``d(s)`` lies in ``[0, 1/2]`` and
    a rounding residue in a difference reads as about 0, not about 1.
    The bound ``d(s) >= K |s|**-beta`` is fitted by least squares on the
    running record minima of ``d`` (the lower envelope), since only those
    constrain the bound.

    The rewards come from ``model.entries()``, 0 off the pattern: the
    triples include impossible paths, whose rewards read 0 (whether they
    belong in the statistic is open; on the doubling chain they put d(s)
    near 1/2).  For a middle state ``j`` the differences are the sums
    ``u + v`` of the distinct ``h_{rj} - h_{r1}`` over ``r`` and
    ``h_{jk} - h_{1k}`` over ``k``, each formed as a length-d vector; the
    scan holds ``len(s_grid)`` times one set of sums at a time.

    Parameters
    ----------
    model : MarkovModel
        Chain with d >= 2 states.
    s_grid : array_like
        Frequencies, nonzero.

    Returns
    -------
    DiophantineScan

    Raises
    ------
    ValidationError
        If ``model`` holds no chain, or a frequency is 0.
    InconsistentDimensions
        If the chain has fewer than 2 states.
    TooManyValues
        If the sums over all ``j`` number more than 10**7.
    """
    if not isinstance(model, MarkovModel):
        raise ValidationError("the resonance scan needs a finite-state chain")
    d = model.dim
    if d < 2:
        raise InconsistentDimensions("the resonance scan needs a chain with d >= 2 states")
    s_grid = _as_reals("s_grid", s_grid)
    if s_grid.size == 0 or np.any(s_grid == 0):
        raise ValidationError("frequency grid must be nonempty and nonzero")
    rows, cols, _, h = model.entries()
    # h[:, 0] and h[0, :], 0 off the pattern
    col0, row0 = np.zeros(d), np.zeros(d)
    col0[rows[cols == 0]], row0[cols[rows == 0]] = h[cols == 0], h[rows == 0]
    by_col = np.argsort(cols, kind="stable")
    col_end = np.searchsorted(cols[by_col], np.arange(d + 1))
    row_end = np.searchsorted(rows, np.arange(d + 1))
    sets = []
    for j in range(d):
        # 0.0 - x, not -x, so that a 0 off the pattern stays +0.0
        u, v = 0.0 - col0, 0.0 - row0
        into, out = by_col[col_end[j]:col_end[j + 1]], slice(row_end[j], row_end[j + 1])
        u[rows[into]] = h[into] - col0[rows[into]]
        v[cols[out]] = h[out] - row0[cols[out]]
        sets.append((oracle._distinct(u), oracle._distinct(v)))
    total = sum(u.size * v.size for u, v in sets)
    if total > _MAX_SCAN_SUMS:
        raise TooManyValues(f"resonance scan needs {total} reward differences, "
                            f"budget {_MAX_SCAN_SUMS}")
    dvals = np.zeros(s_grid.size)
    for u, v in sets:
        diffs = np.add.outer(u, v).ravel()
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
    s_abs, d_pos = np.abs(s_grid[order]), dvals[order]
    s_abs, d_pos = s_abs[d_pos > 0], d_pos[d_pos > 0]
    # the running record minima of the positive d(s), in order of |s|
    rec = d_pos < np.minimum.accumulate(np.append(np.inf, d_pos[:-1]))
    if rec.sum() < 2:
        return DiophantineScan(s_grid, dvals, float(d_pos.min()), 0.0, 0.0)
    X, Y = np.log(s_abs[rec]), np.log(d_pos[rec])
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
