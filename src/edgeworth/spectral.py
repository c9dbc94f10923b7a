"""Twisted operator families and their leading-eigenvalue perturbation data.

For a finite-state model the twisted operator is the matrix family
``L_t[j, k] = p_{jk} * exp(i t h_{jk})``.  The characteristic function of
the partial sums is ``E exp(i t S_N) = mu0^T L_t^N 1``.  This module
builds the Taylor jets of the family, extracts the leading eigenvalue jet
``mu(t)`` and the projected initial-data factor ``z(t)`` by order-by-order
perturbation around the Perron eigenpair at ``t = 0``, and provides the
numeric diagnostics (spectral gap, norm decay, radius scans) that justify
using the expansion machinery on a given model.

The family of every chain is stored on the chain's transitions of
positive probability (see :class:`~edgeworth.models.MarkovModel`).  One
rule, :func:`_sparse_path`, sorts a d x d chain with nnz such entries
onto one of two paths: at most one nonzero entry in eight
(``8 * nnz <= d**2``) takes the sparse path, every other chain the
dense path.

* Dense: each slice of the family is formed as a d x d array, the
  stationary vector comes from one linear solve, and one inverse of the
  bordered matrix serves every perturbation order.
* Sparse: every step uses matrix-vector products on the nonzeros alone.
  The stationary vector comes from power iteration with ``pi^T P``, the
  gap from power iteration on the deflated operator ``Q = P - 1 pi^T``,
  and each bordered system from a Neumann series in ``Q``.  No d x d
  array is allocated, unless an iteration runs out of its budget of
  ``_SPARSE_TERMS`` products (a slowly mixing chain); that step is then
  done the dense way.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BorderedSolveSingular,
    GapBelowTolerance,
    NegativeProbability,
    NonStochasticModel,
    SingularStationarySolve,
)
from .jets import jet_div, jet_mul

_GAP_TOL = 1e-8
# matrix-vector products one sparse iteration may take before the step is
# done the dense way
_SPARSE_TERMS = 1000
_EPS = np.finfo(float).eps


class SparseMatrix:
    """Real d x d matrix held on its nonzeros, in row-major coordinate form.

    ``rows`` and ``cols`` list distinct entries in row-major order, and
    ``values`` their values.  ``M @ x`` and ``x @ M`` are ``np.bincount``
    sums over ``values``, in the order of the entries;
    ``__array_ufunc__ = None`` makes numpy hand ``x @ M`` to
    :meth:`__rmatmul__`, and refuses every other numpy operation on it.
    """

    __slots__ = ("values", "rows", "cols", "dim")
    __array_ufunc__ = None

    def __init__(self, values, rows, cols, dim):
        self.values = values
        self.rows = rows
        self.cols = cols
        self.dim = dim

    @property
    def shape(self):
        return (self.dim, self.dim)

    def __matmul__(self, x):
        return np.bincount(self.rows, weights=self.values * x[self.cols], minlength=self.dim)

    def __rmatmul__(self, x):
        return np.bincount(self.cols, weights=x[self.rows] * self.values, minlength=self.dim)

    def toarray(self):
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.values
        return out


def _sparse_path(nnz, d):
    """Whether a d x d chain with ``nnz`` nonzero entries takes the sparse
    path: at most one entry in eight is nonzero.

    This is the one rule that picks a chain's path.  Since every row of a
    stochastic matrix has a nonzero, only chains with at least 8 states
    can qualify; every bundled chain but the Ulam one is dense.
    """
    return 8 * nnz <= d * d


class OperatorFamilyJet:
    """Taylor jets of the twisted family ``L_t``, on the chain's nonzeros.

    ``coeffs`` is one real C-contiguous ``(order+1, nnz)`` array: slice
    ``m`` is ``P * h**m / m!`` on the transitions of positive probability,
    whose row and column indices are ``rows`` and ``cols`` in row-major
    order.  The ``t**m`` coefficient of ``L_t`` is ``i**m`` times it, with
    the factor ``i**m`` left implicit, and entries of ``L_t`` off the
    pattern are zero.

    :meth:`matrix` returns one slice as a matrix of the chain's path (see
    the module docstring).  The initial distribution of the originating
    model rides along because the projected factor ``z(t)`` needs it; its
    length is the dimension.
    """

    __slots__ = ("coeffs", "dim", "mu0", "rows", "cols")

    def __init__(self, coeffs, mu0, rows, cols):
        self.coeffs = np.ascontiguousarray(coeffs, dtype=float)
        self.mu0 = np.asarray(mu0, dtype=float)
        self.rows = rows
        self.cols = cols
        if self.coeffs.ndim != 2 or not self.coeffs.shape[1] == len(rows) == len(cols):
            raise ValueError("expected an (order+1, nnz) coefficient array")
        self.dim = self.mu0.size

    @property
    def order(self):
        return self.coeffs.shape[0] - 1

    @property
    def sparse(self):
        """Whether the family takes the sparse path (:func:`_sparse_path`)."""
        return _sparse_path(self.rows.size, self.dim)

    def matrix(self, m):
        """Slice ``m``: a :class:`SparseMatrix` on the sparse path, a dense
        ``(d, d)`` array formed from the nonzeros on the dense path."""
        M = SparseMatrix(self.coeffs[m], self.rows, self.cols, self.dim)
        return M if self.sparse else M.toarray()


class PerronBase:
    """Perron eigendata of the untwisted matrix: right = 1, left = pi."""

    __slots__ = ("right", "left", "gap")

    def __init__(self, right, left, gap):
        self.right = np.asarray(right, dtype=float)
        self.left = np.asarray(left, dtype=float)
        self.gap = float(gap)


class SpectralJets:
    """Leading-eigenvalue jet ``mu``, projected factor ``z`` and the
    eigenvector jets that produced them.

    ``mu`` and ``z`` are complex ``(s+1,)`` arrays and ``right_jet`` and
    ``left_jet`` complex ``(s+1, d)`` arrays; row ``m`` of each is the
    ``t**m`` coefficient.  ``neumann_terms`` is the largest number of
    Neumann terms a bordered solve took on the sparse path, or ``None``
    when the solves used the dense inverse (the dense path, or a series
    that ran out of its budget).
    """

    __slots__ = ("mu", "z", "right_jet", "left_jet", "base", "neumann_terms")

    def __init__(self, mu, z, right_jet, left_jet, base, neumann_terms=None):
        self.mu = mu
        self.z = z
        self.right_jet = right_jet
        self.left_jet = left_jet
        self.base = base
        self.neumann_terms = neumann_terms


def _validate_stochastic(P):
    """Check a raw transition matrix given to :func:`perron_base`."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise NonStochasticModel("transition matrix must be square")
    if np.any(P < -1e-12):
        raise NegativeProbability("negative transition probability")
    rows = P.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > 1e-10:
        raise NonStochasticModel(
            f"row sums deviate from 1 by {np.max(np.abs(rows - 1.0)):.3e}"
        )
    return P


def build_operator_family(model, order):
    """Taylor jets of ``L_t`` for a finite-state model.

    Entry ``(j, k)`` carries the series of ``p_{jk} exp(i t h_{jk})``
    truncated at ``order``, stored without its factors ``i**m`` (see
    :class:`OperatorFamilyJet`).  The model is a
    :class:`~edgeworth.models.MarkovModel`, checked when it was built, and
    the family takes the pattern of ``model.entries()`` as it stands.
    """
    if order < 2:
        raise ValueError("jet order must be at least 2")
    rows, cols, P, h = model.entries()
    coeffs = np.empty((order + 1, P.size))
    term = np.ones(P.size)
    coeffs[0] = P
    for m in range(1, order + 1):
        # multiplying by 1/m, not dividing by m, makes each slice equal bit
        # for bit to the modulus of P * (ih)**m / m! computed in complex
        # arithmetic, where numpy divides by a real through its reciprocal
        term *= h
        term *= 1.0 / m
        np.multiply(P, term, out=coeffs[m])
    return OperatorFamilyJet(coeffs, model.mu0, rows, cols)


def evaluate_family(model, t):
    """The concrete complex d x d matrix ``L_t`` (exact, no truncation),
    with the exponential taken on the nonzeros only."""
    rows, cols, P, h = model.entries()
    Lt = np.zeros((model.dim, model.dim), dtype=complex)
    Lt[rows, cols] = P * np.exp(1j * t * h)
    return Lt


def _power_stationary(P):
    """Stationary vector of a sparse chain by power iteration with
    ``pi^T P`` from the uniform vector, or ``None`` when it has not
    settled to rounding level within ``_SPARSE_TERMS`` products."""
    pi = np.full(P.dim, 1.0 / P.dim)
    for _ in range(_SPARSE_TERMS):
        nxt = pi @ P
        nxt /= nxt.sum()
        # 4 ulps: at the fixed point rounding can keep an entry toggling by
        # an ulp or two (three-branch Ulam maps at 1000-3000 cells do)
        if np.max(np.abs(nxt - pi)) <= 4.0 * _EPS * np.max(nxt):
            return nxt
        pi = nxt
    return None


def _stationary(P):
    """Stationary distribution of a validated chain, checked and clipped.

    A sparse chain first tries :func:`_power_stationary`.  The dense solve
    of ``pi^T (P - I) = 0``, with the normalization row replacing the last
    equation, serves every dense chain and a sparse one whose iteration
    ran out of budget.
    """
    pi = _power_stationary(P) if isinstance(P, SparseMatrix) else None
    if pi is None:
        dense = P.toarray() if isinstance(P, SparseMatrix) else P
        d = dense.shape[0]
        M = (dense - np.eye(d)).T
        M[-1, :] = 1.0
        b = np.zeros(d)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(M, b)
        except np.linalg.LinAlgError as exc:
            raise SingularStationarySolve(str(exc)) from exc
        if not np.all(np.isfinite(pi)):
            raise SingularStationarySolve("stationary solve produced non-finite entries")
    resid = np.max(np.abs(pi @ P - pi))
    if resid > 1e-10 or np.min(pi) < -1e-10:
        raise SingularStationarySolve(
            f"stationary residual {resid:.3e}, min entry {np.min(pi):.3e}"
        )
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return pi


def perron_base(P):
    """Stationary data of a stochastic matrix.

    ``P`` is a transition matrix, or a :class:`SparseMatrix` (slice 0 of
    a family on the sparse path), trusted as checked.  A matrix is checked
    and takes the path that :func:`_sparse_path` picks for it.  The right
    Perron vector is the all-ones vector (exact); the left one comes from
    :func:`_stationary`.
    The spectral gap is estimated by power iteration on the deflated
    operator ``P - 1 (x) pi``, applied as ``Px - 1 (pi . x)`` on the
    sparse path.
    """
    if not isinstance(P, SparseMatrix):
        P = _validate_stochastic(P)
        if _sparse_path(np.count_nonzero(P), P.shape[0]):
            pattern = np.nonzero(P)
            P = SparseMatrix(P[pattern], *pattern, P.shape[0])
    right = np.ones(P.shape[0])
    pi = _stationary(P)
    if isinstance(P, SparseMatrix):
        rho = _power_radius(lambda x: P @ x - pi @ x, P.dim)
    else:
        rho = power_radius(P - np.outer(right, pi))
    gap = 1.0 - rho
    if gap < _GAP_TOL:
        raise GapBelowTolerance(f"spectral gap estimate {gap:.3e} below {_GAP_TOL}")
    return PerronBase(right, pi, gap)


def power_radius(M):
    """Spectral-radius estimate by power iteration.

    With a strictly dominant eigenvalue the norm-growth ratio converges
    and is returned directly.  When two moduli are (nearly) tied the
    ratio keeps oscillating; the telescoped geometric mean over the
    trailing half of the run averages the beats out.  The run stops after
    200 steps, or once two successive ratios agree within 1e-10
    (relative).  A real matrix is iterated in real arithmetic, a complex
    one in complex arithmetic.
    """
    M = np.asarray(M)
    return _power_radius(M.__matmul__, M.shape[0], np.result_type(M.dtype, float))


def _power_radius(apply, d, dtype=float):
    """:func:`power_radius` of the linear map ``apply`` on ``d``-vectors."""
    # deterministic start vector (1, 1/2, 1/3, ...)
    x = (1.0 / np.arange(1.0, d + 1.0)).astype(dtype)
    x /= np.linalg.norm(x)
    ratios = []
    for _ in range(200):
        y = apply(x)
        r = np.linalg.norm(y)
        if r < 1e-300:
            return 0.0
        ratios.append(r)
        x = y / r
        if len(ratios) >= 2 and abs(ratios[-1] - ratios[-2]) <= 1e-10 * max(1.0, ratios[-1]):
            return float(ratios[-1])
    tail = ratios[len(ratios) // 2 :]
    return float(np.exp(np.mean(np.log(tail))))


def _bordered_inverse(P, base):
    """Inverse of ``B = [[P - I, -right], [pi^T, 0]]``.

    ``D B^T D`` with ``D = diag(1, ..., 1, -1)`` is the bordered matrix
    ``[[P^T - I, -pi], [right^T, 0]]`` of the left system, so
    ``D Binv^T D`` inverts it and one inverse serves both sides.
    """
    d = P.shape[0]
    B = np.zeros((d + 1, d + 1))
    B[:d, :d] = P
    B[np.arange(d), np.arange(d)] -= 1.0
    B[:d, d] = -base.right
    B[d, :d] = base.left
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise BorderedSolveSingular(str(exc)) from exc
    if not np.all(np.isfinite(Binv)):
        raise BorderedSolveSingular("bordered inverse not finite")
    return Binv


class _BorderedSolver:
    """Right and left bordered solves of :func:`eigen_perturbation`.

    A dense ``P`` is inverted once (:func:`_bordered_inverse`); every
    right-hand side has gauge entry 0, so the right solve is
    ``Binv[:, :d] @ r`` and the left one ``r @ Binv[:d, :d]``.

    A :class:`SparseMatrix` is solved by Neumann series in the deflated
    operator ``Q = P - 1 pi^T``.  The right system ``(P - I) v - mu 1 = r``,
    ``pi . v = 0`` gives ``mu = -pi . r`` and
    ``v = -sum_j Q^j (r - (pi . r) 1)``; the left system
    ``w (P - I) - nu pi = r``, ``1 . w = 0`` gives
    ``w = -sum_j (r - (1 . r) pi) Q^j``.  A series stops at the first term
    whose largest entry is at rounding level (machine epsilon) relative to
    its partial sum.  A series that has not stopped after
    ``_SPARSE_TERMS`` terms is discarded, and that system and every later
    one are solved with the dense inverse.
    """

    def __init__(self, P, base):
        self.P = P
        self.base = base
        self.Binv = None if isinstance(P, SparseMatrix) else _bordered_inverse(P, base)
        self.terms = 0

    def _neumann(self, step, x):
        total = x.copy()
        for k in range(1, _SPARSE_TERMS + 1):
            x = step(x)
            total += x
            if np.max(np.abs(x)) <= _EPS * np.max(np.abs(total)):
                self.terms = max(self.terms, k)
                return -total
        return None

    def _dense(self):
        if self.Binv is None:
            self.Binv = _bordered_inverse(self.P.toarray(), self.base)
        return self.Binv

    def right(self, rhs):
        """``(v, mu)`` of the right system."""
        P, pi = self.P, self.base.left
        if self.Binv is None:
            mu = -(pi @ rhs)
            v = self._neumann(lambda x: P @ x - pi @ x, rhs + mu)
            if v is not None:
                return v, mu
        sol = self._dense()[:, : P.shape[0]] @ rhs
        return sol[:-1], sol[-1]

    def left(self, rhs):
        """``w`` of the left system."""
        P, pi = self.P, self.base.left
        if self.Binv is None:
            w = self._neumann(lambda y: y @ P - y.sum() * pi, rhs - rhs.sum() * pi)
            if w is not None:
                return w
        d = P.shape[0]
        return rhs @ self._dense()[:d, :d]


def eigen_perturbation(fam, base):
    """Order-by-order perturbation of the Perron eigenpair.

    Collecting ``t**m`` coefficients of ``L_t v_t = mu(t) v_t`` gives a
    singular system in ``v^(m)`` with the unknown ``mu^(m)`` multiplying
    the base right vector; both are recovered at once from the bordered
    system ``[[L0 - I, -right], [pi^T, 0]]`` whose gauge row pins
    ``pi . v^(m) = 0`` for m >= 1.

    The left jet solves the transposed family with the analogous bordered
    system (gauge ``1 . w^(m) = 0``) and is normalized so that
    ``l_t(v_t) = 1`` identically; the projected factor is
    ``z(t) = (l_t . 1) * (mu0 . v_t)``.  The bordered systems are solved
    with one dense inverse or, on the sparse path, by Neumann series (see
    :class:`_BorderedSolver`).

    The coefficients of ``L_t`` are ``i**m`` times the real ``coeffs[m]``,
    so every jet is ``i**m`` times a real one: ``v^(m) = i**m a_m``,
    ``mu^(m) = i**m b_m`` and ``w^(m) = i**m c_m``.  The recursion runs
    on ``a``, ``b`` and ``c`` in real arithmetic, and the factors
    ``i**m`` are applied once at the end.
    """
    if base.gap <= _GAP_TOL:
        raise GapBelowTolerance(f"gap {base.gap:.3e} too small for perturbation")
    d = fam.dim
    s = fam.order
    F = [fam.matrix(m) for m in range(s + 1)]
    solver = _BorderedSolver(F[0], base)

    a = np.zeros((s + 1, d))
    b = np.zeros(s + 1)
    c = np.zeros((s + 1, d))
    a[0] = base.right
    b[0] = 1.0
    c[0] = base.left
    for m in range(1, s + 1):
        rhs_a = np.zeros(d)
        rhs_c = np.zeros(d)
        for j in range(1, m):
            rhs_a += b[j] * a[m - j]
            rhs_c += b[j] * c[m - j]
        for j in range(1, m + 1):
            rhs_a -= F[j] @ a[m - j]
            rhs_c -= c[m - j] @ F[j]
        a[m], b[m] = solver.right(rhs_a)
        c[m] = solver.left(rhs_c)

    # normalize l_t(v_t) = 1: the pairing is sum_j c_j . a_{m-j}
    pairing = np.array([sum(c[j] @ a[m - j] for j in range(m + 1)) for m in range(s + 1)])
    one = np.zeros(s + 1)
    one[0] = 1.0
    inv = jet_div(one, pairing).real
    left = np.array([sum(inv[j] * c[m - j] for j in range(m + 1)) for m in range(s + 1)])

    # z(t) = (l_t . ones) * (mu0 . v_t)
    z = jet_mul(left.sum(axis=1), a @ fam.mu0).real

    ipow = 1j ** np.arange(s + 1)
    return SpectralJets(
        ipow * b,
        ipow * z,
        ipow[:, None] * a,
        ipow[:, None] * left,
        base,
        None if solver.Binv is not None else solver.terms,
    )


def norm_decay_scan(model, t_grid, N):
    """Table of (t, ||L_t^N||_inf, spectral-radius estimate) over a grid."""
    if len(t_grid) == 0:
        raise ValueError("empty t grid")
    if N < 1:
        raise ValueError("N must be at least 1")
    rows = []
    for t in t_grid:
        Lt = evaluate_family(model, t)
        power = np.linalg.matrix_power(Lt, N)
        inf_norm = float(np.max(np.abs(power).sum(axis=1)))
        rows.append((float(t), inf_norm, power_radius(Lt)))
    return rows
