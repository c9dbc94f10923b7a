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
positive probability (see :class:`~edgeworth.models.MarkovModel`), and
:func:`perron_base` and :func:`eigen_perturbation` take the family,
never a d x d matrix: the chain was checked once, when its model was
built.  One rule, :func:`_sparse_path` (a family reads it as
:attr:`OperatorFamilyJet.sparse`), sorts a d x d chain
with nnz such entries onto one of two paths for them: at most one
nonzero entry in eight takes the sparse path, every other chain the
dense path.

On both paths the gap comes from power iteration on the deflated
operator ``Q = P - 1 pi^T``, applied to a vector as ``Px - 1 (pi . x)``;
``Q`` itself is never formed.

* Dense: each slice of the family is formed as a d x d array, the
  stationary vector comes from one linear solve, and one inverse of the
  bordered matrix serves every perturbation order.
* Sparse: every step uses matrix-vector products on the nonzeros alone.
  The stationary vector comes from power iteration with ``pi^T P`` and
  each bordered system from a Neumann series in ``Q``.  No d x d array
  is allocated, unless an iteration runs out of its budget of
  ``_SPARSE_TERMS`` products (a slowly mixing chain); that step is then
  done the dense way.

The norm and radius scan :func:`norm_decay_scan` reads the chain's
entries and takes the same rule for how ``L_t`` is held: a dense chain
as a d x d array, a sparse one as a :class:`SparseMatrix`.  One powering
loop serves both; on the sparse path ``L_t^N`` stays on its own pattern
up to the first product that would take more than d * d path products.
"""

from __future__ import annotations

import numpy as np

from .errors import (BorderedSolveSingular, GapBelowTolerance, SingularStationarySolve,
                     ValidationError, _as_index, _as_reals)
from .jets import jet_div, jet_mul

_GAP_TOL = 1e-8
# matrix-vector products one sparse iteration may take before the step is
# done the dense way
_SPARSE_TERMS = 1000
_EPS = np.finfo(float).eps
# path products one block of a pattern product holds at once (4 MiB of
# complex values)
_PRODUCTS = 1 << 18


def _sparse_path(nnz, d):
    """The path rule: a d x d chain with ``nnz`` nonzero entries takes the
    sparse path when at most one entry in eight is nonzero."""
    return 8 * nnz <= d * d


def _entry_sum(idx, terms, n):
    """``np.bincount(idx, terms, n)`` of real or complex terms: a complex
    sum is taken as its real and imaginary parts apart, each in the order
    of the terms."""
    if not np.iscomplexobj(terms):
        return np.bincount(idx, terms, n)
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(idx, terms.real, n)
    out.imag = np.bincount(idx, terms.imag, n)
    return out


class SparseMatrix:
    """Real or complex d x d matrix held on its nonzeros, in row-major
    coordinate form.

    ``rows`` and ``cols`` list distinct entries in row-major order, and
    ``values`` their values.  ``M @ x`` and ``x @ M`` are ``np.bincount``
    sums over the entries' terms, in the order of the entries; a complex
    sum is taken as its real and imaginary parts apart.
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
        return _entry_sum(self.rows, self.values * x[self.cols], self.dim)

    def __rmatmul__(self, x):
        return _entry_sum(self.cols, x[self.rows] * self.values, self.dim)

    def toarray(self):
        out = np.zeros(self.shape, dtype=self.values.dtype)
        out[self.rows, self.cols] = self.values
        return out


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
        """Whether the family takes the sparse path: at most one entry in
        eight of its d x d matrices is nonzero.

        This is the one rule that picks a chain's path.  Since every row
        of a stochastic matrix has a nonzero, only chains with at least 8
        states can qualify; every bundled chain but the Ulam one is dense.
        """
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


def build_operator_family(model, order):
    """Taylor jets of ``L_t`` for a finite-state model.

    Entry ``(j, k)`` carries the series of ``p_{jk} exp(i t h_{jk})``
    truncated at ``order``, stored without its factors ``i**m`` (see
    :class:`OperatorFamilyJet`).  The model is a
    :class:`~edgeworth.models.MarkovModel`, checked when it was built, and
    the family takes the pattern of ``model.entries()`` as it stands.  A
    coefficient that overflows is refused with a ``ValidationError``.
    """
    order = _as_index("order", order, 2)
    rows, cols, P, h = model.entries()
    coeffs = np.empty((order + 1, P.size))
    term = np.ones(P.size)
    coeffs[0] = P
    with np.errstate(over="ignore"):  # refused below, by name
        for m in range(1, order + 1):
            # multiplying by 1/m, not dividing by m, makes each slice equal bit
            # for bit to the modulus of P * (ih)**m / m! computed in complex
            # arithmetic, where numpy divides by a real through its reciprocal
            term *= h
            term *= 1.0 / m
            np.multiply(P, term, out=coeffs[m])
    if not np.isfinite(coeffs).all():
        raise ValidationError(f"operator family overflows: p h**m / m! is inf at some m <= {order}")
    return OperatorFamilyJet(coeffs, model.mu0, rows, cols)


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
        if abs(nxt - pi).max() <= 4.0 * _EPS * nxt.max():
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


def perron_base(fam):
    """Stationary data of the untwisted matrix of an operator family.

    ``fam`` is an :class:`OperatorFamilyJet`, built from a model that was
    checked when it was built; its slice 0, the transition matrix, is read
    as :meth:`OperatorFamilyJet.matrix` gives it on the family's path.
    The right Perron vector is the all-ones vector (exact); the left one
    comes from :func:`_stationary`.
    The spectral gap is estimated by power iteration on the deflated
    operator ``Q = P - 1 pi^T``, applied as ``Px - 1 (pi . x)`` on either
    path, so ``Q`` is never formed.
    """
    P = fam.matrix(0)
    pi = _stationary(P)
    rho = _power_radius(lambda x: P @ x - pi @ x, fam.dim)
    gap = 1.0 - rho
    if gap < _GAP_TOL:
        raise GapBelowTolerance(f"spectral gap estimate {gap:.3e} below {_GAP_TOL}")
    return PerronBase(np.ones(fam.dim), pi, gap)


def _power_radius(apply, d, dtype=float):
    """Spectral-radius estimate of the linear map ``apply`` on
    ``d``-vectors by power iteration, in the arithmetic of ``dtype``.

    With a strictly dominant eigenvalue the norm-growth ratio converges
    and is returned directly.  When two moduli are (nearly) tied the
    ratio keeps oscillating; the telescoped geometric mean over the
    trailing half of the run averages the beats out.  The run stops after
    200 steps, or once two successive ratios agree within 1e-10
    (relative).
    """
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
            if abs(x).max() <= _EPS * abs(total).max():
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


def _pattern_product(a, b):
    """Product of two :class:`SparseMatrix` factors, on its own pattern.

    Every entry (i, j) of ``a`` meets each entry (j, k) of ``b``;
    ``np.unique`` pools the products of equal (i, k) and
    :func:`_entry_sum` sums them, each pair adding its middle states j in
    index order.  The product comes back as a :class:`SparseMatrix`, in
    row-major order.  The rows of ``a`` are taken in blocks of at most
    ``_PRODUCTS`` products (or one row), so the up to d * d products that
    :func:`_product` allows are never held at once.
    """
    d = a.dim
    count = np.bincount(b.rows, minlength=d)
    # the entries of row j of b are first[j] : first[j] + count[j]
    first = np.cumsum(count) - count
    step = max(1, _PRODUCTS // int(np.bincount(a.rows, count[a.cols]).max()))
    bounds = np.searchsorted(a.rows, np.arange(0, d + step, step))
    parts = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        n = count[a.cols[lo:hi]]
        left = np.repeat(np.arange(lo, hi), n)
        right = np.arange(left.size) + np.repeat(first[a.cols[lo:hi]] - (np.cumsum(n) - n), n)
        pairs, pair = np.unique(a.rows[left] * d + b.cols[right], return_inverse=True)
        parts.append((_entry_sum(pair, a.values[left] * b.values[right], pairs.size),
                      *np.divmod(pairs, d)))
    return SparseMatrix(*(np.concatenate(part) for part in zip(*parts)), d)


def _product(a, b):
    """``a @ b`` for factors held as :class:`SparseMatrix` or d x d arrays.

    Two :class:`SparseMatrix` factors are multiplied by
    :func:`_pattern_product` while that takes at most d * d path products.
    A larger product, or one with a d x d factor, is formed by BLAS on
    d x d arrays, at d**3 multiply-adds however many of them are zero: the
    powers of an Ulam chain fill their pattern (the doubling map's
    ``L_t^N`` reaches 2**N cells from each), and their products on the
    pattern would grow towards d**3 path products in numpy.
    """
    if isinstance(a, SparseMatrix) and isinstance(b, SparseMatrix):
        if np.bincount(b.rows, minlength=b.dim)[a.cols].sum() <= b.dim ** 2:
            return _pattern_product(a, b)
    a, b = (m.toarray() if isinstance(m, SparseMatrix) else m for m in (a, b))
    return a @ b


def norm_decay_scan(model, t_grid, N):
    """Table of (t, ||L_t^N||_inf, spectral-radius estimate) over a grid.

    ``L_t`` is ``p * exp(i t h)`` on the entries of ``model.entries()``,
    held as a complex :class:`SparseMatrix`.  :func:`_sparse_path` picks
    only how it is held: a dense chain takes it as a d x d array
    (:meth:`SparseMatrix.toarray`).  Either way ``L_t^N`` is formed by
    binary powering, each product taken by :func:`_product`, and the
    radius is :func:`_power_radius` of ``L_t`` in complex arithmetic.
    """
    t_grid, N = _as_reals("t_grid", t_grid), _as_index("N", N, 1)
    if t_grid.size == 0:
        raise ValidationError("empty t grid")
    if t_grid.ndim != 1:
        raise ValidationError("t_grid must be a flat list of frequencies")
    rows, cols, P, h = model.entries()
    d = model.dim
    sparse = _sparse_path(rows.size, d)
    out = []
    for t in t_grid:
        L = SparseMatrix(P * np.exp(1j * t * h), rows, cols, d)
        if not sparse:
            L = L.toarray()
        # the squares of L_t, multiplied into the power by the bits of N
        power = square = None
        n = N
        while n:
            square = L if square is None else _product(square, square)
            n, bit = divmod(n, 2)
            if bit:
                power = square if power is None else _product(power, square)
        radius = _power_radius(L.__matmul__, d, complex)
        if isinstance(power, SparseMatrix):
            row_sums = np.bincount(power.rows, np.abs(power.values), d)
        else:
            row_sums = np.abs(power).sum(axis=1)
        out.append((float(t), float(np.max(row_sums)), radius))
    return out
