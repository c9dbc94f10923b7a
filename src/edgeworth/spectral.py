"""Twisted operator families and their leading-eigenvalue perturbation data.

For a finite-state model the twisted operator is the matrix family
``L_t[j, k] = p_{jk} * exp(i t h_{jk})``.  The characteristic function of
the partial sums is ``E exp(i t S_N) = mu0^T L_t^N 1``.  This module
builds the Taylor jets of the family, extracts the leading eigenvalue jet
``mu(t)`` and the projected initial-data factor ``z(t)`` by order-by-order
perturbation around the Perron eigenpair at ``t = 0``, and provides the
numeric diagnostics (spectral gap, norm decay, radius scans) that justify
using the expansion machinery on a given model.
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


class OperatorFamilyJet:
    """Taylor jets of the twisted family ``L_t``, stored densely.

    ``coeffs`` is one real C-contiguous ``(order+1, d, d)`` array whose
    slice ``coeffs[m]`` is ``P * h**m / m!``; the ``t**m`` coefficient of
    ``L_t`` is ``i**m * coeffs[m]``, with the factor ``i**m`` left
    implicit.  The initial distribution of the originating model rides
    along because the projected factor ``z(t)`` needs it.
    """

    __slots__ = ("coeffs", "dim", "mu0")

    def __init__(self, coeffs, mu0):
        self.coeffs = np.ascontiguousarray(coeffs, dtype=float)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1] != self.coeffs.shape[2]:
            raise ValueError("expected an (order+1, d, d) coefficient array")
        self.dim = self.coeffs.shape[1]
        self.mu0 = np.asarray(mu0, dtype=float)

    @property
    def order(self):
        return self.coeffs.shape[0] - 1


class PerronBase:
    """Perron eigendata of the untwisted matrix: right = 1, left = pi."""

    __slots__ = ("mu0_eig", "right", "left", "gap")

    def __init__(self, right, left, gap):
        self.mu0_eig = 1.0 + 0.0j
        self.right = np.asarray(right, dtype=float)
        self.left = np.asarray(left, dtype=float)
        self.gap = float(gap)


class SpectralJets:
    """Leading-eigenvalue jet ``mu``, projected factor ``z`` and the
    eigenvector jets that produced them.

    ``mu`` and ``z`` are complex ``(s+1,)`` arrays and ``right_jet`` and
    ``left_jet`` complex ``(s+1, d)`` arrays; row ``m`` of each is the
    ``t**m`` coefficient.
    """

    __slots__ = ("mu", "z", "right_jet", "left_jet", "base")

    def __init__(self, mu, z, right_jet, left_jet, base):
        self.mu = mu
        self.z = z
        self.right_jet = right_jet
        self.left_jet = left_jet
        self.base = base


def _validate_stochastic(P, tol_row=1e-10):
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise NonStochasticModel("transition matrix must be square")
    if np.any(P < -1e-12):
        raise NegativeProbability("negative transition probability")
    rows = P.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > tol_row:
        raise NonStochasticModel(
            f"row sums deviate from 1 by {np.max(np.abs(rows - 1.0)):.3e}"
        )
    return P


def build_operator_family(model, order):
    """Taylor jets of ``L_t`` for a finite-state model.

    Entry ``(j, k)`` carries the series of ``p_{jk} exp(i t h_{jk})``
    truncated at ``order``, stored without its factors ``i**m`` (see
    :class:`OperatorFamilyJet`).
    """
    P = _validate_stochastic(model.transition)
    h = np.asarray(model.observable, dtype=float)
    if order < 2:
        raise ValueError("jet order must be at least 2")
    if h.shape != P.shape:
        raise NonStochasticModel("observable matrix shape differs from transition")
    d = P.shape[0]
    coeffs = np.empty((order + 1, d, d))
    term = np.ones((d, d))
    coeffs[0] = P
    for m in range(1, order + 1):
        # multiplying by 1/m, not dividing by m, makes each slice equal bit
        # for bit to the modulus of P * (ih)**m / m! computed in complex
        # arithmetic, where numpy divides by a real through its reciprocal
        term *= h
        term *= 1.0 / m
        np.multiply(P, term, out=coeffs[m])
    return OperatorFamilyJet(coeffs, model.mu0)


def evaluate_family(model, t):
    """The concrete complex matrix ``L_t`` (exact, no truncation)."""
    P = np.asarray(model.transition, dtype=float)
    h = np.asarray(model.observable, dtype=float)
    return P * np.exp(1j * t * h)


def perron_base(P):
    """Stationary data of a stochastic matrix.

    The right Perron vector is the all-ones vector (exact).  The left
    vector solves ``pi^T (P - I) = 0`` with the normalization row
    replacing the last equation.  The spectral gap is estimated by power
    iteration on the deflated operator ``P - 1 (x) pi``.
    """
    P = _validate_stochastic(P)
    d = P.shape[0]
    right = np.ones(d)

    M = (P - np.eye(d)).T
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

    deflated = P - np.outer(right, pi)
    rho = power_radius(deflated)
    gap = 1.0 - rho
    if gap < _GAP_TOL:
        raise GapBelowTolerance(f"spectral gap estimate {gap:.3e} below {_GAP_TOL}")
    return PerronBase(right, pi, gap)


def power_radius(M, iters=200, tol=1e-10):
    """Spectral-radius estimate by power iteration.

    With a strictly dominant eigenvalue the norm-growth ratio converges
    and is returned directly.  When two moduli are (nearly) tied the
    ratio keeps oscillating; the telescoped geometric mean over the
    trailing half of the run averages the beats out.  A real matrix is
    iterated in real arithmetic, a complex one in complex arithmetic.
    """
    M = np.asarray(M)
    d = M.shape[0]
    # deterministic start vector (1, 1/2, 1/3, ...)
    x = (1.0 / np.arange(1.0, d + 1.0)).astype(np.result_type(M.dtype, float))
    x /= np.linalg.norm(x)
    ratios = []
    for _ in range(iters):
        y = M @ x
        r = np.linalg.norm(y)
        if r < 1e-300:
            return 0.0
        ratios.append(r)
        x = y / r
        if len(ratios) >= 2 and abs(ratios[-1] - ratios[-2]) <= tol * max(1.0, ratios[-1]):
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
    ``z(t) = (l_t . 1) * (mu0 . v_t)``.

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
    F = fam.coeffs
    Binv = _bordered_inverse(F[0], base)
    # every right-hand side has gauge entry 0, so only the first d columns
    # act; the left system's inverse D Binv^T D then acts as rhs @ Binv[:d, :d]
    right_solve = Binv[:, :d]
    left_solve = Binv[:d, :d]

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
        sol = right_solve @ rhs_a
        a[m] = sol[:d]
        b[m] = sol[d]
        c[m] = rhs_c @ left_solve

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
