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
from .jets import Jet, jet_div, jet_mul

_GAP_TOL = 1e-8


class OperatorFamilyJet:
    """Taylor jets of the twisted family ``L_t``, stored densely.

    ``coeffs[j, k, m]`` is the ``t**m`` coefficient of entry ``(j, k)``,
    namely ``p_{jk} (i h_{jk})**m / m!``.  The initial distribution of the
    originating model rides along because the projected factor ``z(t)``
    needs it.
    """

    __slots__ = ("coeffs", "dim", "mu0")

    def __init__(self, coeffs, mu0):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.ndim != 3 or self.coeffs.shape[0] != self.coeffs.shape[1]:
            raise ValueError("expected a (d, d, order+1) coefficient array")
        self.dim = self.coeffs.shape[0]
        self.mu0 = np.asarray(mu0, dtype=float)

    @property
    def order(self):
        return self.coeffs.shape[2] - 1

    def matrix_coeff(self, m):
        """The matrix of ``t**m`` coefficients (``L^{(m)}`` up to m!)."""
        return self.coeffs[:, :, m]

    def entry_jet(self, j, k):
        return Jet(self.coeffs[j, k, :])

    def base_matrix(self):
        """The untwisted stochastic matrix ``L_0``."""
        return self.coeffs[:, :, 0].real.copy()


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
    eigenvector jets that produced them."""

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
    truncated at ``order``.
    """
    P = _validate_stochastic(model.transition)
    h = np.asarray(model.observable, dtype=float)
    if order < 2:
        raise ValueError("jet order must be at least 2")
    if h.shape != P.shape:
        raise NonStochasticModel("observable matrix shape differs from transition")
    d = P.shape[0]
    coeffs = np.zeros((d, d, order + 1), dtype=complex)
    term = np.ones((d, d), dtype=complex)
    coeffs[:, :, 0] = P
    ih = 1j * h
    for m in range(1, order + 1):
        term = term * ih / m
        coeffs[:, :, m] = P * term
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


def _power_start(d):
    # deterministic start vector (1, 1/2, 1/3, ...)
    return 1.0 / np.arange(1.0, d + 1.0)


def power_radius(M, iters=200, tol=1e-10):
    """Spectral-radius estimate by power iteration.

    With a strictly dominant eigenvalue the norm-growth ratio converges
    and is returned directly.  When two moduli are (nearly) tied the
    ratio keeps oscillating; the telescoped geometric mean over the
    trailing half of the run averages the beats out.
    """
    M = np.asarray(M)
    d = M.shape[0]
    x = _power_start(d).astype(complex)
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


def power_eigenvalue(M, iters=200, tol=1e-10):
    """Leading eigenvalue (complex) by power iteration with a Rayleigh
    quotient; requires a strictly dominant simple eigenvalue."""
    M = np.asarray(M, dtype=complex)
    d = M.shape[0]
    x = _power_start(d).astype(complex)
    x /= np.linalg.norm(x)
    lam = 0.0 + 0.0j
    for _ in range(iters):
        y = M @ x
        r = np.linalg.norm(y)
        if r < 1e-300:
            return 0.0 + 0.0j
        y /= r
        lam_new = np.vdot(y, M @ y) / np.vdot(y, y)
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
        x = y
    return lam


def eigen_perturbation(fam, base):
    """Order-by-order perturbation of the Perron eigenpair.

    Collecting ``t**m`` coefficients of ``L_t v_t = mu(t) v_t`` gives a
    singular system in ``v^(m)`` with the unknown ``mu^(m)`` multiplying
    the base right vector; both are recovered at once from the bordered
    system ``[[L0 - I, -right], [pi^T, 0]]`` whose gauge row pins
    ``pi . v^(m) = 0`` for m >= 1.

    The left jet solves the transposed family with the analogous bordered
    system and is normalized so that ``l_t(v_t) = 1`` identically; the
    projected factor is ``z(t) = (l_t . 1) * (mu0 . v_t)``.
    """
    if base.gap <= _GAP_TOL:
        raise GapBelowTolerance(f"gap {base.gap:.3e} too small for perturbation")
    d = fam.dim
    s = fam.order
    L0 = fam.matrix_coeff(0)
    eye = np.eye(d)

    def bordered_inverse(A, border_col, gauge_row):
        B = np.zeros((d + 1, d + 1), dtype=complex)
        B[:d, :d] = A
        B[:d, d] = -border_col
        B[d, :d] = gauge_row
        try:
            Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise BorderedSolveSingular(str(exc)) from exc
        if not np.all(np.isfinite(Binv)):
            raise BorderedSolveSingular("bordered inverse not finite")
        return Binv

    Binv = bordered_inverse(L0 - eye, base.right.astype(complex), base.left.astype(complex))

    v = np.zeros((s + 1, d), dtype=complex)
    mu = np.zeros(s + 1, dtype=complex)
    v[0] = base.right
    mu[0] = 1.0
    for m in range(1, s + 1):
        rhs = np.zeros(d, dtype=complex)
        for j in range(1, m):
            rhs += mu[j] * v[m - j]
        for j in range(1, m + 1):
            rhs -= fam.matrix_coeff(j) @ v[m - j]
        sol = Binv @ np.concatenate([rhs, [0.0]])
        v[m] = sol[:d]
        mu[m] = sol[d]

    # left jet on the transposed family, gauge 1 . w^(m) = 0
    L0T = L0.T
    BinvT = bordered_inverse(L0T - eye, base.left.astype(complex), base.right.astype(complex))
    w = np.zeros((s + 1, d), dtype=complex)
    w[0] = base.left
    for m in range(1, s + 1):
        rhs = np.zeros(d, dtype=complex)
        for j in range(1, m):
            rhs += mu[j] * w[m - j]
        for j in range(1, m + 1):
            rhs -= fam.matrix_coeff(j).T @ w[m - j]
        sol = BinvT @ np.concatenate([rhs, [0.0]])
        w[m] = sol[:d]

    right_jet = [Jet(v[:, j]) for j in range(d)]
    raw_left = [Jet(w[:, j]) for j in range(d)]

    # normalize l_t(v_t) = 1
    pairing = Jet.zero(s)
    for j in range(d):
        pairing = pairing + jet_mul(raw_left[j], right_jet[j])
    left_jet = [jet_div(lj, pairing) for lj in raw_left]

    # z(t) = (l_t . ones) * (mu0 . v_t)
    ones_part = Jet.zero(s)
    for j in range(d):
        ones_part = ones_part + left_jet[j]
    mu0_part = Jet.zero(s)
    for j in range(d):
        mu0_part = mu0_part + fam.mu0[j] * right_jet[j]
    z = jet_mul(ones_part, mu0_part)

    return SpectralJets(Jet(mu), z, right_jet, left_jet, base)


def char_fn(model, t, N):
    """``E exp(i t S_N) = mu0^T L_t^N 1`` by repeated row products."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    Lt = evaluate_family(model, t)
    row = np.asarray(model.mu0, dtype=complex)
    for _ in range(N):
        row = row @ Lt
    return complex(row.sum())


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
