"""Edgeworth polynomial families from leading-eigenvalue jets.

Starting from the jets of the leading eigenvalue ``mu(t)`` and the
projected factor ``z(t)``, this module extracts the drift ``A`` and
variance ``sigma2``, the higher-cumulant remainder ``psi``, and builds:

* the frequency polynomials ``A_k`` (coefficients of ``n**(-k/2)`` in the
  normalized characteristic function, written in powers of ``it``),
* the density-side Edgeworth polynomials ``R_p`` (Fourier inversion of
  ``A_p`` against the Gaussian, convention ``E exp(itS)`` with inversion
  kernel ``exp(-itx)``),
* the distribution-side polynomials ``P_p`` with
  ``d/dx [dens(x) P_p(x)] = dens(x) R_p(x)``, read off ``A_p`` directly
  (its ``(it)``-coefficients are the coordinates of ``R_p`` in the scaled
  Hermite basis, where the antiderivative is an index shift),
* the weak-local polynomials ``P_{p,l}`` via closed-form Gaussian moment
  integrals,
* the moment coefficients ``a_{k,j}`` with
  ``E (S_n - nA)**k = sum_j a_{k,j} n**j`` up to an exponentially small
  remainder.

All polynomial families are carried with real coefficients; imaginary
parts beyond tolerance raise instead of being silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateVariance,
    DegreeOverflow,
    ImaginaryResidue,
    NonRealDrift,
    NonZeroMean,
    ValidationError,
)
from .jets import Polynomial, bi_exp, jet_log
from .spectral import SpectralJets

_DRIFT_TOL = 1e-10
_VARIANCE_TOL = 1e-10
_REALNESS_TOL = 1e-11
_MOMENT_REALNESS_TOL = 1e-10
_STRUCT_TOL = 1e-12


@dataclass(frozen=True)
class AsymptoticParams:
    """Per-step drift and variance plus the higher-order log remainders.

    ``psi`` is the jet of ``log mu(t) - iAt + sigma2 t**2 / 2`` (vanishing
    through order two), ``logz`` the jet of ``log z(t)`` (vanishing
    constant term); both are complex coefficient arrays, order axis first.
    """

    A: float
    sigma2: float
    psi: np.ndarray
    logz: np.ndarray

    @property
    def order(self):
        return len(self.psi) - 1

    @property
    def sigma(self):
        return math.sqrt(self.sigma2)


def asymptotic_params(s):
    """Extract drift, variance and remainder jets from spectral jets.

    Parameters
    ----------
    s : SpectralJets
        Eigenvalue and projected-factor jets of order at least 2.

    Returns
    -------
    AsymptoticParams

    Raises
    ------
    NonRealDrift
        If the drift has imaginary part above 1e-10.
    DegenerateVariance
        If the variance is at or below 1e-10 (coboundary-like model).
    """
    mu = s.mu
    if len(mu) < 3:
        raise ValueError("jets of order >= 2 required")
    logmu = jet_log(mu)

    drift = -1j * logmu[1]
    if abs(drift.imag) > _DRIFT_TOL:
        raise NonRealDrift(f"drift imaginary part {drift.imag:.3e}")
    A = float(drift.real)

    sigma2 = float((mu[1] * mu[1] - 2.0 * mu[2]).real)
    if sigma2 <= _VARIANCE_TOL:
        raise DegenerateVariance(f"variance {sigma2:.3e} not positive")

    psi = logmu
    psi[1] -= 1j * A
    psi[2] += 0.5 * sigma2
    resid = np.max(np.abs(psi[:3]))
    if resid > _DRIFT_TOL:
        raise NonRealDrift(f"low-order remainder {resid:.3e} after extraction")
    psi[:3] = 0.0

    logz = jet_log(s.z)
    if abs(logz[0]) > _DRIFT_TOL:
        raise NonRealDrift(f"projected factor at zero deviates from 1 by {abs(logz[0]):.3e}")
    logz[0] = 0.0

    return AsymptoticParams(A=A, sigma2=sigma2, psi=psi, logz=logz)


def _real_poly(values, tol, what):
    """Real coefficient array from complex values, guarding the residue."""
    values = np.asarray(values, dtype=complex)
    worst = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if worst > tol:
        raise ImaginaryResidue(f"{what}: imaginary residue {worst:.3e} above {tol:.0e}")
    return values.real.copy()


def frequency_polys(params, r):
    """Frequency polynomials ``A_0 .. A_r`` in powers of ``it``.

    The generating series ``exp(sum_m psi_m t**m u**(m-2)
    + sum_m zeta_m t**m u**m)`` in ``u = n**(-1/2)`` is truncated and
    exponentiated; ``A_k`` is the ``u**k`` slice.

    Parameters
    ----------
    params : AsymptoticParams
        Jets must carry order at least ``r + 2``.
    r : int
        Expansion order.

    Returns
    -------
    list of Polynomial
        ``r + 1`` polynomials; entry ``k`` holds the real coefficients of
        ``A_k`` in the variable ``it``.  ``A_0`` is identically one and
        ``A_k`` has degree at most ``3k`` with parity ``k``.
    """
    if r < 0:
        raise ValueError("order must be nonnegative")
    if r == 0:
        return [Polynomial([1.0])]
    if params.order < r + 2:
        raise ValueError(f"jets of order >= {r + 2} required for order-{r} polynomials")

    t_max = 3 * r
    s = np.zeros((t_max + 1, r + 1), dtype=complex)
    m = np.arange(3, r + 3)
    s[m, m - 2] = params.psi[m]
    m = np.arange(1, r + 1)
    s[m, m] = params.logz[m]

    e = bi_exp(s)
    polys = []
    cycle = np.array([1.0, -1j, -1.0, 1j])  # powers of -i, exact
    signs = cycle[np.arange(t_max + 1) % 4]
    for k in range(r + 1):
        coeffs = _real_poly(e[:, k] * signs, _REALNESS_TOL, f"A_{k}")
        # parity guard: only degrees of the same parity as k survive
        off = coeffs[(np.arange(coeffs.size) - k) % 2 == 1]
        worst = float(np.max(np.abs(off))) if off.size else 0.0
        if worst > _REALNESS_TOL:
            raise ImaginaryResidue(f"A_{k}: parity-violating coefficient {worst:.3e}")
        coeffs[(np.arange(coeffs.size) - k) % 2 == 1] = 0.0
        coeffs[3 * k + 1 :] = 0.0
        polys.append(Polynomial(coeffs))
    return polys


def scaled_hermite(deg, sigma2):
    """Scaled Hermite matrix ``H`` of size ``deg + 1``.

    Column ``m`` holds the monomial coefficients of
    ``sigma**(-m) He_m(x / sigma)``, the Gaussian inversion of ``(it)**m``
    (probabilists' Hermite polynomials, ``He_{m+1} = x He_m - m He_{m-1}``).
    ``H`` is upper triangular with entry ``[j, m]`` nonzero only for
    ``j <= m`` of the parity of ``m``, so its scale ``sigma**(-m-j)`` is
    an integer power of ``sigma2`` and needs no square root.
    """
    if sigma2 <= 0:
        raise DegenerateVariance("variance must be positive")
    he = np.zeros((deg + 1, deg + 1))
    he[0, 0] = 1.0
    for m in range(deg):
        he[1:, m + 1] = he[:-1, m]
        if m:
            he[:, m + 1] -= m * he[:, m - 1]
    j = np.arange(deg + 1)
    return he * float(sigma2) ** -((j[:, None] + j[None, :]) // 2)


def hermite_transform(freq_poly, sigma2):
    """Density-side polynomial ``R_k`` from the frequency polynomial ``A_k``.

    Each power ``(it)**m`` inverts against the Gaussian to the scaled
    Hermite term ``sigma**(-m) He_m(x / sigma)``, so ``R_k = H c`` with
    ``H`` from :func:`scaled_hermite` and ``c`` the ``(it)``-coefficients
    of ``A_k``.

    Parameters
    ----------
    freq_poly : Polynomial
        ``A_k`` in the variable ``it``.
    sigma2 : float
        Positive variance.

    Returns
    -------
    Polynomial
        ``R_k`` in the variable ``x``.
    """
    c = freq_poly.coeffs
    return Polynomial(scaled_hermite(len(c) - 1, sigma2) @ c)


def antiderivative_poly(freq_poly, sigma2):
    """Distribution-side polynomial ``P_p`` from the frequency polynomial ``A_p``.

    The ``(it)``-coefficients ``c_m`` of ``A_p`` are the coordinates of
    ``R_p`` in the scaled Hermite basis.  There, multiplying by the
    Gaussian and antidifferentiating is the index shift
    ``sigma**(-m) He_m -> -sigma**(1-m) He_{m-1}``, so
    ``P_p = -H[:, :deg] c[1:]``; the result is the unique polynomial whose
    Gaussian-weighted product vanishes at infinity.

    Raises
    ------
    NonZeroMean
        If ``c_0`` (the Gaussian mean of ``R_p``, its He_0 component) is
        nonzero, in which case no such polynomial exists.
    """
    c = freq_poly.coeffs
    if abs(c[0]) > 1e-10:
        raise NonZeroMean(f"Gaussian mean {c[0]:.3e} prevents antidifferentiation")
    deg = len(c) - 1
    return Polynomial(scaled_hermite(deg, sigma2)[:, :deg] @ -c[1:])


def _gaussian_moment(n, sigma):
    """``integral t**n exp(-sigma2 t**2 / 2) dt`` over the real line."""
    if n % 2 == 1:
        return 0.0
    val = math.sqrt(2.0 * math.pi) / sigma ** (n + 1)
    for j in range(n - 1, 1, -2):
        val *= j
    return val


def weak_local_polys(freq, sigma2, r):
    """Weak-local polynomials ``P_{0,l} .. P_{floor(r/2),l}``.

    The ``x**j`` coefficient of ``P_{p,l}`` is
    ``(-i)**j / j!  integral t**j A_{2p-j}(t) exp(-sigma2 t**2/2) dt``
    with the integral evaluated in closed form from even Gaussian
    moments.  Parity makes every coefficient exactly real.

    Parameters
    ----------
    freq : list of Polynomial
        Frequency polynomials covering ``A_0 .. A_{2 floor(r/2)}``.
    sigma2 : float
        Positive variance.
    r : int
        Expansion order; the list has ``floor(r/2) + 1`` entries.
    """
    if sigma2 <= 0:
        raise DegenerateVariance("variance must be positive")
    sigma = math.sqrt(sigma2)
    pmax = r // 2
    if len(freq) < 2 * pmax + 1:
        raise ValueError(f"need frequency polynomials up to A_{2 * pmax}")
    out = []
    for p in range(pmax + 1):
        coeffs = np.zeros(2 * p + 1)
        for j in range(2 * p + 1):
            a_k = freq[2 * p - j]
            acc = 0.0 + 0.0j
            for m in range(a_k.degree + 1):
                c = a_k.coeff(m)
                if c == 0.0:
                    continue
                acc += c * (1j ** m) * _gaussian_moment(m + j, sigma)
            term = ((-1j) ** j) * acc / math.factorial(j)
            coeffs[j] = term.real
        out.append(Polynomial(coeffs))
    return out


def moment_coefficients(s, kmax):
    """Centered-moment coefficients ``a_{k,j}``.

    Expands ``exp(n (log mu(t) - t mu'(0))) z(t)`` as a series in
    ``(t, n)`` with ``n`` formal; then
    ``E (S_n - nA)**k = sum_{j <= k/2} a_{k,j} n**j`` up to an
    exponentially small remainder, with
    ``a_{k,j} = k! i**(-k) [t**k n**j]``.

    Parameters
    ----------
    s : SpectralJets
        Jets of order at least ``kmax``.
    kmax : int
        Largest moment order.

    Returns
    -------
    dict
        ``(k, j) -> a_{k,j}`` for ``k <= kmax``, ``j <= floor(k/2)``.

    Raises
    ------
    ImaginaryResidue
        If a coefficient has imaginary residue above 1e-10.
    DegreeOverflow
        If a coefficient with ``j > floor(k/2)`` exceeds 1e-10.
    """
    if len(s.mu) - 1 < kmax:
        raise ValueError(f"jets of order >= {kmax} required")
    params = asymptotic_params(s)

    u_max = kmax // 2
    g = np.zeros((kmax + 1, u_max + 1), dtype=complex)
    if u_max >= 1:
        g[2, 1] = -0.5 * params.sigma2
        g[3:, 1] = params.psi[3 : kmax + 1]
    g[1:, 0] = params.logz[1 : kmax + 1]

    e = bi_exp(g)
    coeffs = {}
    for k in range(kmax + 1):
        fact = math.factorial(k)
        scale = fact * (-1j) ** k if k % 2 else fact * (-1.0) ** (k // 2)
        for j in range(u_max + 1):
            val = scale * e[k, j]
            if j <= k // 2:
                if abs(val.imag) > _MOMENT_REALNESS_TOL:
                    raise ImaginaryResidue(
                        f"a_({k},{j}): imaginary residue {abs(val.imag):.3e}"
                    )
                coeffs[(k, j)] = float(val.real)
            elif abs(val) > _MOMENT_REALNESS_TOL:
                raise DegreeOverflow(
                    f"t**{k} n**{j} coefficient {abs(val):.3e} violates the "
                    f"floor(k/2) degree bound"
                )
    return coeffs


@dataclass(frozen=True)
class ExpansionSet:
    """All polynomial families of one expansion order, single source of truth.

    ``freq[k]`` is ``A_k``; ``edge_r[p]`` is ``R_p``; ``edge_p[p - 1]`` is
    ``P_p`` (defined for ``p >= 1``); ``weak_local_list[p]`` is
    ``P_{p,l}``; ``moment_coeffs`` maps ``(k, j)`` to ``a_{k,j}``.
    """

    r: int
    params: AsymptoticParams
    freq: list = field(default_factory=list)
    edge_r: list = field(default_factory=list)
    edge_p: list = field(default_factory=list)
    weak_local_list: list = field(default_factory=list)
    moment_coeffs: dict = field(default_factory=dict)

    def A(self, k):
        """Frequency polynomial ``A_k`` (variable ``it``)."""
        return self.freq[k]

    def R(self, p):
        """Density-side polynomial ``R_p``."""
        return self.edge_r[p]

    def P(self, p):
        """Distribution-side polynomial ``P_p``, defined for ``p >= 1``."""
        if p < 1:
            raise ValueError("P_p is defined for p >= 1")
        return self.edge_p[p - 1]

    def weak_local(self, p):
        """Weak-local polynomial ``P_{p,l}``."""
        return self.weak_local_list[p]

    def a(self, k, j):
        """Moment coefficient ``a_{k,j}``."""
        return self.moment_coeffs[(k, j)]


def build_expansion(s, r):
    """Assemble the order-``r`` ExpansionSet from spectral jets.

    Parameters
    ----------
    s : SpectralJets
        Jets of order at least ``max(r + 2, 2)``.
    r : int
        Expansion order, ``r >= 0`` (order 0 keeps only the Gaussian term).
    """
    if r < 0:
        raise ValidationError("expansion order must be nonnegative")
    params = asymptotic_params(s)
    freq = frequency_polys(params, r)
    edge_r = [hermite_transform(a_k, params.sigma2) for a_k in freq]
    edge_p = [antiderivative_poly(freq[p], params.sigma2) for p in range(1, r + 1)]
    wl = weak_local_polys(freq, params.sigma2, r)
    moments = moment_coefficients(s, min(len(s.mu) - 1, r + 2))
    return ExpansionSet(
        r=r,
        params=params,
        freq=freq,
        edge_r=edge_r,
        edge_p=edge_p,
        weak_local_list=wl,
        moment_coeffs=moments,
    )


def expansion_for_model(model, r):
    """Build the order-``r`` expansion for a model object."""
    from .spectral import eigen_perturbation, perron_base

    fam = model.operator_family(max(r + 2, 2))
    # slice 0 as a matrix of the family's path
    base = perron_base(fam.matrix(0))
    jets = eigen_perturbation(fam, base)
    return build_expansion(jets, r)
