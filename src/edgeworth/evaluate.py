"""Numeric evaluation of expansions and convergence studies.

Turns an :class:`~edgeworth.expansion.ExpansionSet` into concrete
numbers: CDF and lattice-pmf approximations, the weak (global, local,
averaged) functional forms, moderate-deviation estimates, and ladder
studies comparing everything against the exact oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, _as_horizons, _as_index, _as_real, _as_reals
from . import oracle

_PANELS = 64
# atoms per block of TestFunction.tail_integral: under 1 KB of temporaries
# each, so a block peaks below 8 MB
_TAIL_BLOCK = 1 << 13
# the rule's error on the integral of He_m(u) exp(-u^2/2) over its
# support is 4.7e-14 at m = 10, 3.9e-12 at m = 12 and 1.5e-10 at m = 14
_MAX_DEGREE = 10


@functools.cache
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(16)  # numpy.polynomial loads here, on first use


def _panel_nodes(lo, hi):
    """Nodes and weights, shape (n, 16), of one 16-point Gauss-Legendre
    panel on each interval [lo[i], hi[i]]."""
    t, w = _gauss_legendre()
    half = 0.5 * (hi - lo)[:, None]
    return lo[:, None] + half * (1.0 + t), half * w


def quadrature(fn, lo, hi):
    """Integral of the vectorized ``fn`` over [lo, hi], zero when hi <= lo.

    A fixed composite Gauss-Legendre rule: 64 equal panels of 16 nodes,
    exact for polynomials of degree 31 on each panel.  The terms are
    added with ``math.fsum``.
    """
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, _PANELS + 1)
    x, w = _panel_nodes(edges[:-1], edges[1:])
    return oracle._fsum(w.ravel() * np.asarray(fn(x.ravel()), dtype=float))


@dataclass(frozen=True)
class TestFunction:
    """Smooth integrable probe function.

    kind : "gaussian-bump", "compact-bump" or "hermite-damped"
        gaussian-bump: exp(-(x-c)^2 / 2w^2); compact-bump: the standard
        mollifier scaled to [c-w, c+w]; hermite-damped:
        He_m((x-c)/w) exp(-(x-c)^2 / 2w^2).
    center, width : float
        Stored as floats.
    degree : int
        Hermite degree for "hermite-damped", at most 10.
    """

    kind: str
    center: float = 0.0
    width: float = 1.0
    degree: int = 0

    # not a pytest class despite the name
    __test__ = False

    def __post_init__(self):
        if self.kind not in ("gaussian-bump", "compact-bump", "hermite-damped"):
            raise ValidationError(f"unknown test-function kind {self.kind!r}")
        object.__setattr__(self, "center", _as_real("center", self.center))  # frozen
        object.__setattr__(self, "width", _as_real("width", self.width))
        object.__setattr__(self, "degree", _as_index("degree", self.degree, 0, _MAX_DEGREE))
        if self.width <= 0:
            raise ValidationError("width must be positive")
        lo, hi = self.support()
        if not math.isfinite(hi - lo):
            raise ValidationError(f"support [{lo!r}, {hi!r}] is not a finite interval")

    def __call__(self, x):
        u = (np.asarray(x, dtype=float) - self.center) / self.width
        if self.kind == "gaussian-bump":
            return np.exp(-0.5 * u * u)
        if self.kind == "compact-bump":
            out = np.zeros_like(u)
            inside = np.abs(u) < 1.0
            ui = u[inside]
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
            return out
        he = np.polynomial.hermite_e.HermiteE.basis(self.degree)(u)
        return he * np.exp(-0.5 * u * u)

    def support(self):
        """Interval outside which the function is negligible (or zero)."""
        if self.kind == "compact-bump":
            return (self.center - self.width, self.center + self.width)
        pad = 16.0 + 2.0 * self.degree
        return (self.center - pad * self.width, self.center + pad * self.width)

    def tail_integral(self, a):
        """Integral of f over [a, infinity), elementwise.

        The rule of ``quadrature`` on the support gives each panel's
        integral; an atom inside the support adds the panels above it to
        one 16-node panel on [a, its panel's top edge].
        """
        a = np.asarray(a, dtype=float)
        lo, hi = self.support()
        edges = np.linspace(lo, hi, _PANELS + 1)
        x, w = _panel_nodes(edges[:-1], edges[1:])
        # above[k]: the integral over panels k, k+1, ...; above[_PANELS] = 0
        above = np.append(np.cumsum((w * self(x)).sum(axis=1)[::-1])[::-1], 0.0)
        flat = a.ravel()
        out = np.where(flat <= lo, above[0], 0.0)
        inside = np.flatnonzero((flat > lo) & (flat < hi))
        # each atom's panel is a row of its own, so blocks bound the
        # (atoms, 16) temporaries and leave every value as it is
        for start in range(0, inside.size, _TAIL_BLOCK):
            idx = inside[start:start + _TAIL_BLOCK]
            top = np.searchsorted(edges, flat[idx], side="right")
            x, w = _panel_nodes(flat[idx], edges[top])
            out[idx] = (w * self(x)).sum(axis=1) + above[top]
        return out.reshape(a.shape) if a.ndim else float(out[0])


def _density(exp_set, z):
    s2 = exp_set.params.sigma2
    return np.exp(-0.5 * np.asarray(z) ** 2 / s2) / math.sqrt(2.0 * math.pi * s2)


def _order(exp_set, r):
    return _as_index("r", r, 0, exp_set.r)


def edgeworth_cdf(exp_set, N, z, r):
    """CDF approximation  Phi_sigma(z) + sum_p P_p(z) N^(-p/2) dens(z).

    Parameters
    ----------
    exp_set : ExpansionSet
    N : int
        Horizon, at least 1.
    z : float or array_like
        Standardized argument (the law of (S_N - N A) / sqrt(N)).
    r : int
        Truncation order, at most the built order.
    """
    N, r, z = _as_index("N", N, 1), _order(exp_set, r), _as_reals("z", z)
    val = np.asarray(oracle.normal_cdf(z, exp_set.params.sigma))
    dens = _density(exp_set, z)
    for p in range(1, r + 1):
        val = val + exp_set.P(p)(z) * N ** (-p / 2.0) * dens
    return val if val.ndim else float(val)


def lattice_pmf(exp_set, N, k, r, span=1.0):
    """Pmf approximation  (span/sqrt(N)) dens(kappa) sum_p R_p(kappa) N^(-p/2).

    ``k`` is the actual sum value (a multiple of the span);
    ``kappa = (k - N A)/sqrt(N)``.  Accepts arrays of ``k``.
    """
    N, r, k = _as_index("N", N, 1), _order(exp_set, r), _as_reals("k", k)
    kappa = (k - N * exp_set.params.A) / math.sqrt(N)
    total = np.zeros_like(kappa)
    for p in range(r + 1):
        total += exp_set.R(p)(kappa) * N ** (-p / 2.0)
    out = span / math.sqrt(N) * _density(exp_set, kappa) * total
    return out if out.ndim else float(out)


def _window(exp_set, f, N, x):
    """The overlap, in y, of the support of f and |x + y/sqrt(N)| <= 12 sigma."""
    rootn, sigma = math.sqrt(N), exp_set.params.sigma
    flo, fhi = f.support()
    return max(rootn * (-12.0 * sigma - x), flo), min(rootn * (12.0 * sigma - x), fhi)


def weak_global(exp_set, f, N, r):
    """Estimate of E f(S_N - N A) for integrable f.

    Evaluates  sum_p N^(-p/2) integral R_p(z) dens(z) f(z sqrt(N)) dz
    by ``quadrature`` on the overlap of the Gaussian window |z| <= 12 sigma
    and the support of f.
    """
    N, r = _as_index("N", N, 1), _order(exp_set, r)
    rootn = math.sqrt(N)
    lo, hi = (y / rootn for y in _window(exp_set, f, N, 0.0))
    total = 0.0
    for p in range(r + 1):
        poly = exp_set.R(p)

        def integrand(z, poly=poly):
            return poly(z) * _density(exp_set, z) * f(z * rootn)

        total += N ** (-p / 2.0) * quadrature(integrand, lo, hi)
    return total


def weak_local(exp_set, f, N, r):
    """Estimate of sqrt(N) E f(S_N - N A) for integrable f.

    Evaluates  (1/2pi) sum_p N^(-p) integral P_{p,l}(z) f(z) dz  over
    the support of f.
    """
    N, r = _as_index("N", N, 1), _order(exp_set, r)
    lo, hi = f.support()
    total = 0.0
    for p in range(r // 2 + 1):
        poly = exp_set.weak_local(p)

        def integrand(z, poly=poly):
            return poly(z) * f(z)

        total += N ** (-float(p)) * quadrature(integrand, lo, hi)
    return total / (2.0 * math.pi)


def averaged(exp_set, f, N, x, r):
    """Estimate of integral [F_N - Normal](x + y/sqrt(N)) f(y) dy.

    Evaluates  sum_p N^(-p/2) integral P_p(x + y/sqrt(N))
    dens(x + y/sqrt(N)) f(y) dy  by ``quadrature`` on the overlap of the
    Gaussian window |x + y/sqrt(N)| <= 12 sigma and the support of f.
    """
    N, x, r = _as_index("N", N, 1), _as_real("x", x), _order(exp_set, r)
    rootn = math.sqrt(N)
    lo, hi = _window(exp_set, f, N, x)
    total = 0.0
    for p in range(1, r + 1):
        poly = exp_set.P(p)

        def integrand(y, poly=poly):
            z = x + y / rootn
            return poly(z) * _density(exp_set, z) * f(y)

        total += N ** (-p / 2.0) * quadrature(integrand, lo, hi)
    return total


@dataclass(frozen=True)
class ModDevResult:
    """Moderate-deviation comparison at the edge of the valid regime."""

    x: float
    ratio: float
    exact_tail: float
    normal_tail: float
    corollary_tail: float


def moddev_ratios(exp_set, model, c, N_list):
    """Exact-vs-normal tail ratio at x = sqrt(c sigma2 ln N) for each N
    of a strictly increasing ``N_list``, all validated first.

    The exact tails P((S_N - N A)/sqrt(N) >= x) come from one sweep of
    ``oracle.dp_ladder``; the normal tail is 0.5 erfc(x / (sigma sqrt 2)).
    Also reports the closed-form prediction (1/sqrt(2 pi c)) /
    sqrt(N^c ln N) for the tail itself.  The probe x is clamped below at
    1, the lower end of the validity window.

    Raises
    ------
    ValidationError
        When ``c`` is not a positive finite number, some N is not an
        integer of at least 2, or N**c overflows.
    TableTooLarge
        When the dynamic program would exceed its 10**7-cell budget.
    OracleUnavailable
        When the model has no explicit chain.
    """
    c, N_list = _as_real("c", c), _as_horizons("N_list", N_list, 2)
    if c <= 0.0:
        raise ValidationError(f"c must be positive, not {c!r}")
    powers = []
    for N in N_list:
        try:
            powers.append(N ** c)
        except OverflowError:
            raise ValidationError(f"c = {c!r} is too large: N**c overflows at N={N}") from None
    params = exp_set.params
    results = []
    for N, power, dist in zip(N_list, powers, exact_distributions(model, N_list, "dp")):
        x = max(1.0, math.sqrt(c * params.sigma2 * math.log(N)))
        exact_tail = dist.tail(N * params.A + x * math.sqrt(N))
        normal_tail = 0.5 * oracle.erfc(x / (params.sigma * math.sqrt(2.0)))
        corollary = 1.0 / (math.sqrt(2.0 * math.pi * c) * math.sqrt(power * math.log(N)))
        ratio = exact_tail / normal_tail if normal_tail > 0 else math.inf
        results.append(ModDevResult(x, ratio, exact_tail, normal_tail, corollary))
    return results


@dataclass(frozen=True)
class ConvergenceReport:
    """Error ladder for one expansion form over a horizon list."""

    form: str
    oracle_kind: str
    r: int
    N_list: list
    raw: list
    scaled: list = field(default_factory=list)
    decreasing: bool = False
    # each N's 99 % DKW band of the Monte Carlo sample, None for an exact oracle
    dkw99: list = field(default_factory=list)

    def rows(self):
        """(N, raw_error, scaled_error) rows for CSV emission."""
        return list(zip(self.N_list, self.raw, self.scaled))


def _model_key(model):
    """The chain as a cache key: its dimension and the bytes of the
    pattern and values of ``model.entries()`` and of ``mu0``.  Keys are
    equal exactly when the chains are, with no digest to collide."""
    return (model.dim, *(np.ascontiguousarray(a).tobytes() for a in (*model.entries(), model.mu0)))


def exact_distribution(model, N, oracle_kind, seed=0, trials=10 ** 5, cache=None):
    """Oracle distribution of S_N, memoized per (model, oracle, N) in ``cache`` if given.

    ``"dp"`` runs the exact dynamic program ``oracle.dp_ladder``;
    ``"mc"`` runs the seeded Monte Carlo oracle.
    """
    return exact_distributions(model, [_as_index("N", N, 1)], oracle_kind, seed, trials, cache)[0]


def exact_distributions(model, N_list, oracle_kind, seed=0, trials=10 ** 5, cache=None):
    """``exact_distribution`` at each N of a strictly increasing ``N_list``.

    ``"dp"`` runs one sweep of ``oracle.dp_ladder`` over the horizons
    that ``cache`` does not hold yet; ``"mc"`` draws one sample per
    horizon.  Each result is stored under the key that
    ``exact_distribution`` reads.
    """
    if oracle_kind not in ("dp", "mc"):
        raise ValidationError(f"unknown oracle kind {oracle_kind!r}")
    N_list, mc = _as_horizons("N_list", N_list), oracle_kind == "mc"

    def run(horizons):
        if mc:
            return [oracle.mc_sample(model, N, trials, seed) for N in horizons]
        return oracle.dp_ladder(model, horizons)

    if cache is None:
        return run(N_list)
    oracle._require_chain(model)  # the key reads the chain arrays
    chain = _model_key(model)
    keys = [(chain, mc, N, seed if mc else None, trials if mc else None) for N in N_list]
    missing = [(N, key) for N, key in zip(N_list, keys) if key not in cache]
    if missing:
        horizons, new_keys = zip(*missing)
        cache.update(zip(new_keys, run(list(horizons))))
    return [cache[key] for key in keys]


def _classical_error(exp_set, dist, N, r):
    """Kolmogorov distance of the law of (S_N - N A) / sqrt(N) from the
    classical expansion of order r; a ``ValidationError`` if a
    standardized end atom, so some standardized atom, overflows.

    The law is read in its own coordinates at a probe set, not at every
    atom: the atoms, every (n // 20000 + 1)-th of the n atoms when
    n > 20000, joined with the preimages N A + sqrt(N) z of a 2001-point
    grid z on [-12 sigma, 12 sigma]; only the probes are standardized.
    On a Monte Carlo sample of many distinct values it is therefore a
    lower bound of the distance: 7.2e-7 low at criterion 12 (10**6
    atoms, one in 51 read).
    """
    params = exp_set.params
    shift, scale = N * params.A, math.sqrt(N)
    atoms = dist.support
    with np.errstate(over="ignore"):  # the map is monotone: the ends bound the rest
        if not np.isfinite((atoms[[0, -1]] - shift) / scale).all():
            raise ValidationError("standardized support overflows")
    n = atoms.size
    grid = np.linspace(-12.0 * params.sigma, 12.0 * params.sigma, 2001)
    probes = oracle._distinct(np.concatenate((atoms[:: n // 20000 + 1 if n > 20000 else 1],
                                              shift + scale * grid)))
    return oracle.kolmogorov_distance(
        dist, lambda x: edgeworth_cdf(exp_set, N, (x - shift) / scale, r), probes)


def _lattice_error(exp_set, model, dist, N, r):
    """sqrt(N) sup_k |P(S_N = k) - lattice_pmf(k)| over the lattice points
    k of the support and of N A +- 13 sigma sqrt(N), points with no mass
    included; at order 0 it is the local limit error times the span."""
    span = model.lattice_span
    params = exp_set.params
    sigma = params.sigma
    lo = min(dist.support.min(), N * params.A - 13.0 * sigma * math.sqrt(N))
    hi = max(dist.support.max(), N * params.A + 13.0 * sigma * math.sqrt(N))
    ks = span * np.arange(math.floor(lo / span), math.ceil(hi / span) + 1)
    exact = np.zeros(ks.size)
    idx = np.searchsorted(dist.support, ks)
    idx = np.clip(idx, 0, dist.support.size - 1)
    hit = np.abs(dist.support[idx] - ks) < 0.5 * span
    exact[hit] = dist.pmf[idx[hit]]
    approx = lattice_pmf(exp_set, N, ks, span=span, r=r)
    return float(np.max(np.abs(exact - approx))) * math.sqrt(N)


def _weak_local_error(exp_set, dist, N, r, f):
    params = exp_set.params
    offsets = dist.support - N * params.A
    exact = math.sqrt(N) * oracle._fsum(f(offsets) * dist.pmf)
    return abs(exact - weak_local(exp_set, f, N, r))


def _weak_global_error(exp_set, dist, N, r, f):
    params = exp_set.params
    offsets = dist.support - N * params.A
    exact = oracle._fsum(f(offsets) * dist.pmf)
    return abs(exact - weak_global(exp_set, f, N, r))


def _averaged_error(exp_set, dist, N, r, f, x):
    params = exp_set.params
    rootn = math.sqrt(N)
    # integral F_N(x + y/rootn) f(y) dy  ==  sum_k pmf_k * tail integral
    # of f over [rootn(kappa_k - x), inf), kappa_k the standardized atom
    kappa = (dist.support - N * params.A) / rootn
    exact_f = oracle._fsum(dist.pmf * f.tail_integral(rootn * (kappa - x)))

    def gauss_part(y):
        return oracle.normal_cdf(x + y / rootn, params.sigma) * f(y)

    # the normal CDF is 0 below the window and 1 above it
    lo, hi = _window(exp_set, f, N, x)
    gauss = quadrature(gauss_part, lo, hi) + f.tail_integral(hi)
    return abs((exact_f - gauss) - averaged(exp_set, f, N, x, r))


_FORMS = ("classical", "lattice", "weak_local", "weak_global", "averaged")


def convergence_study(
    exp_set,
    model,
    oracle_kind,
    r,
    N_list,
    form="classical",
    f=None,
    x=None,
    seed=0,
    trials=10 ** 5,
    cache=None,
):
    """Error ladder e_r(N) with the N^(r/2)-scaled column and verdict.

    The oracle distributions come from one ``exact_distributions`` call,
    so the exact oracle sweeps the ladder once.

    Parameters
    ----------
    exp_set : ExpansionSet
        Built at order >= r.
    model : model object
        Needed for oracle runs and lattice span.
    oracle_kind : str
        "dp" (the exact dynamic program) or "mc" (seeded Monte Carlo).
    r : int
        Order whose error is measured.
    N_list : sequence of int
        Strictly increasing horizons.
    form : str
        "classical", "lattice", "weak_local", "weak_global" or "averaged".
    f : TestFunction, optional
        Required for weak_local and weak_global.  The averaged form
        defaults to a unit Gaussian bump.
    x : float, optional
        Center for the averaged form.  None probes x in
        {0, +-sigma, +-2sigma} and reports the worst error per N.
    """
    r, N_list = _order(exp_set, r), _as_horizons("N_list", N_list)
    if form not in _FORMS:
        raise ValidationError(f"unknown form {form!r}")
    if form == "averaged" and f is None:
        f = TestFunction("gaussian-bump", 0.0, 1.0)
    if form in ("weak_local", "weak_global") and f is None:
        raise ValidationError(f"form {form!r} needs a test function")
    if form == "lattice" and getattr(model, "lattice_span", None) is None:
        raise ValidationError("the lattice form needs a lattice model")
    if x is None:
        probes_x = [m * exp_set.params.sigma for m in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    else:
        probes_x = [_as_real("x", x)]
    raw = []
    dkw99 = []
    dists = exact_distributions(model, N_list, oracle_kind, seed, trials, cache)
    for N, dist in zip(N_list, dists):
        dkw99.append(dist.meta.get("dkw99"))
        if form == "classical":
            err = _classical_error(exp_set, dist, N, r)
        elif form == "lattice":
            err = _lattice_error(exp_set, model, dist, N, r)
        elif form == "weak_local":
            err = _weak_local_error(exp_set, dist, N, r, f)
        elif form == "weak_global":
            err = _weak_global_error(exp_set, dist, N, r, f)
        else:
            err = max(
                _averaged_error(exp_set, dist, N, r, f, xx)
                for xx in probes_x
            )
        raw.append(err)
    scaled = [e * n ** (r / 2.0) for e, n in zip(raw, N_list)]
    decreasing = all(b < a for a, b in zip(scaled, scaled[1:]))
    return ConvergenceReport(form, oracle_kind, r, N_list, raw, scaled, decreasing, dkw99)
