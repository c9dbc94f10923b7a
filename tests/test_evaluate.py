"""Numeric evaluators: quadrature, CDF/pmf forms, ladders, tails."""

import dataclasses
import math
import time

import numpy as np
import pytest

from edgeworth.errors import (
    OracleUnavailable,
    TableTooLarge,
    ValidationError,
)
from edgeworth import evaluate
from edgeworth.evaluate import (
    TestFunction,
    averaged,
    convergence_study,
    edgeworth_cdf,
    exact_distribution,
    exact_distributions,
    lattice_pmf,
    moddev_ratios,
    quadrature,
    weak_global,
    weak_local,
)
from edgeworth.expansion import expansion_for_model
from edgeworth.models import bundled_model, iid_model, markov_model
from edgeworth import oracle
from edgeworth.oracle import ExactDistribution, dp_pmf, normal_cdf
from memory import traced_peak


@pytest.fixture(scope="module")
def two_state():
    model = bundled_model("two_state")
    return model, expansion_for_model(model, 3)


@pytest.fixture(scope="module")
def dp_cache():
    return {}


# ------------------------------------------------------------ test functions


def test_gaussian_bump_closed_forms():
    f = TestFunction("gaussian-bump", 0.5, 2.0)
    # peak value 1 at the center, symmetric decay
    assert f(0.5) == 1.0
    assert abs(f(1.5) - math.exp(-0.125)) <= 1e-15
    # quadrature over the recorded support agrees with the closed form w sqrt(2 pi)
    lo, hi = f.support()
    assert abs(quadrature(f, lo, hi) - 2.0 * math.sqrt(2.0 * math.pi)) <= 1e-10
    # an empty window, as the averaged form meets off the Gaussian
    assert quadrature(f, 1.0, 1.0) == 0.0 and quadrature(f, 2.0, 1.0) == 0.0


def test_compact_bump_support_and_integral():
    f = TestFunction("compact-bump", 1.0, 2.0)
    assert f.support() == (-1.0, 3.0)
    assert f(1.0) == 1.0
    assert f(3.0) == 0.0 and f(-1.0) == 0.0 and f(4.0) == 0.0
    # frozen quadrature value for the width-2 mollifier
    assert abs(quadrature(f, *f.support()) - 2.413800644875752) <= 1e-10


def test_hermite_damped_integral_vanishes():
    f = TestFunction("hermite-damped", 0.0, 1.0, 3)
    lo, hi = f.support()
    assert abs(quadrature(f, lo, hi)) <= 1e-10
    # degree 0 reduces to the plain bump, of integral w sqrt(2 pi)
    f0 = TestFunction("hermite-damped", 0.0, 1.5, 0)
    assert abs(quadrature(f0, *f0.support()) - 1.5 * math.sqrt(2.0 * math.pi)) <= 1e-10


def test_test_function_validation():
    with pytest.raises(ValidationError):
        TestFunction("triangle", 0.0, 1.0)
    with pytest.raises(ValidationError):
        TestFunction("gaussian-bump", 0.0, 0.0)
    # numpy's HermiteE.basis refused a negative degree with a ValueError
    for degree in (-1, 2.0, True, "2", 11):
        with pytest.raises(ValidationError):
            TestFunction("hermite-damped", 0.0, 1.0, degree)
    TestFunction("hermite-damped", 0.0, 1.0, 10)
    # a support whose ends or length overflow: the fixed rule would read NaN
    with pytest.raises(ValidationError):
        TestFunction("gaussian-bump", 0.0, 1e308)
    with pytest.raises(ValidationError):
        TestFunction("compact-bump", 0.0, 1e308)
    TestFunction("compact-bump", 0.0, 1e307)
    # a string raised a bare TypeError; a bool was taken as 1
    for field, value in (("center", "0.3"), ("center", True), ("width", "1"), ("width", True),
                         ("width", 10 ** 400)):
        with pytest.raises(ValidationError, match=f"^{field} must be a real number"):
            TestFunction("gaussian-bump", **{field: value})
    f = TestFunction("gaussian-bump", 1, 2)
    assert type(f.center) is float and type(f.width) is float


def test_tail_integrals_match_closed_forms():
    a = np.linspace(-30.0, 30.0, 241)
    for c, w in ((0.0, 1.0), (0.5, 2.0), (-1.0, 0.3)):
        u = (a - c) / w
        # the Gaussian tail, and He_(m-1)(u) exp(-u^2/2) as the antiderivative
        # of He_m(u) exp(-u^2/2)
        gauss = w * math.sqrt(2.0 * math.pi) * (1.0 - normal_cdf(u))
        for f in (TestFunction("gaussian-bump", c, w), TestFunction("hermite-damped", c, w, 0)):
            assert np.max(np.abs(f.tail_integral(a) - gauss)) <= 1e-14
        for m in range(1, 11):
            want = w * np.polynomial.hermite_e.HermiteE.basis(m - 1)(u) * np.exp(-0.5 * u * u)
            got = TestFunction("hermite-damped", c, w, m).tail_integral(a)
            assert np.max(np.abs(got - want)) <= 1e-12 * w
    # the compact bump against mpmath, at the ends, the center and off-grid points
    mpmath = pytest.importorskip("mpmath")
    f = TestFunction("compact-bump", 1.0, 2.0)
    bump = lambda v: mpmath.exp(1 - 1 / (1 - ((v - 1) / 2) ** 2))
    probes = np.array([-5.0, -1.0, -0.37, 0.5, 1.0, 1.9, 2.999, 3.0, 7.0])
    got = f.tail_integral(probes)
    for p, g in zip(probes, got):
        lo = min(max(p, -1.0), 3.0)
        want = float(mpmath.quad(bump, [lo, max(lo, 1.0), 3.0]))
        assert abs(g - want) <= 1e-12


def test_tail_integral_memory_is_bounded_by_its_blocks():
    # the (atoms, 16) panel nodes of every atom inside the support were
    # formed at once: 184 MB for these atoms, 920 bytes each
    f = TestFunction("hermite-damped", 0.0, 1.0, 2)
    a = np.linspace(-3.0, 3.0, 200_000)
    got, peak = traced_peak(f.tail_integral, a)
    assert peak < 24e6
    # the one-call rule, on slices that do not line up with the blocks
    lo, hi = f.support()
    edges = np.linspace(lo, hi, evaluate._PANELS + 1)
    x, w = evaluate._panel_nodes(edges[:-1], edges[1:])
    above = np.append(np.cumsum((w * f(x)).sum(axis=1)[::-1])[::-1], 0.0)
    for start in range(0, a.size, 30_001):
        part = a[start:start + 30_001]
        top = np.searchsorted(edges, part, side="right")
        x, w = evaluate._panel_nodes(part, edges[top])
        want = (w * f(x)).sum(axis=1) + above[top]
        assert np.array_equal(got[start:start + 30_001], want)


# ------------------------------------------------------------- classical CDF


def test_cdf_order_zero_is_plain_gaussian(two_state):
    model, exp_set = two_state
    sigma = exp_set.params.sigma
    for z in (-2.0, -0.3, 0.0, 0.7, 1.9):
        got = edgeworth_cdf(exp_set, 64, z, r=0)
        assert abs(got - normal_cdf(z, sigma)) <= 1e-15


def test_cdf_tails_pin_to_zero_and_one(two_state):
    model, exp_set = two_state
    sigma = exp_set.params.sigma
    for N in (16, 1024):
        assert abs(edgeworth_cdf(exp_set, N, -12.0 * sigma, exp_set.r)) <= 1e-12
        assert abs(edgeworth_cdf(exp_set, N, 12.0 * sigma, exp_set.r) - 1.0) <= 1e-12


def test_cdf_correction_shrinks_midpoint_error(two_state, dp_cache):
    # at midpoints between lattice atoms the step CDF is unambiguous, so
    # the half-jump floor of a continuous approximation does not bind and
    # the first correction must beat the plain Gaussian by a wide factor
    model, exp_set = two_state
    N = 1024
    dist = exact_distribution(model, N, "dp", cache=dp_cache)
    std = (dist.support - N * exp_set.params.A) / math.sqrt(N)
    cdf_vals = np.cumsum(dist.pmf)[:-1]
    mids = (std[:-1] + std[1:]) / 2.0
    errs = {}
    for r in (0, 1):
        errs[r] = max(abs(edgeworth_cdf(exp_set, N, m, r) - c) for m, c in zip(mids, cdf_vals))
    assert errs[1] * 3.0 < errs[0]
    # frozen magnitudes
    assert abs(errs[0] - 4.616169923e-03) <= 1e-9
    assert abs(errs[1] - 5.340472646e-05) <= 1e-9


def test_cdf_validation(two_state):
    model, exp_set = two_state
    with pytest.raises(ValidationError):
        edgeworth_cdf(exp_set, 0, 0.0, exp_set.r)
    with pytest.raises(ValidationError):
        edgeworth_cdf(exp_set, 16, 0.0, r=7)
    with pytest.raises(ValidationError):
        edgeworth_cdf(exp_set, 16, 0.0, r=-1)


def test_array_forms_match_scalar_loops(two_state):
    model, exp_set = two_state
    z = np.linspace(-4.0, 4.0, 41)
    got = edgeworth_cdf(exp_set, 256, z, exp_set.r)
    assert np.array_equal(got, [edgeworth_cdf(exp_set, 256, float(v), exp_set.r) for v in z])
    for f in (
        TestFunction("gaussian-bump", 0.5, 2.0),
        TestFunction("compact-bump", 0.0, 1.5),
        TestFunction("hermite-damped", 0.2, 1.2, 3),
    ):
        got = f.tail_integral(z)
        assert got.shape == z.shape
        assert np.array_equal(got, [f.tail_integral(float(v)) for v in z])
    assert isinstance(edgeworth_cdf(exp_set, 256, 0.3, exp_set.r), float)


def test_classical_error_standardizes_without_copying_the_support(two_state):
    # the standardized image used to copy all n atoms to read one in 51
    model, exp_set = two_state
    A, sigma = exp_set.params.A, exp_set.params.sigma
    N, n = 4096, 10 ** 6
    support = N * A + math.sqrt(N) * sigma * np.linspace(-6.0, 6.0, n)
    dist = ExactDistribution(support, np.full(n, 1.0 / n), N)
    got, peak = traced_peak(evaluate._classical_error, exp_set, dist, N, 1)
    assert peak < 8 * n
    # the same probe set on the formed image: every 51st atom and the grid
    std = ExactDistribution((support - N * A) / math.sqrt(N), dist.pmf, N)
    probes = np.union1d(std.support[::51], np.linspace(-12.0 * sigma, 12.0 * sigma, 2001))
    cdf = lambda z: edgeworth_cdf(exp_set, N, z, 1)
    assert got == oracle.kolmogorov_distance(std, cdf, probes)


def _standardized_error(exp_set, dist, N, r, stride):
    # the design _classical_error replaced, kept as its reference: the
    # atoms standardized, z = (x - N A) / sqrt(N), and counted in z at
    # every stride-th standardized atom joined with the grid itself
    params = exp_set.params
    z = (dist.support - N * params.A) / math.sqrt(N)
    probes = np.union1d(z[::stride], np.linspace(-12.0 * params.sigma, 12.0 * params.sigma, 2001))
    g = edgeworth_cdf(exp_set, N, probes, r)
    right = dist._cumulative(np.searchsorted(z, probes, "right"))
    left = dist._cumulative(np.searchsorted(z, probes, "left"))
    return float(max(np.abs(right - g).max(), np.abs(left - g).max()))


@pytest.mark.parametrize(
    "name, r, N, oracle_kind, atoms, stride",
    [("diophantine_two_state", 1, 64, "dp", 1089, 1),
     ("diophantine_two_state", 1, 128, "dp", 4225, 1),
     ("diophantine_two_state", 1, 256, "dp", 16641, 1),
     ("diophantine_two_state", 1, 512, "dp", 66049, 4),
     ("two_state", 2, 1024, "dp", 1025, 1),
     ("doubling_ulam", 1, 256, "mc", 200000, 11)],
)
def test_classical_error_equals_that_of_the_standardized_law(name, r, N, oracle_kind, atoms,
                                                             stride):
    # the law read in its own coordinates, at the preimages of the probes,
    # gives the distance of the standardized law bit for bit; ``stride``
    # is the one _classical_error reads at ``atoms`` atoms
    model = bundled_model(name)
    exp_set = expansion_for_model(model, r)
    dist = exact_distribution(model, N, oracle_kind, seed=7, trials=2 * 10 ** 5)
    assert dist.support.size == atoms
    got = evaluate._classical_error(exp_set, dist, N, r)
    assert got == _standardized_error(exp_set, dist, N, r, stride)


def test_classical_error_refuses_a_standardized_support_that_overflows():
    # N A = 1.36e308 beside the law of the rewards +-1.7e308, so the
    # standardized lower atom is -inf.  The family of that law overflows,
    # so the expansion is a finite one with its drift set to that value
    model = iid_model(pmf=[[1.7e308, 0.9], [-1.7e308, 0.1]])
    with pytest.raises(ValidationError, match="^operator family overflows"):
        expansion_for_model(model, 0)
    exp_set = expansion_for_model(iid_model(pmf=[[1.0, 0.9], [-1.0, 0.1]]), 0)
    exp_set = dataclasses.replace(exp_set, params=dataclasses.replace(exp_set.params, A=1.36e308))
    with pytest.raises(ValidationError, match="standardized support overflows"):
        convergence_study(exp_set, model, "dp", 0, [1])


# ---------------------------------------------------------------- lattice pmf


def test_lattice_pmf_at_mean_is_gaussian_peak(two_state):
    model, exp_set = two_state
    N = 400
    k = N * exp_set.params.A  # kappa = 0 exactly
    sigma = exp_set.params.sigma
    want = 1.0 / math.sqrt(N) / math.sqrt(2.0 * math.pi * sigma * sigma)
    got = lattice_pmf(exp_set, N, k, r=0)
    assert abs(got - want) <= 1e-15


def test_lattice_pmf_matches_dp(two_state, dp_cache):
    model, exp_set = two_state
    N = 256
    dist = exact_distribution(model, N, "dp", cache=dp_cache)
    approx = lattice_pmf(exp_set, N, dist.support, span=1.0, r=2)
    assert float(np.max(np.abs(approx - dist.pmf))) <= 2e-5


def test_lattice_pmf_span_rescaling():
    # observable on the half-integer lattice: span must rescale the pmf
    model = markov_model(
        [[0.6, 0.4], [0.3, 0.7]],
        [[0.5, 1.0], [0.0, 1.5]],
        [0.5, 0.5],
    )
    assert model.lattice_span == 0.5
    exp_set = expansion_for_model(model, 2)
    dist = dp_pmf(model, 256)
    approx = lattice_pmf(exp_set, 256, dist.support, span=0.5, r=2)
    assert float(np.max(np.abs(approx - dist.pmf))) <= 1e-4


def test_lattice_pmf_sum_near_one(two_state, dp_cache):
    # approximate normalization only: the expansion does not sum to one
    # exactly, and the contract allows a 5e-3 band at N >= 256
    model, exp_set = two_state
    for N in (256, 1024):
        dist = exact_distribution(model, N, "dp", cache=dp_cache)
        lo = math.floor(dist.support.min())
        hi = math.ceil(dist.support.max())
        ks = np.arange(lo, hi + 1, 1.0)
        total = float(np.sum(lattice_pmf(exp_set, N, ks, span=1.0, r=2)))
        assert abs(total - 1.0) <= 5e-3


# ----------------------------------------------------------------- weak forms


def test_weak_global_gaussian_closed_form(two_state):
    # order 0 with a Gaussian bump collapses to a Gaussian convolution:
    # integral n_sigma(z) f(z sqrt(N)) dz = w / sqrt(w^2 + N sigma^2)
    model, exp_set = two_state
    sigma2 = exp_set.params.sigma2
    for w in (1.0, 2.0):
        f = TestFunction("gaussian-bump", 0.0, w)
        for N in (16, 64):
            got = weak_global(exp_set, f, N, r=0)
            want = w / math.sqrt(w * w + N * sigma2)
            assert abs(got - want) <= 1e-9


def test_weak_local_order_zero_closed_form(two_state):
    # constant leading polynomial sqrt(2 pi) / sigma integrates to w / sigma
    model, exp_set = two_state
    sigma = exp_set.params.sigma
    for w in (1.0, 0.5):
        f = TestFunction("gaussian-bump", 0.0, w)
        got = weak_local(exp_set, f, 64, r=0)
        assert abs(got - w / sigma) <= 1e-10


def test_weak_forms_match_dp_sums(two_state, dp_cache):
    model, exp_set = two_state
    f = TestFunction("gaussian-bump", 0.0, 1.0)
    rep = convergence_study(
        exp_set, model, "dp", 2, [64, 256], form="weak_global", f=f, cache=dp_cache
    )
    assert rep.raw[0] <= 1e-6
    assert rep.failure is None
    rep = convergence_study(
        exp_set, model, "dp", 2, [64, 256], form="weak_local", f=f, cache=dp_cache
    )
    assert rep.raw[0] <= 5e-3
    assert rep.failure is None


def test_averaged_single_center_ladder(two_state, dp_cache):
    model, exp_set = two_state
    f = TestFunction("gaussian-bump", 0.0, 1.0)
    rep = convergence_study(
        exp_set, model, "dp", 1, [64, 256], form="averaged", f=f, x=0.5,
        cache=dp_cache,
    )
    assert rep.raw[0] <= 5e-3
    assert rep.failure is None


def test_averaged_default_probe_set(two_state, dp_cache):
    # f defaults to the unit Gaussian bump and x sweeps {0, +-s, +-2s}
    model, exp_set = two_state
    rep = convergence_study(
        exp_set, model, "dp", 1, [64, 256], form="averaged", cache=dp_cache
    )
    assert rep.failure is None
    f = TestFunction("gaussian-bump", 0.0, 1.0)
    sigma = exp_set.params.sigma
    dist = exact_distribution(model, 256, "dp", cache=dp_cache)
    assert rep.raw[1] > 0.0
    # the sweep reports the worst single-center error
    singles = [
        convergence_study(
            exp_set, model, "dp", 1, [256], form="averaged", f=f,
            x=m * sigma, cache=dp_cache,
        ).raw[0]
        for m in (-2.0, -1.0, 0.0, 1.0, 2.0)
    ]
    assert abs(rep.raw[1] - max(singles)) <= 1e-15


def test_averaged_wide_functions_match_mpmath(two_state):
    # f spans many Gaussian widths: the rule runs only on the window
    # |x + y/sqrt(N)| <= 12 sigma, which 64 panels over f's whole support
    # would resolve to about 5e-11 at width 20 and N = 4, and the error's
    # normal-CDF part to about 2e-4 at width 50 and N = 1
    mpmath = pytest.importorskip("mpmath")
    model, exp_set = two_state
    s2, sigma, x = exp_set.params.sigma2, exp_set.params.sigma, 0.3
    for w, N in ((50.0, 1), (20.0, 4)):
        rootn = math.sqrt(N)
        f = TestFunction("gaussian-bump", 0.0, w)
        bump = lambda y: mpmath.exp(-y * y / (2 * w * w))

        def integrand(y):
            z = x + y / rootn
            poly = sum(mpmath.polyval(exp_set.P(p).coeffs[::-1].tolist(), z) * N ** (-p / 2.0)
                       for p in range(1, exp_set.r + 1))
            dens = mpmath.exp(-z * z / (2 * s2)) / mpmath.sqrt(2 * mpmath.pi * s2)
            return poly * dens * bump(y)

        with mpmath.workdps(30):
            # breakpoints every sigma sqrt(N) across the Gaussian's 24 sigma
            nodes = [rootn * (-x + k * sigma) for k in range(-24, 25)]
            want = float(mpmath.quad(integrand, nodes))
            gauss = mpmath.quad(lambda y: mpmath.ncdf(x + y / rootn, 0, sigma) * bump(y), nodes)
            gauss += mpmath.quad(bump, [nodes[-1], mpmath.inf])
        assert abs(averaged(exp_set, f, N, x, exp_set.r) - want) <= 1e-14
        # one atom at N A: the exact part is the tail of f above -x sqrt(N)
        dist = ExactDistribution(np.array([N * exp_set.params.A]), np.ones(1), N)
        err = float(f.tail_integral(-x * rootn) - gauss) - want
        got = evaluate._averaged_error(exp_set, dist, N, exp_set.r, f, x)
        assert abs(got - abs(err)) <= 1e-13


def test_compact_and_hermite_averaged_ladders_keep_their_values():
    # one adaptive Simpson integral per atom took 15 s (compact bump) and
    # 26 s (Hermite degree 2) on these ladders; these are its values
    model = bundled_model("diophantine_two_state")
    exp_set = expansion_for_model(model, 1)
    ladder = [16, 64, 256]
    cache = {}
    exact_distributions(model, ladder, "dp", cache=cache)
    cases = (
        (TestFunction("compact-bump", 0.0, 1.0),
         [8.826411597631131e-3, 2.5461765110401085e-3, 5.818478049459171e-4]),
        (TestFunction("hermite-damped", 0.0, 1.0, 2),
         [6.768626124061913e-3, 6.09731768685715e-4, 3.1617427352784486e-5]),
    )
    for f, want in cases:
        t0 = time.perf_counter()
        rep = convergence_study(exp_set, model, "dp", 1, ladder, form="averaged", f=f, cache=cache)
        elapsed = time.perf_counter() - t0
        assert np.max(np.abs(np.subtract(rep.raw, want))) <= 1e-10
        assert elapsed < 1.0


def test_weak_form_requires_test_function(two_state):
    model, exp_set = two_state
    with pytest.raises(ValidationError):
        convergence_study(exp_set, model, "dp", 1, [16, 32], form="weak_global")
    with pytest.raises(ValidationError):
        convergence_study(exp_set, model, "dp", 1, [16, 32], form="weak_local")


# ------------------------------------------------------------------ LCLT form


def test_lclt_closed_forms(two_state):
    # the local limit estimate is the order-0 lattice pmf times sqrt(N)
    model, exp_set = two_state
    A, sigma2 = exp_set.params.A, exp_set.params.sigma2
    peak = 1.0 / math.sqrt(2.0 * math.pi * sigma2)
    assert abs(8.0 * lattice_pmf(exp_set, 64, 64.0 * A, r=0) - peak) <= 1e-15
    # one-sigma point of the scaled sum: k - N A = sigma sqrt(N)
    k = 64.0 * A + 8.0 * math.sqrt(sigma2)
    want = math.exp(-0.5) * peak
    assert abs(8.0 * lattice_pmf(exp_set, 64, k, r=0) - want) <= 1e-15


def test_lclt_error_halves(two_state, dp_cache):
    # sup_k |sqrt(N) P(S_N = k) - density estimate| roughly halves per 4x N
    model, exp_set = two_state
    rep = convergence_study(exp_set, model, "dp", 0, [256, 1024], form="lattice",
                            cache=dp_cache)
    ratio = rep.raw[1] / rep.raw[0]
    assert 0.375 <= ratio <= 0.625


def test_lattice_reader_pools_every_monte_carlo_atom():
    # rewards 0.1 and 0.2 sum to floats near, not on, the multiples of the
    # span, several float-distinct atoms to a lattice point; the reader took
    # only the first atom at or above each point, 35 % of the mass at N = 16
    model = markov_model([[0.7, 0.3], [0.4, 0.6]], [[0.1, 0.0], [0.0, 0.2]], [0.5, 0.5])
    span = model.lattice_span
    assert span == 0.1
    exp_set = expansion_for_model(model, 0)
    for N in (16, 64, 256):
        dist = oracle.mc_sample(model, N, 2 * 10 ** 4, 5)
        k, inverse = np.unique(np.rint(dist.support / span), return_inverse=True)
        snapped = ExactDistribution(span * k, np.bincount(inverse, weights=dist.pmf), N)
        assert snapped.support.size < dist.support.size
        got = evaluate._lattice_error(exp_set, model, dist, N, 0)
        assert got == evaluate._lattice_error(exp_set, model, snapped, N, 0)


# ----------------------------------------------------------- moderate moddev


def test_moddev_fields_and_corollary(two_state):
    model, exp_set = two_state
    res = moddev_ratios(exp_set, model, 1.0, [10 ** 4])[0]
    want = 1.0 / math.sqrt(2.0 * math.pi) / math.sqrt(10 ** 4 * math.log(10 ** 4))
    assert abs(res.corollary_tail - want) <= 1e-18
    assert res.x == math.sqrt(exp_set.params.sigma2 * math.log(10 ** 4))
    assert res.exact_tail >= 0.0 and res.normal_tail > 0.0
    assert abs(res.ratio - res.exact_tail / res.normal_tail) <= 1e-15


def test_moddev_small_c_clamps_probe_at_one(two_state):
    model, exp_set = two_state
    res = moddev_ratios(exp_set, model, 1e-3, [64])[0]
    assert res.x == 1.0
    # one-sigma-ish point: exact and normal tails are the same scale
    assert 0.3 <= res.ratio <= 3.0


def test_moddev_validation(two_state):
    model, exp_set = two_state
    for c in (-0.5, 0.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            moddev_ratios(exp_set, model, c, [64])
    with pytest.raises(ValidationError):
        moddev_ratios(exp_set, model, 0.5, [1])


def test_moddev_ratios_are_one_sweep(two_state, monkeypatch):
    model, exp_set = two_state
    want = [moddev_ratios(exp_set, model, 0.5, [N])[0] for N in (64, 256)]
    calls = _count_ladders(monkeypatch)
    assert moddev_ratios(exp_set, model, 0.5, [64, 256]) == want
    assert calls == [[64, 256]]


# a string horizon raised a bare TypeError, and a bool c or N was read as 1
@pytest.mark.parametrize("c,N_list", [(-0.5, [64, 10 ** 8]), (0.5, [64, 1, 10 ** 8]),
                                      (1e300, [8, 10 ** 8]), ("0.5", [64]), (True, [64]),
                                      (0.5, ["16", 64]), (0.5, [True, 64]), (0.5, [16.0, 64])])
def test_moddev_ratios_validate_before_the_sweep(two_state, monkeypatch, c, N_list):
    model, exp_set = two_state
    calls = _count_ladders(monkeypatch)
    with pytest.raises(ValidationError):
        moddev_ratios(exp_set, model, c, N_list)
    assert calls == []


@pytest.mark.parametrize("oracle_kind", ["dp", "mc"])
def test_convergence_study_refuses_an_empty_ladder(two_state, oracle_kind):
    # "mc" returned a report with no rows that read as decreasing
    model, exp_set = two_state
    with pytest.raises(ValidationError, match="^N_list must hold at least one horizon"):
        convergence_study(exp_set, model, oracle_kind, 1, [], seed=1, trials=100)


@pytest.mark.parametrize("name, call", [
    # np.asarray read "0.5" as 0.5 and True as 1.0
    ("z", lambda exp_set, v: edgeworth_cdf(exp_set, 8, v, 2)),
    ("k", lambda exp_set, v: lattice_pmf(exp_set, 8, [0.0, v], 2)),
    # "0.5" raised a bare TypeError
    ("x", lambda exp_set, v: averaged(exp_set, TestFunction("gaussian-bump"), 8, v, 2)),
])
@pytest.mark.parametrize("value", ["0.5", True])
def test_evaluators_read_their_points_as_real_numbers(two_state, name, call, value):
    with pytest.raises(ValidationError, match=f"^{name} must be a real number"):
        call(two_state[1], value)


@pytest.mark.parametrize("x", ["0.5", True])
def test_convergence_study_reads_x_as_a_real_number(two_state, x):
    model, exp_set = two_state
    with pytest.raises(ValidationError, match="^x must be a real number"):
        convergence_study(exp_set, model, "dp", 1, [8, 16], form="averaged", x=x)


def test_moddev_nonlattice_needs_enumeration():
    model = bundled_model("diophantine_two_state")
    exp_set = expansion_for_model(model, 2)
    # the reward-count DP covers the non-lattice chain up to its cell budget
    for N in (16, 150):
        res = moddev_ratios(exp_set, model, 0.5, [N])[0]
        assert 0.0 < res.exact_tail < 1.0
    with pytest.raises(TableTooLarge):
        moddev_ratios(exp_set, model, 0.5, [3200])


# --------------------------------------------------------- convergence study


def test_study_order_zero_clt(two_state, dp_cache):
    model, exp_set = two_state
    rep = convergence_study(
        exp_set, model, "dp", 0, [64, 256, 1024], form="classical", cache=dp_cache
    )
    assert rep.raw[0] > rep.raw[1] > rep.raw[2]
    assert rep.form == "classical" and rep.oracle_kind == "dp" and rep.r == 0


def test_study_rows_shape(two_state, dp_cache):
    model, exp_set = two_state
    rep = convergence_study(exp_set, model, "dp", 1, [64, 256], cache=dp_cache)
    rows = rep.rows()
    assert len(rows) == 2 and len(rows[0]) == 3
    assert rows[0][0] == 64
    assert abs(rows[0][2] - rows[0][1] * 8.0) <= 1e-15


def test_study_reports_monte_carlo_band(two_state, dp_cache):
    model, exp_set = two_state
    rep = convergence_study(exp_set, model, "mc", 1, [16, 32], trials=3000, seed=4)
    band = math.sqrt(math.log(200.0) / (2 * 3000))
    assert rep.dkw99 == [band, band]
    assert len(rep.rows()[0]) == 3
    exact = convergence_study(exp_set, model, "dp", 1, [64, 256], cache=dp_cache)
    assert exact.dkw99 == [None, None]


def _table(raw, N_list, r=0, form="lattice"):
    return evaluate.ConvergenceReport(form, "dp", r, N_list, raw, [None] * len(N_list))


def test_report_stores_only_what_was_measured():
    fields = dataclasses.fields(evaluate.ConvergenceReport)
    assert [f.name for f in fields] == ["form", "oracle_kind", "r", "N_list", "raw", "dkw99"]
    assert all(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
               for f in fields)


@pytest.mark.parametrize("raw, N_list, r", [
    ([0.4, 0.3, 0.2], [16, 64, 256], 0),
    ([0.4, 0.19], [16, 64], 1),
    ([0.4], [16], 2),  # one horizon: no step to fail
])
def test_verdict_passes_a_strictly_falling_column(raw, N_list, r):
    assert _table(raw, N_list, r).failure is None


@pytest.mark.parametrize("raw, r", [
    ([0.4, 0.4], 0),  # a tie: the test is strict
    ([0.4, 0.2], 1),  # the same tie in the scaled column
    ([0.4, 0.5], 0),
    ([0.4, math.nan], 0),
    ([math.nan, 0.1], 0),
])
def test_verdict_refuses_a_column_that_does_not_fall(raw, r):
    assert _table(raw, [16, 64], r).failure is not None


@pytest.mark.parametrize("form", ["classical", "lattice", "weak_local", "weak_global", "averaged"])
def test_verdict_reason_is_the_text_of_the_cli(form):
    N_list = [8, 16, 32]
    assert _table([0.1, 0.2, 0.3], N_list, form=form).failure == (
        f"scaled {form} error is not strictly decreasing over {N_list}")


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_scaled_column_is_the_error_times_the_power_of_n(r):
    raw, N_list = [0.3, 0.07, 0.011, 1.3e-3], [7, 19, 64, 1000]
    want = [raw[i] * N_list[i] ** (r / 2) for i in range(4)]
    rep = _table(raw, N_list, r)
    assert rep.scaled == want
    assert rep.rows() == list(zip(N_list, raw, want))


def test_study_validation(two_state):
    model, exp_set = two_state
    with pytest.raises(ValidationError):
        convergence_study(exp_set, model, "dp", 1, [64, 64])
    with pytest.raises(ValidationError):
        convergence_study(exp_set, model, "dp", 1, [256, 64])
    # unknown forms and oracles are refused before any oracle runs
    cache = {}
    with pytest.raises(ValidationError):
        convergence_study(exp_set, model, "dp", 1, [64, 256], form="modal", cache=cache)
    with pytest.raises(ValidationError):
        convergence_study(exp_set, model, "spectral", 1, [64, 256], cache=cache)
    assert cache == {}
    # int() made [16.7, 32.2] the ladder [16, 32]
    with pytest.raises(ValidationError, match="^N_list must be an integer"):
        convergence_study(exp_set, model, "dp", 1, [16.7, 32.2])


def _count_ladders(monkeypatch):
    # the horizon lists of every DP sweep from here on
    calls = []
    real = oracle.dp_ladder
    monkeypatch.setattr(oracle, "dp_ladder", lambda m, ns: calls.append(list(ns)) or real(m, ns))
    return calls


def test_study_runs_one_sweep_and_fills_the_cache(two_state, monkeypatch):
    model, exp_set = two_state
    alone = [dp_pmf(model, N) for N in (64, 128, 256)]
    calls = _count_ladders(monkeypatch)
    cache = {}
    rep = convergence_study(exp_set, model, "dp", 1, [64, 128, 256], cache=cache)
    assert calls == [[64, 128, 256]]
    # every horizon is stored under the key a single call reads
    got = [exact_distribution(model, N, "dp", cache=cache) for N in (64, 128, 256)]
    assert calls == [[64, 128, 256]]
    assert len(cache) == 3
    for dist, want in zip(got, alone):
        assert np.array_equal(dist.pmf, want.pmf) and dist.meta == want.meta
    # a study without a cache runs one sweep as well, to the same errors
    assert convergence_study(exp_set, model, "dp", 1, [64, 128, 256]).raw == rep.raw
    assert calls == [[64, 128, 256]] * 2


def test_study_sweeps_only_the_horizons_missing_from_the_cache(two_state, monkeypatch):
    model, exp_set = two_state
    cache = {}
    held = exact_distribution(model, 128, "dp", cache=cache)
    calls = _count_ladders(monkeypatch)
    dists = exact_distributions(model, [64, 128, 256], "dp", cache=cache)
    assert calls == [[64, 256]]
    assert dists[1] is held
    assert exact_distributions(model, [64, 128, 256], "dp", cache=cache) == dists
    assert len(calls) == 1


def test_exact_distribution_cache_reuse(two_state):
    model, exp_set = two_state
    cache = {}
    first = exact_distribution(model, 64, "dp", cache=cache)
    second = exact_distribution(model, 64, "dp", cache=cache)
    assert first is second
    # Monte Carlo keys include seed and trial count
    a = exact_distribution(model, 16, "mc", seed=1, trials=2000, cache=cache)
    b = exact_distribution(model, 16, "mc", seed=2, trials=2000, cache=cache)
    assert a is not b
    # without a cache nothing is memoized
    assert exact_distribution(model, 64, "dp") is not first
    # a model without a chain is refused before its key is built
    size = len(cache)
    with pytest.raises(OracleUnavailable):
        exact_distribution(bundled_model("iid_moments"), 16, "dp", cache=cache)
    assert len(cache) == size


def test_dp_is_the_one_name_of_the_exact_oracle(two_state):
    # "enum" was a second name for the same dynamic program
    model, exp_set = two_state
    with pytest.raises(ValidationError):
        exact_distribution(model, 16, "enum")


def test_package_exposes_no_removed_helpers():
    import edgeworth

    for name in ("FunctionCdf", "cdf_callable", "erf", "normal_density"):
        assert not hasattr(edgeworth, name), name
    assert not hasattr(oracle, "FunctionCdf") and not hasattr(oracle, "erf")
    assert not hasattr(oracle, "normal_density") and not hasattr(evaluate, "cdf_callable")
    assert not hasattr(ExactDistribution, "to_csv")
    assert not hasattr(TestFunction, "smoothness")
