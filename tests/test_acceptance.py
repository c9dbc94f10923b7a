"""Acceptance ladder: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute; without ``-s`` they appear for failing tests only.
"""

import math
import time

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from chains import dense_family
from edgeworth.evaluate import (
    TestFunction,
    convergence_study,
    moddev_ratios,
    quadrature,
)
from edgeworth.errors import DegenerateVariance
from edgeworth.expansion import expansion_for_model
from edgeworth.jets import jet_exp, jet_log, jet_mul
from edgeworth.models import bundled_model, diophantine_scan, markov_model, ulam_model
from edgeworth.oracle import exact_moments
from edgeworth.spectral import (
    eigen_perturbation,
    norm_decay_scan,
    perron_base,
)

ALL_BUNDLED = (
    "two_state",
    "three_state_lattice",
    "diophantine_two_state",
    "bernoulli",
    "iid_moments",
    "doubling_ulam",
)


def power_eigenvalue(M, iters=200, tol=1e-10):
    """Leading eigenvalue (complex) by power iteration with a Rayleigh
    quotient; requires a strictly dominant simple eigenvalue."""
    M = np.asarray(M, dtype=complex)
    x = 1.0 / np.arange(1.0, M.shape[0] + 1.0) + 0j
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


def report(num, label, ok, detail):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def two_state():
    model = bundled_model("two_state")
    return model, expansion_for_model(model, 3)


@pytest.fixture(scope="module")
def dp_cache():
    return {}


def test_criterion_01_series_algebra():
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    worst = 0.0
    jets = []
    for _ in range(1000):
        order = int(rng.integers(1, 13))
        mod = rng.uniform(0.0, 1.0, order + 1)
        arg = rng.uniform(-math.pi, math.pi, order + 1)
        coeffs = mod * np.exp(1j * arg)
        # keep the constant imaginary part inside the principal branch
        coeffs[0] = mod[0] * math.cos(arg[0]) + 1j * mod[0] * math.sin(arg[0]) * 0.3
        jets.append(coeffs)
    for j in jets:
        back = jet_log(jet_exp(j))
        worst = max(worst, float(np.max(np.abs(back - j))))
    for a, b in zip(jets[0::2], jets[1::2]):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        lhs = jet_exp(a + b)
        rhs = jet_mul(jet_exp(a), jet_exp(b))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-11 and elapsed < 5.0
    assert report(1, "series-algebra", ok, f"worst {worst:.2e}, {elapsed:.2f}s < 5s")


def test_criterion_02_eigen_jets_vs_finite_differences():
    model = markov_model(
        [[0.7, 0.3], [0.4, 0.6]], [[1.0, 0.0], [0.0, 0.0]], [0.5, 0.5]
    )
    fam = model.operator_family(4)
    base = perron_base(fam)
    jets = eigen_perturbation(fam, base)
    d1, d2 = jets.mu[1], 2.0 * jets.mu[2]
    h = 1e-4
    # the second difference divides by h^2 = 1e-8, so the power iteration
    # must run to the machine-precision floor, not its default tolerance
    mu_p = power_eigenvalue(dense_family(model, h), tol=0.0)
    mu_m = power_eigenvalue(dense_family(model, -h), tol=0.0)
    fd1 = (mu_p - mu_m) / (2.0 * h)
    fd2 = (mu_p - 2.0 + mu_m) / (h * h)
    rel1 = abs(d1 - fd1) / abs(fd1)
    rel2 = abs(d2 - fd2) / abs(fd2)
    pi_err = float(np.max(np.abs(base.left - np.array([4.0 / 7.0, 3.0 / 7.0]))))
    ok = rel1 <= 1e-6 and rel2 <= 1e-6 and pi_err <= 1e-12
    assert report(
        2,
        "eigen-jets",
        ok,
        f"rel {rel1:.2e}/{rel2:.2e}, stationary {pi_err:.1e}",
    )


def test_criterion_03_moment_coefficients_vs_dp():
    t0 = time.monotonic()
    model = bundled_model("three_state_lattice")
    exp_set = expansion_for_model(model, 4)  # jets through order six
    errs = []
    for n in (10, 20, 40):
        ex = exact_moments(model, n, 6)
        worst = 0.0
        for k in range(1, 7):
            approx = sum(exp_set.a(k, j) * n ** j for j in range(k // 2 + 1))
            worst = max(worst, abs(ex[k] - approx) / max(1.0, abs(ex[k])))
        errs.append(worst)
    elapsed = time.monotonic() - t0
    ok = (
        errs[2] <= 1e-8
        and errs[1] <= 0.5 * errs[0]
        and errs[2] <= 0.5 * errs[1]
        and elapsed < 10.0
    )
    assert report(
        3,
        "moment-coefficients",
        ok,
        f"rel at n=10/20/40: {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e}, "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_04_iid_closed_forms():
    exp_set = expansion_for_model(bundled_model("iid_moments"), 2)
    s2 = exp_set.params.sigma2
    k3, k4 = 2.0, 4.0
    sig = math.sqrt(s2)
    root = math.sqrt(2.0 * math.pi)
    cases = [
        (exp_set.A(1), [0, 0, 0, k3 / 6]),
        (exp_set.R(1), [0, -3 * k3 / (6 * s2 ** 2), 0, k3 / (6 * s2 ** 3)]),
        (exp_set.P(1), [k3 / (6 * s2), 0, -k3 / (6 * s2 ** 2)]),
        (exp_set.A(2), [0, 0, 0, 0, k4 / 24, 0, k3 ** 2 / 72]),
        (exp_set.weak_local(0), [root]),
        (
            exp_set.weak_local(1),
            [
                root * (-5 * k3 ** 2 / (24 * sig ** 7) + k4 / (8 * sig ** 5)),
                root * (-k3 / (2 * sig ** 5)),
                root * (-1 / (2 * sig ** 3)),
            ],
        ),
    ]
    worst = max(float(np.abs(npoly.polysub(got.coeffs, want)).max()) for got, want in cases)
    ok = worst <= 1e-12
    assert report(4, "iid-closed-forms", ok, f"worst coefficient gap {worst:.2e}")


def test_criterion_05_structural_identities():
    parity_worst = 0.0
    ident_worst = 0.0
    quad_worst = 0.0
    for name in ALL_BUNDLED:
        exp_set = expansion_for_model(bundled_model(name), 3)
        s2 = exp_set.params.sigma2
        for k in range(4):
            coeffs = exp_set.A(k).coeffs
            bad = coeffs[(np.arange(coeffs.size) - k) % 2 == 1]
            if bad.size:
                parity_worst = max(parity_worst, float(np.max(np.abs(bad))))
        for p in range(1, 4):
            # R_p = P_p' - (x / sigma2) P_p
            cdf = exp_set.P(p).coeffs
            want = npoly.polysub(npoly.polyder(cdf), npoly.polymul([0.0, 1.0 / s2], cdf))
            gap = np.abs(npoly.polysub(exp_set.R(p).coeffs, want)).max()
            ident_worst = max(ident_worst, float(gap))
        sig = exp_set.params.sigma
        for m in range(7):
            closed = 0.0 if m % 2 else sig ** m * math.prod(range(1, m, 2))
            dens = lambda x, m=m: x ** m * np.exp(-0.5 * x * x / s2) / math.sqrt(
                2.0 * math.pi * s2
            )
            got = quadrature(dens, -12.0 * sig, 12.0 * sig)
            quad_worst = max(quad_worst, abs(got - closed))
    ok = parity_worst <= 1e-12 and ident_worst <= 1e-12 and quad_worst <= 1e-9
    assert report(
        5,
        "structural-identities",
        ok,
        f"parity {parity_worst:.1e}, density-cdf link {ident_worst:.1e}, "
        f"gaussian moments {quad_worst:.1e}",
    )


def test_criterion_06_lattice_convergence(two_state, dp_cache):
    model, exp_set = two_state
    t0 = time.monotonic()
    ladder = [64, 256, 1024, 4096]
    rep1 = convergence_study(
        exp_set, model, "dp", 1, ladder, form="lattice", cache=dp_cache
    )
    rep2 = convergence_study(
        exp_set, model, "dp", 2, [64, 4096], form="lattice", cache=dp_cache
    )
    elapsed = time.monotonic() - t0
    ok = rep1.decreasing and rep2.scaled[1] < rep2.scaled[0] and elapsed < 60.0
    scaled = "/".join(f"{s:.3e}" for s in rep1.scaled)
    assert report(
        6,
        "lattice-convergence",
        ok,
        f"order-1 scaled {scaled}, order-2 ends "
        f"{rep2.scaled[0]:.3e}->{rep2.scaled[1]:.3e}, {elapsed:.1f}s < 60s",
    )


def test_criterion_07_classical_convergence_nonlattice():
    t0 = time.monotonic()
    model = bundled_model("diophantine_two_state")
    exp_set = expansion_for_model(model, 1)
    rep = convergence_study(
        exp_set, model, "dp", 1, [8, 10, 12, 14, 16, 18], form="classical"
    )
    elapsed = time.monotonic() - t0
    ok = rep.decreasing and elapsed < 120.0
    scaled = "/".join(f"{s:.4f}" for s in rep.scaled)
    assert report(
        7, "classical-convergence", ok, f"scaled {scaled}, {elapsed:.1f}s < 120s"
    )


def test_criterion_08_weak_local_convergence(two_state, dp_cache):
    model, exp_set = two_state
    f = TestFunction("gaussian-bump", 0.0, 1.0)
    rep = convergence_study(
        exp_set, model, "dp", 2, [64, 256, 1024], form="weak_local", f=f,
        cache=dp_cache,
    )
    ok = rep.decreasing
    scaled = "/".join(f"{s:.3e}" for s in rep.scaled)
    assert report(8, "weak-local-convergence", ok, f"scaled {scaled}")


def test_criterion_09_lclt_rate(two_state, dp_cache):
    model, exp_set = two_state
    # the lattice form at order 0 is the local limit estimate (span 1)
    sups = convergence_study(exp_set, model, "dp", 0, [256, 1024], form="lattice",
                             cache=dp_cache).raw
    ratio = sups[1] / sups[0]
    ok = ratio <= 0.55
    assert report(
        9, "lclt-rate", ok, f"sup {sups[0]:.3e}->{sups[1]:.3e}, ratio {ratio:.3f}"
    )


def test_criterion_10_moderate_deviations(two_state):
    model, exp_set = two_state
    res = moddev_ratios(exp_set, model, 0.5, [4096])[0]
    ok = 0.8 <= res.ratio <= 1.2
    assert report(
        10,
        "moderate-deviations",
        ok,
        f"x {res.x:.3f}, exact/normal ratio {res.ratio:.4f}",
    )


def test_criterion_11_diagnostics_sanity():
    model = bundled_model("diophantine_two_state")
    grid = np.round(np.arange(0.5, 100.0 + 1e-9, 0.1), 10)
    rows = norm_decay_scan(model, grid, 2)
    max_radius = max(rad for _, _, rad in rows)
    scan = diophantine_scan(model, grid)
    theta = math.inf
    for (t, nrm, _), d in zip(rows, scan.d):
        if d > 0:
            theta = min(theta, (1.0 - nrm) / (d * d))
    ok = max_radius < 1.0 - 1e-6 and theta >= 1e-6
    assert report(
        11,
        "diagnostics-sanity",
        ok,
        f"max radius {max_radius:.8f}, theta {theta:.2e}",
    )


def test_criterion_12_ulam_monte_carlo():
    t0 = time.monotonic()
    model = bundled_model("doubling_ulam")
    exp_set = expansion_for_model(model, 1)
    N = 512
    rep = convergence_study(exp_set, model, "mc", 1, [N], seed=20260814, trials=10 ** 6)
    ks = rep.raw[0]
    elapsed = time.monotonic() - t0
    ok = ks <= 0.01 and elapsed < 120.0
    assert report(
        12, "ulam-monte-carlo", ok, f"KS {ks:.5f} <= 0.01, {elapsed:.1f}s < 120s"
    )
    # the value pinned for this seed in bench/reference.json: any drift in
    # the Monte Carlo stream fails here
    assert abs(ks - 6.1959635892594e-4) <= 1e-9


def test_criterion_13_classical_convergence_long_ladder():
    # the non-lattice classical claim out to N = 512 through the exact
    # reward-count DP; the scaled errors are pinned to their measured values
    t0 = time.monotonic()
    model = bundled_model("diophantine_two_state")
    exp_set = expansion_for_model(model, 1)
    rep = convergence_study(
        exp_set, model, "dp", 1, [64, 128, 256, 512], form="classical"
    )
    elapsed = time.monotonic() - t0
    ok = rep.decreasing and elapsed < 30.0
    scaled = "/".join(f"{s:.5f}" for s in rep.scaled)
    assert report(
        13, "classical-long-ladder", ok, f"scaled {scaled}, {elapsed:.1f}s < 30s"
    )
    pinned = [0.07565945141106223, 0.05300753666242608, 0.03688406813172129, 0.02578095073354668]
    assert np.abs(np.array(rep.scaled) - pinned).max() <= 1e-9


def test_criterion_14_ulam_closed_form_rate():
    # for g = cos(2 pi x) under x -> 2x mod 1, P_1(z) = 1/4 - z^2/2; Ulam's
    # method converges at the rate cells**-2 (T.-Y. Li, J. Approx. Theory
    # 17, 1976), so the error of P_1(0) must shrink 4-fold per doubling
    t0 = time.monotonic()
    errors = []
    for cells in (512, 1024, 2048, 4096):
        model = ulam_model("doubling", g=lambda x: np.cos(2.0 * np.pi * x), cells=cells)
        errors.append(abs(expansion_for_model(model, 1).P(1).coeffs[0] - 0.25))
        del model
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    elapsed = time.monotonic() - t0
    ok = all(3.9 <= q <= 4.1 for q in ratios) and elapsed < 30.0
    errs = "/".join(f"{e:.3g}" for e in errors)
    ratio_text = "/".join(f"{q:.3f}" for q in ratios)
    assert report(
        14, "ulam-closed-form-rate", ok,
        f"|P1(0) - 1/4| {errs}, ratios {ratio_text} in [3.9, 4.1], {elapsed:.1f}s < 30s",
    )


def test_criterion_15_ulam_moments_vs_coefficients():
    # the moment oracle on the 1024-cell doubling chain against the
    # expansion's coefficients: the deflated doubling operator vanishes
    # after log2(cells) = 10 steps, so from N = 10 on the centered moments
    # are the polynomials sum_j a_{k,j} N**j up to rounding
    t0 = time.monotonic()
    model = bundled_model("doubling_ulam")
    exp_set = expansion_for_model(model, 4)  # jets through order six
    errs = []
    for n in (16, 64):
        ex = exact_moments(model, n, 6)
        worst = 0.0
        for k in range(7):
            approx = sum(exp_set.a(k, j) * n ** j for j in range(k // 2 + 1))
            worst = max(worst, abs(ex[k] - approx) / max(1.0, abs(ex[k])))
        errs.append(worst)
    elapsed = time.monotonic() - t0
    ok = max(errs) <= 1e-10 and elapsed < 10.0
    assert report(
        15,
        "ulam-moments",
        ok,
        f"rel at n=16/64: {errs[0]:.1e}/{errs[1]:.1e} <= 1e-10, {elapsed:.2f}s < 10s",
    )


def test_criterion_16_degenerate_variance_refused():
    # negative control: rewards h(j, k) = c(k) - c(j) on two_state's chain
    # telescope, so S_N = c(X_N) - c(X_0) stays bounded and sigma^2 = 0;
    # two_state itself, with the same chain, passes
    P = [[0.7, 0.3], [0.4, 0.6]]
    c = (0.0, 1.0)
    coboundary = markov_model(P, [[c[k] - c[j] for k in range(2)] for j in range(2)], [1.0, 0.0])
    try:
        expansion_for_model(coboundary, 2)
        refused = "nothing"
    except DegenerateVariance as exc:
        refused = f"DegenerateVariance ({exc})"
    sigma2 = expansion_for_model(bundled_model("two_state"), 2).params.sigma2
    ok = refused.startswith("DegenerateVariance") and sigma2 > 0.1
    assert report(
        16, "degenerate-variance-refused", ok,
        f"coboundary rewards refused with {refused}; two_state sigma2 {sigma2:.4f}",
    )
