"""Polynomial families: closed forms, structural identities, moments."""

import math

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from edgeworth.errors import NonZeroMean, ValidationError
from edgeworth.expansion import (
    antiderivative_poly,
    build_expansion,
    expansion_for_model,
    hermite_transform,
    weak_local_polys,
)
from edgeworth.jets import Polynomial
from edgeworth.models import bundled_model, iid_model
from edgeworth.oracle import dp_pmf
from edgeworth.spectral import eigen_perturbation, perron_base

def coeff_gap(got, want):
    """Largest absolute coefficient difference of two coefficient arrays."""
    return float(np.abs(npoly.polysub(got, want)).max())


# exact rational values for the bundled chains, derived by stationary
# analysis and exact-fraction dynamic programming
TWO_STATE_A = 0.4  # = 2/5
TWO_STATE_SIGMA2 = 102.0 / 175.0
THREE_STATE_A = 13.0 / 15.0
THREE_STATE_SIGMA2 = 4039.0 / 4275.0


def test_two_state_asymptotic_params():
    exp_set = expansion_for_model(bundled_model("two_state"), 2)
    assert abs(exp_set.params.A - TWO_STATE_A) <= 1e-13
    assert abs(exp_set.params.sigma2 - TWO_STATE_SIGMA2) <= 1e-13


def test_three_state_asymptotic_params():
    exp_set = expansion_for_model(bundled_model("three_state_lattice"), 2)
    assert abs(exp_set.params.A - THREE_STATE_A) <= 1e-13
    assert abs(exp_set.params.sigma2 - THREE_STATE_SIGMA2) <= 1e-13


def test_iid_closed_forms():
    # 3-point law with mean 0, variance 1, E X^3 = 2, E X^4 = 7
    exp_set = expansion_for_model(bundled_model("iid_moments"), 2)
    s2 = exp_set.params.sigma2
    assert exp_set.params.A == 0.0 and abs(s2 - 1.0) <= 1e-14
    k3, k4 = 2.0, 4.0

    def close(poly, want):
        return coeff_gap(poly.coeffs, want) <= 1e-12

    assert close(exp_set.A(1), [0, 0, 0, k3 / 6])
    assert close(exp_set.R(1), [0, -3 * k3 / (6 * s2**2), 0, k3 / (6 * s2**3)])
    assert close(exp_set.P(1), [k3 / (6 * s2), 0, -k3 / (6 * s2**2)])
    assert close(exp_set.A(2), [0, 0, 0, 0, k4 / 24, 0, k3**2 / 72])
    root = math.sqrt(2 * math.pi)
    assert close(exp_set.weak_local(0), [root])
    sig = math.sqrt(s2)
    assert close(
        exp_set.weak_local(1),
        [
            root * (-5 * k3**2 / (24 * sig**7) + k4 / (8 * sig**5)),
            root * (-k3 / (2 * sig**5)),
            root * (-1 / (2 * sig**3)),
        ],
    )


def test_bernoulli_symmetric_orders_vanish():
    exp_set = expansion_for_model(bundled_model("bernoulli"), 2)
    # symmetric law: zero skewness kills every odd family
    assert np.abs(exp_set.A(1).coeffs).max() <= 1e-14
    assert np.abs(exp_set.R(1).coeffs).max() <= 1e-14
    assert np.abs(exp_set.P(1).coeffs).max() <= 1e-14
    assert abs(exp_set.params.sigma2 - 0.25) <= 1e-14
    # kurtosis excess of Bernoulli(1/2) is -1/8
    assert abs(exp_set.A(2).coeffs[4] - (-0.125) / 24) <= 1e-14


def test_frequency_parity_and_degree():
    for name in ("two_state", "three_state_lattice", "doubling_ulam"):
        exp_set = expansion_for_model(bundled_model(name), 3)
        for k in range(4):
            coeffs = exp_set.A(k).coeffs
            assert len(coeffs) - 1 <= 3 * k
            for j, c in enumerate(coeffs):
                if (j - k) % 2 != 0:
                    assert c == 0.0


def test_density_cdf_identity_all_models():
    # iid_moments stores eight moments, enough for order 6
    for name in ("two_state", "three_state_lattice", "diophantine_two_state",
                 "bernoulli", "iid_moments", "doubling_ulam"):
        r = 6 if name == "iid_moments" else 8
        exp_set = expansion_for_model(bundled_model(name), r)
        s2 = exp_set.params.sigma2
        for p in range(1, r + 1):
            # d/dx [dens P_p] = dens R_p, i.e. R_p = P_p' - (x / sigma2) P_p
            lhs, cdf = exp_set.R(p).coeffs, exp_set.P(p).coeffs
            rhs = npoly.polysub(npoly.polyder(cdf), npoly.polymul([0.0, 1.0 / s2], cdf))
            scale = np.abs(lhs).max()
            assert coeff_gap(lhs, rhs) <= 1e-12 * scale, (name, p)


def _reference_cdf_poly(freq_coeffs, sigma2):
    """``P_p`` from the coefficients of ``A_p`` in 50-digit arithmetic.

    ``P_p = -sum_m c_m sigma**(1-m) He_{m-1}(x / sigma)``, with the Hermite
    coefficients as exact integers.
    """
    he = [[1], [0, 1]]
    for m in range(1, len(freq_coeffs)):
        nxt = [0] + he[m]
        for j, v in enumerate(he[m - 1]):
            nxt[j] -= m * v
        he.append(nxt)
    with mpmath.workdps(50):
        sigma = mpmath.sqrt(mpmath.mpf(sigma2))
        out = [mpmath.mpf(0)] * len(freq_coeffs)
        for m in range(1, len(freq_coeffs)):
            for j, h in enumerate(he[m - 1]):
                out[j] -= mpmath.mpf(freq_coeffs[m]) * h * sigma ** (1 - m - j)
        return np.array([float(v) for v in out])


def test_cdf_polys_match_high_precision_hermite_map():
    for name in ("two_state", "three_state_lattice", "diophantine_two_state",
                 "bernoulli", "iid_moments", "doubling_ulam"):
        r = 6 if name == "iid_moments" else 8
        exp_set = expansion_for_model(bundled_model(name), r)
        for p in range(1, r + 1):
            want = _reference_cdf_poly(exp_set.A(p).coeffs, exp_set.params.sigma2)
            got = exp_set.P(p).coeffs
            got = np.pad(got, (0, want.size - got.size))
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-12 * scale, (name, p)


def test_r0_is_one_and_order0_expansion():
    exp_set = expansion_for_model(bundled_model("two_state"), 0)
    assert exp_set.R(0).coeffs.tolist() == [1.0]
    assert exp_set.edge_p == []
    assert len(exp_set.weak_local_list) == 1


def test_antiderivative_requires_zero_mean():
    # R with a nonzero Gaussian mean has no polynomial antiderivative pair
    with pytest.raises(NonZeroMean):
        antiderivative_poly(Polynomial([1.0]), 1.0)


def test_hermite_transform_single_cubic():
    # A(t) = (it)^3 maps to He_3(x/s)/s^3 which is (x^3 - 3 s^2 x)/s^6
    s2 = 0.7
    out = hermite_transform(Polynomial([0, 0, 0, 1.0]), s2)
    want = [0.0, -3.0 / s2**2, 0.0, 1.0 / s2**3]
    assert coeff_gap(out.coeffs, want) <= 1e-13


def test_weak_local_constant_term():
    # P_{0,l} is the constant sqrt(2 pi)/sigma for every model
    for name in ("two_state", "iid_moments", "doubling_ulam"):
        exp_set = expansion_for_model(bundled_model(name), 2)
        sig = exp_set.params.sigma
        poly = exp_set.weak_local(0)
        assert len(poly.coeffs) == 1
        assert abs(poly.coeffs[0] - math.sqrt(2 * math.pi) / sig) <= 1e-12


def test_moment_coefficients_match_dp():
    # a_{k,j} reproduce exact centered moments up to geometric remainder
    m = bundled_model("three_state_lattice")
    exp_set = expansion_for_model(m, 4)
    n = 40
    dist = dp_pmf(m, n)
    for k in range(1, 7):
        pred = sum(exp_set.a(k, j) * n**j for j in range(k // 2 + 1))
        exact = dist.centered_moment(n * exp_set.params.A, k)
        assert abs(exact - pred) <= 1e-8 * max(1.0, abs(exact))


def test_moment_coefficient_a21_is_variance():
    for name in ("two_state", "three_state_lattice", "iid_moments"):
        exp_set = expansion_for_model(bundled_model(name), 2)
        assert abs(exp_set.a(2, 1) - exp_set.params.sigma2) <= 1e-12


def test_negative_order_rejected():
    m = bundled_model("two_state")
    fam = m.operator_family(4)
    base = perron_base(fam)
    jets = eigen_perturbation(fam, base)
    with pytest.raises(ValidationError):
        build_expansion(jets, -1)


@pytest.mark.parametrize("r", [True, "2", 2.0])
def test_expansion_order_must_be_an_integer(r):
    # True built an order-1 set and "2" raised a bare TypeError
    with pytest.raises(ValidationError, match="^r must be an integer"):
        expansion_for_model(bundled_model("two_state"), r)


def test_weak_local_polys_are_real_and_sized():
    exp_set = expansion_for_model(bundled_model("two_state"), 4)
    assert len(exp_set.weak_local_list) == 3
    for p in range(3):
        coeffs = exp_set.weak_local(p).coeffs
        assert coeffs.dtype.kind == "f"
        assert len(coeffs) - 1 <= 2 * p
