"""Truncated series arithmetic: identities, inverses, broadcasting and error paths."""

import math

import numpy as np
import pytest

from edgeworth.errors import DivByZeroConstantTerm, LogOfZeroConstantTerm
from edgeworth.jets import (
    Polynomial,
    bi_exp,
    bi_mul,
    jet_div,
    jet_exp,
    jet_log,
    jet_mul,
)


def _random_jet(rng, order, scale=1.0, shape=()):
    size = (order + 1,) + shape
    return rng.uniform(-scale, scale, size) + 1j * rng.uniform(-scale, scale, size)


def test_mul_matches_direct_convolution():
    rng = np.random.default_rng(1)
    for _ in range(200):
        order = int(rng.integers(0, 11))
        a = _random_jet(rng, order)
        b = _random_jet(rng, order)
        got = jet_mul(a, b)
        want = np.zeros(order + 1, dtype=complex)
        for m in range(order + 1):
            for j in range(m + 1):
                want[m] += a[j] * b[m - j]
        assert np.abs(got - want).max() <= 1e-13


def test_mul_commutes_exactly():
    rng = np.random.default_rng(2)
    for _ in range(200):
        order = int(rng.integers(0, 13))
        a = _random_jet(rng, order)
        b = _random_jet(rng, order)
        assert np.array_equal(jet_mul(a, b), jet_mul(b, a))


def test_mul_truncates_at_smaller_order():
    rng = np.random.default_rng(7)
    a = _random_jet(rng, 6)
    b = _random_jet(rng, 3)
    assert np.array_equal(jet_mul(a, b), jet_mul(a[:4], b))


def test_div_inverts_mul():
    rng = np.random.default_rng(3)
    for _ in range(200):
        order = int(rng.integers(0, 11))
        a = _random_jet(rng, order)
        b = _random_jet(rng, order)
        b[0] += 3.0
        assert np.abs(jet_div(jet_mul(a, b), b) - a).max() <= 1e-11


def test_exp_log_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(300):
        order = int(rng.integers(0, 13))
        a = _random_jet(rng, order)
        back = jet_log(jet_exp(a))
        # branch of the constant term may differ by 2 pi i
        diff = back - a
        diff[0] -= 2j * np.pi * np.round(diff[0].imag / (2 * np.pi))
        assert np.abs(diff).max() <= 1e-11


def test_exp_of_sum_is_product():
    rng = np.random.default_rng(5)
    for _ in range(300):
        order = int(rng.integers(0, 13))
        a = _random_jet(rng, order)
        b = _random_jet(rng, order)
        lhs = jet_exp(a + b)
        rhs = jet_mul(jet_exp(a), jet_exp(b))
        assert np.abs(lhs - rhs).max() <= 1e-11


def test_exp_matches_scalar_series():
    a = np.array([0.3 + 0.1j, -0.2j, 0.05])
    got = jet_exp(a)
    # brute force through the scalar Taylor series of exp at order 2
    t = np.array([1e-3, 2e-3, -1.5e-3])
    for tv in t:
        direct = np.exp(np.polyval(a[::-1], tv))
        assert abs(np.polyval(got[::-1], tv) - direct) <= 5e-9


def test_trailing_axes_are_independent_series():
    # a batch of series gives, bit for bit, the series one at a time
    rng = np.random.default_rng(8)
    order, d = 7, 3
    row = _random_jet(rng, order, shape=(d,))
    block = _random_jet(rng, order, shape=(d, d))
    den = _random_jet(rng, order, shape=(d,))
    den[0] += 3.0
    prod = jet_mul(row[:, :, None], block)
    assert prod.shape == (order + 1, d, d)
    quot, ex, lg = jet_div(row, den), jet_exp(row), jet_log(den)
    for j in range(d):
        for k in range(d):
            assert np.array_equal(prod[:, j, k], jet_mul(row[:, j], block[:, j, k]))
        assert np.array_equal(quot[:, j], jet_div(row[:, j], den[:, j]))
        assert np.array_equal(ex[:, j], jet_exp(row[:, j]))
        assert np.array_equal(lg[:, j], jet_log(den[:, j]))


def test_div_by_zero_constant_raises():
    with pytest.raises(DivByZeroConstantTerm):
        jet_div(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_log_of_zero_constant_raises():
    with pytest.raises(LogOfZeroConstantTerm):
        jet_log(np.array([0.0, 1.0]))


def test_bivariate_exp_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(40):
        s = rng.uniform(-0.5, 0.5, (6, 4)) + 1j * rng.uniform(-0.5, 0.5, (6, 4))
        s[0, 0] = 0.0
        got = bi_exp(s)
        # exp via its own power series, truncation makes the sum finite
        acc = np.zeros((6, 4), dtype=complex)
        acc[0, 0] = 1.0
        power = acc.copy()
        for n in range(1, 10):
            power = bi_mul(power, s)
            acc = acc + power / math.factorial(n)
        assert np.abs(got - acc).max() <= 1e-12


def test_bivariate_exp_keeps_unit_constant_slice():
    s = np.zeros((5, 3), dtype=complex)
    s[3, 1] = 0.7
    s[1, 2] = -0.2 + 0.4j
    u0 = bi_exp(s)[:, 0]
    assert u0[0] == 1.0 and np.all(u0[1:] == 0)


def _bi_mul_scalar(a, b):
    # bi_mul of one (t, u) series pair in Python floats: every real
    # product and sum rounds on its own, in bi_mul's order of terms
    t_max, u_max = a.shape[0] - 1, a.shape[1] - 1
    re = [[0.0] * (u_max + 1) for _ in range(t_max + 1)]
    im = [[0.0] * (u_max + 1) for _ in range(t_max + 1)]
    for m in range(t_max + 1):
        for k in range(u_max + 1):
            xr, xi = float(a[m, k].real), float(a[m, k].imag)
            for i in range(t_max + 1 - m):
                for l in range(u_max + 1 - k):
                    yr, yi = float(b[i, l].real), float(b[i, l].imag)
                    re[m + i][k + l] += xr * yr - xi * yi
                    im[m + i][k + l] += xr * yi + xi * yr
    return np.array(re) + 1j * np.array(im)


def test_bi_mul_batch_rounds_like_scalar_products():
    rng = np.random.default_rng(9)
    a = rng.uniform(-1, 1, (6, 4, 50)) + 1j * rng.uniform(-1, 1, (6, 4, 50))
    b = rng.uniform(-1, 1, (6, 4, 50)) + 1j * rng.uniform(-1, 1, (6, 4, 50))
    got = bi_mul(a, b)
    for n in range(a.shape[-1]):
        assert np.array_equal(got[..., n], _bi_mul_scalar(a[..., n], b[..., n]))


def test_bi_mul_skips_zero_terms_and_keeps_signed_zeros():
    # zero coefficients of a, whole zero slices, negative zeros in both
    # operands, and b broadcast along the batch axis
    rng = np.random.default_rng(11)
    a = rng.uniform(-1, 1, (5, 4, 6)) + 1j * rng.uniform(-1, 1, (5, 4, 6))
    b = rng.uniform(-1, 1, (5, 4, 1)) + 1j * rng.uniform(-1, 1, (5, 4, 1))
    a[rng.random(a.shape) < 0.4] = 0.0
    a[1, 2] = 0.0
    a.real[rng.random(a.shape) < 0.2] = -0.0
    b.imag[rng.random(b.shape) < 0.3] = -0.0
    got = bi_mul(a, b)
    assert got.shape == a.shape
    for n in range(a.shape[-1]):
        want = _bi_mul_scalar(a[..., n], b[..., 0])
        for part in ("real", "imag"):
            x, y = getattr(got[..., n], part), getattr(want, part)
            assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


def test_polynomial_basics():
    p = Polynomial([1.0, 0.0, -2.0])
    assert p(2.0) == 1.0 - 8.0
    # trailing rounding residue is trimmed, a lone zero is kept
    assert Polynomial([1.0, 2.0, 1e-15, -1e-16]).coeffs.tolist() == [1.0, 2.0]
    assert Polynomial([0.0, 0.0]).coeffs.tolist() == [0.0]


def test_polynomial_accepts_array_argument():
    p = Polynomial([1.0, 2.0])
    out = p(np.array([0.0, 1.0, 2.0]))
    assert np.array_equal(out, np.array([1.0, 3.0, 5.0]))
