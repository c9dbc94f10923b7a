"""Truncated power series as plain arrays, and real polynomials.

A truncated series is a complex ndarray with the order axis first:
``c[m]`` is the coefficient of ``t**m`` and the order is ``len(c) - 1``.
Any trailing axes hold independent series, so a ``(s+1, d)`` array is
``d`` jets, and the arithmetic below broadcasts over those axes the way
``*`` does.  A series in two variables ``(t, u)`` is an array with the
``t`` axis first and the ``u`` axis second; ``c[m, k]`` is the
coefficient of ``t**m u**k``.  Every jet in the package (the eigenvalue
``mu``, the projected factor ``z``, the remainders ``psi`` and
``log z``, the per-entry jets of the moment recursion) uses this one
layout.

:class:`Polynomial` is the real-coefficient output format for the
correction polynomials.

All operations are pure and deterministic.  ``jet_mul`` sums its
convolution terms in an order symmetric under swapping the operands, so
multiplication commutes exactly in floating point.  Every
operation forms each product of two coefficients from real products
(:func:`_cmul`), so a batch of series rounds exactly like the same series
one at a time, whatever SIMD path numpy dispatches.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DivByZeroConstantTerm, LogOfZeroConstantTerm

_TRIM_TOL = 1e-14


def _cmul(x, y):
    """Complex product from separately rounded real products.

    numpy's vectorized complex multiply may fuse multiply-adds, so the
    same product can round differently in an array loop than for a
    scalar; building it from the real parts gives the scalar rounding.
    """
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _output(s, *series):
    shape = np.broadcast_shapes(*(x.shape[1:] for x in series))
    return np.zeros((s + 1,) + shape, dtype=complex)


@functools.lru_cache(maxsize=None)
def _pairs(s):
    """Index pairs ``(j, k = m - j)``, ``j <= k``, of every order ``m <= s``."""
    m = np.repeat(np.arange(s + 1), np.arange(s + 1) // 2 + 1)
    j = np.concatenate([np.arange(n // 2 + 1) for n in range(s + 1)])
    return m, j, m - j


def jet_mul(a, b):
    """Cauchy product truncated at the smaller order.

    Terms of each output coefficient are paired ``(j, m-j)`` from both ends
    inward before accumulation, which makes the summation order invariant
    under swapping ``a`` and ``b``, so multiplication commutes exactly.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    s = min(len(a), len(b)) - 1
    out = _output(s, a, b)
    # align the trailing axes, so that a leading pair axis broadcasts
    a = a.reshape(a.shape[:1] + (1,) * (out.ndim - a.ndim) + a.shape[1:])
    b = b.reshape(b.shape[:1] + (1,) * (out.ndim - b.ndim) + b.shape[1:])
    m, j, k = _pairs(s)
    pair = _cmul(a[j], b[k])
    two = j != k
    pair[two] += _cmul(a[k[two]], b[j[two]])
    # table[m, j] holds pair (j, m - j); sum each order's pairs outside in
    table = np.zeros((s + 1, s // 2 + 1) + out.shape[1:], dtype=complex)
    table[m, j] = pair
    for i in range(s // 2 + 1):
        out += table[:, i]
    return out


def jet_div(a, b):
    """Recursive division ``a / b`` truncated at the smaller order."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    s = min(len(a), len(b)) - 1
    if np.any(np.abs(b[0]) <= 1e-300):
        raise DivByZeroConstantTerm("division by jet with zero constant term")
    out = _output(s, a, b)
    for m in range(s + 1):
        acc = a[m]
        for j in range(m):
            acc = acc - _cmul(out[j], b[m - j])
        out[m] = acc / b[0]
    return out


def jet_exp(a):
    """Series exponential via the recurrence ``(exp a)' = a' * exp a``."""
    a = np.asarray(a, dtype=complex)
    out = np.zeros_like(a)
    out[0] = np.exp(a[0])
    for m in range(1, len(a)):
        for j in range(1, m + 1):
            out[m] += _cmul(j * a[j], out[m - j])
        out[m] /= m
    return out


def jet_log(a):
    """Series logarithm, principal branch anchored at ``log(c0)``."""
    a = np.asarray(a, dtype=complex)
    if np.any(np.abs(a[0]) <= 1e-300):
        raise LogOfZeroConstantTerm("logarithm of jet with zero constant term")
    out = np.zeros_like(a)
    out[0] = np.log(a[0])
    for m in range(1, len(a)):
        acc = m * a[m]
        for j in range(1, m):
            acc = acc - _cmul(j * out[j], a[m - j])
        out[m] = acc / (m * a[0])
    return out


def bi_mul(a, b):
    """Truncated product of two ``(t, u)`` series of the same shape.

    Every nonzero coefficient ``a[m, k]`` multiplies ``b`` shifted by
    ``(m, k)`` and zero-padded, all in one :func:`_cmul`; the products are
    added to a zero output in ``(m, k)`` order, so each output coefficient
    rounds as in a loop over the terms.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    t_max, u_max = a.shape[0] - 1, a.shape[1] - 1
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    m, k = np.nonzero(np.any(a, axis=tuple(range(2, a.ndim))))
    padded = np.zeros((2 * t_max + 1, 2 * u_max + 1) + b.shape[2:], dtype=complex)
    padded[t_max:, u_max:] = b
    # shifted[i, p, q] = b[p - m[i], q - k[i]], zero where an index is negative
    rows = (t_max - m)[:, None, None] + np.arange(t_max + 1)[:, None]
    cols = (u_max - k)[:, None, None] + np.arange(u_max + 1)
    shifted = padded[rows, cols]
    lead = a[m, k].reshape((m.size, 1, 1) + a.shape[2:])
    for term in _cmul(lead, shifted):
        out += term
    return out


def bi_exp(s):
    """Truncated exponential of a ``(t, u)`` series.

    The ``u**0`` slice is exponentiated as a univariate jet (so the
    invariant ``u0-slice of exp(s) == exp(u0-slice of s)`` holds exactly);
    the remainder has ``u``-order at least one, so its power sum terminates
    after ``u_max`` products.
    """
    s = np.asarray(s, dtype=complex)
    rest = s.copy()
    rest[:, 0] = 0.0

    out = np.zeros_like(s)
    out[0, 0] = 1.0
    term = out.copy()
    for m in range(1, s.shape[1]):
        term = bi_mul(term, rest)
        out = out + term / math.factorial(m)

    scale = np.zeros_like(s)
    scale[:, 0] = jet_exp(s[:, 0])
    return bi_mul(scale, out)


class Polynomial:
    """Real-coefficient polynomial ``c0 + c1*x + ... + cd*x**d``.

    Trailing coefficients below ``1e-14`` in absolute value are trimmed on
    construction, so rounding residue above the true degree is not written.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1:
            raise ValueError("polynomial needs a 1-d coefficient array")
        last = c.size
        while last > 1 and abs(c[last - 1]) <= _TRIM_TOL:
            last -= 1
        self.coeffs = c[:last].copy()

    def __call__(self, x):
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for c in self.coeffs[::-1]:
            acc = acc * x + c
        return acc if acc.shape else float(acc)

    def __repr__(self):
        return f"Polynomial({self.coeffs!r})"