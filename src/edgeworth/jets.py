"""Truncated formal power series arithmetic.

Three value types cover every Taylor-expansion need of the package:

* :class:`Jet`: univariate truncated series with complex coefficients,
  the carrier for eigenvalue and eigenvector data near ``t = 0``.
* :class:`BivariateSeries`: series truncated in two variables ``(t, u)``,
  used to organise expansions graded by powers of ``u = n**-0.5``.
* :class:`Polynomial`: plain real-coefficient polynomial, the output
  format for correction polynomials.

All operations are pure and deterministic.  ``jet_mul`` sums its
convolution terms in an order symmetric under swapping the operands, so
multiplication commutes exactly in floating point.
"""

from __future__ import annotations

import numpy as np

from .errors import DivByZeroConstantTerm, LogOfZeroConstantTerm

_TRIM_TOL = 1e-14


class Jet:
    """Univariate truncated power series ``c0 + c1*t + ... + cs*t**s``.

    Parameters
    ----------
    coeffs : array_like
        Complex coefficients ``c0..cs``; the order is ``len(coeffs) - 1``.
    """

    __slots__ = ("coeffs",)

    # keep numpy scalars from hijacking the reflected operators
    __array_ufunc__ = None

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=complex).copy()
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("jet needs a non-empty 1-d coefficient array")

    @classmethod
    def zero(cls, order):
        return cls(np.zeros(order + 1, dtype=complex))

    @classmethod
    def constant(cls, value, order):
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return cls(c)

    @property
    def order(self):
        return self.coeffs.size - 1

    def __getitem__(self, m):
        return self.coeffs[m]

    def __len__(self):
        return self.coeffs.size

    def copy(self):
        return Jet(self.coeffs)

    def truncate(self, order):
        """Return a copy truncated (or zero-padded) to the given order."""
        c = np.zeros(order + 1, dtype=complex)
        n = min(order, self.order) + 1
        c[:n] = self.coeffs[:n]
        return Jet(c)

    def eval(self, t):
        """Evaluate the truncated series at a concrete point by Horner."""
        acc = 0.0 + 0.0j
        for c in self.coeffs[::-1]:
            acc = acc * t + c
        return acc

    def __add__(self, other):
        return jet_add(self, _as_jet(other, self.order))

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_jet(other, self.order)
        return Jet(self.coeffs[: min(len(self), len(o))] - o.coeffs[: min(len(self), len(o))])

    def __rsub__(self, other):
        return _as_jet(other, self.order) - self

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return Jet(self.coeffs * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return jet_div(self, other)
        return Jet(self.coeffs / other)

    def __neg__(self):
        return Jet(-self.coeffs)

    def __repr__(self):
        return f"Jet({self.coeffs!r})"


def _as_jet(x, order):
    if isinstance(x, Jet):
        return x
    return Jet.constant(x, order)


def _common_order(a, b):
    return min(a.order, b.order)


def jet_add(a, b):
    s = _common_order(a, b)
    return Jet(a.coeffs[: s + 1] + b.coeffs[: s + 1])


def jet_mul(a, b):
    """Cauchy product truncated at the smaller order.

    Terms of each output coefficient are paired ``(j, m-j)`` from both ends
    inward before accumulation, which makes the summation order invariant
    under swapping ``a`` and ``b``, so multiplication commutes exactly.
    """
    s = _common_order(a, b)
    ca, cb = a.coeffs, b.coeffs
    out = np.zeros(s + 1, dtype=complex)
    for m in range(s + 1):
        acc = 0.0 + 0.0j
        for j in range(m // 2 + 1):
            k = m - j
            if j == k:
                acc += ca[j] * cb[j]
            else:
                acc += ca[j] * cb[k] + ca[k] * cb[j]
        out[m] = acc
    return Jet(out)


def jet_div(a, b):
    """Recursive division ``a / b`` truncated at the smaller order."""
    s = _common_order(a, b)
    if abs(b.coeffs[0]) <= 1e-300:
        raise DivByZeroConstantTerm("division by jet with zero constant term")
    ca, cb = a.coeffs, b.coeffs
    out = np.zeros(s + 1, dtype=complex)
    for m in range(s + 1):
        acc = ca[m]
        for j in range(m):
            acc -= out[j] * cb[m - j]
        out[m] = acc / cb[0]
    return Jet(out)


def jet_exp(a):
    """Series exponential via the recurrence ``(exp a)' = a' * exp a``."""
    s = a.order
    ca = a.coeffs
    out = np.zeros(s + 1, dtype=complex)
    out[0] = np.exp(ca[0])
    for m in range(1, s + 1):
        acc = 0.0 + 0.0j
        for j in range(1, m + 1):
            acc += j * ca[j] * out[m - j]
        out[m] = acc / m
    return Jet(out)


def jet_log(a):
    """Series logarithm, principal branch anchored at ``log(c0)``."""
    s = a.order
    ca = a.coeffs
    if abs(ca[0]) <= 1e-300:
        raise LogOfZeroConstantTerm("logarithm of jet with zero constant term")
    out = np.zeros(s + 1, dtype=complex)
    out[0] = np.log(ca[0])
    for m in range(1, s + 1):
        acc = m * ca[m]
        for j in range(1, m):
            acc -= j * out[j] * ca[m - j]
        out[m] = acc / (m * ca[0])
    return Jet(out)


class BivariateSeries:
    """Series in ``(t, u)`` truncated at ``t_max`` and ``u_max``.

    Coefficients are held in a dense complex array ``coeffs[m, k]`` for the
    ``t**m u**k`` term.  Products drop any term beyond either truncation
    bound.
    """

    __slots__ = ("coeffs", "t_max", "u_max")

    def __init__(self, t_max, u_max, coeffs=None):
        self.t_max = int(t_max)
        self.u_max = int(u_max)
        if coeffs is None:
            self.coeffs = np.zeros((self.t_max + 1, self.u_max + 1), dtype=complex)
        else:
            self.coeffs = np.asarray(coeffs, dtype=complex).copy()
            if self.coeffs.shape != (self.t_max + 1, self.u_max + 1):
                raise ValueError("coefficient array shape does not match truncation")

    @classmethod
    def zero(cls, t_max, u_max):
        return cls(t_max, u_max)

    @classmethod
    def constant(cls, value, t_max, u_max):
        s = cls(t_max, u_max)
        s.coeffs[0, 0] = value
        return s

    def set_term(self, m, k, value):
        self.coeffs[m, k] = value

    def u_slice(self, k):
        """Coefficients of ``u**k`` as a complex polynomial in ``t``."""
        return self.coeffs[:, k].copy()

    def copy(self):
        return BivariateSeries(self.t_max, self.u_max, self.coeffs)

    def __repr__(self):
        return f"BivariateSeries(t_max={self.t_max}, u_max={self.u_max})"


def bi_add(a, b):
    if (a.t_max, a.u_max) != (b.t_max, b.u_max):
        raise ValueError("bivariate truncation bounds differ")
    return BivariateSeries(a.t_max, a.u_max, a.coeffs + b.coeffs)


def bi_mul(a, b):
    """Truncated 2-d convolution."""
    if (a.t_max, a.u_max) != (b.t_max, b.u_max):
        raise ValueError("bivariate truncation bounds differ")
    full = np.zeros((a.t_max + 1, a.u_max + 1), dtype=complex)
    ca, cb = a.coeffs, b.coeffs
    for m in range(a.t_max + 1):
        for k in range(a.u_max + 1):
            if ca[m, k] == 0:
                continue
            full[m:, k:] += ca[m, k] * cb[: a.t_max + 1 - m, : a.u_max + 1 - k]
    return BivariateSeries(a.t_max, a.u_max, full)


def bi_exp(s):
    """Truncated exponential of a bivariate series.

    The ``u**0`` slice is exponentiated as a univariate jet (so the
    invariant ``u0-slice of exp(s) == exp(u0-slice of s)`` holds exactly);
    the remainder has ``u``-order at least one, so its power sum terminates
    after ``u_max`` products.
    """
    base = Jet(s.u_slice(0))
    rest = s.copy()
    rest.coeffs[:, 0] = 0.0

    out = BivariateSeries.constant(1.0, s.t_max, s.u_max)
    term = BivariateSeries.constant(1.0, s.t_max, s.u_max)
    for m in range(1, s.u_max + 1):
        term = bi_mul(term, rest)
        out = bi_add(out, BivariateSeries(s.t_max, s.u_max, term.coeffs / _factorial(m)))

    base_exp = jet_exp(base)
    scale = BivariateSeries(s.t_max, s.u_max)
    scale.coeffs[:, 0] = base_exp.coeffs
    return bi_mul(scale, out)


def _factorial(m):
    out = 1.0
    for j in range(2, m + 1):
        out *= j
    return out


class Polynomial:
    """Real-coefficient polynomial ``c0 + c1*x + ... + cd*x**d``.

    Trailing coefficients below ``1e-14`` in absolute value are trimmed on
    construction so degree comparisons are stable.
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

    @property
    def degree(self):
        if self.coeffs.size == 1 and self.coeffs[0] == 0.0:
            return 0
        return self.coeffs.size - 1

    def __call__(self, x):
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for c in self.coeffs[::-1]:
            acc = acc * x + c
        return acc if acc.shape else float(acc)

    def coeff(self, m):
        return float(self.coeffs[m]) if m < self.coeffs.size else 0.0

    def padded(self, size):
        out = np.zeros(size, dtype=float)
        out[: self.coeffs.size] = self.coeffs
        return out

    def derivative(self):
        if self.coeffs.size == 1:
            return Polynomial([0.0])
        d = self.coeffs[1:] * np.arange(1, self.coeffs.size)
        return Polynomial(d)

    def __add__(self, other):
        n = max(self.coeffs.size, other.coeffs.size)
        return Polynomial(self.padded(n) + other.padded(n))

    def __sub__(self, other):
        n = max(self.coeffs.size, other.coeffs.size)
        return Polynomial(self.padded(n) - other.padded(n))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * other)

    __rmul__ = __mul__

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def max_coeff_diff(self, other):
        """Largest absolute coefficient difference against another polynomial."""
        n = max(self.coeffs.size, other.coeffs.size)
        return float(np.max(np.abs(self.padded(n) - other.padded(n))))

    def __repr__(self):
        return f"Polynomial({self.coeffs!r})"
