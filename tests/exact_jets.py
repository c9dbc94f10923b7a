"""Exact rational perturbation series of a real-tilted chain.

For a chain with transition matrix ``P``, rewards ``h`` and initial law
``mu0``, all rational, the tilted matrix ``P(theta)[j, k] = p_jk
exp(theta h_jk)`` has a leading eigenvalue ``lam(theta)`` with right
vector ``v(theta)`` and left vector ``l(theta)``.  Their Taylor
coefficients are found order by order in ``fractions.Fraction``, so
every coefficient below is exact:

* ``pi`` from one exact solve of ``pi (P - I) = 0``, ``sum pi = 1``;
* ``v_0 = 1`` and ``v_k`` from ``(I - P + 1 pi^T) v_k = -r_k``, the gauge
  ``pi . v_k = 0``;
* ``l_0 = pi`` and ``l_k`` from the transposed system, the gauge
  ``sum_j l_j . v_(k-j) = 0``;
* ``z_k = sum_a (mu0 . v_a)(l_(k-a) . 1)``.

The characteristic-function jets of the library are these at
``theta = i t``: ``[t**k] log mu = i**k [theta**k] log lam``.  The module
uses nothing of the library's spectral, jet or expansion code, so it
checks them independently.
"""

from fractions import Fraction


def _solve(M, b):
    """Exact solution of ``M x = b`` by Gauss-Jordan elimination."""
    d = len(b)
    a = [list(row) + [rhs] for row, rhs in zip(M, b)]
    for c in range(d):
        piv = next(r for r in range(c, d) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(d):
            if r != c and a[r][c] != 0:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[d] for row in a]


def _dot(x, y):
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def _log_series(f):
    """Coefficients of ``log f`` for a series with ``f[0] = 1``, from
    ``k g_k = k f_k - sum_(j<k) j g_j f_(k-j)``."""
    g = [Fraction(0)] * len(f)
    for k in range(1, len(f)):
        g[k] = f[k] - sum((j * g[j] * f[k - j] for j in range(1, k)), Fraction(0)) / k
    return g


def tilted_log_series(P, h, mu0, order):
    """``(log lam, log z)``: the Taylor coefficients of orders
    ``0 .. order`` in ``theta`` of the leading eigenvalue and of the
    projected initial-data factor, as lists of Fractions."""
    d = len(P)
    P = [[Fraction(x) for x in row] for row in P]
    h = [[Fraction(x) for x in row] for row in h]
    mu0 = [Fraction(x) for x in mu0]
    # P_m = P o h**m / m!
    Pm = [P]
    for m in range(1, order + 1):
        Pm.append([[Pm[-1][j][k] * h[j][k] / m for k in range(d)] for j in range(d)])
    one = [Fraction(1)] * d
    # pi^T (P - I) = 0 with the last equation replaced by sum pi = 1
    M = [[P[k][j] - (j == k) for k in range(d)] for j in range(d)]
    M[-1] = one
    pi = _solve(M, [Fraction(0)] * (d - 1) + [Fraction(1)])
    fund = [[(j == k) - P[j][k] + pi[k] for k in range(d)] for j in range(d)]
    fund_t = [list(col) for col in zip(*fund)]
    lam, v, left = [Fraction(1)], [one], [pi]
    for k in range(1, order + 1):
        # sum_(m >= 1) P_m v_(k-m), and its left twin
        pv = [sum((_dot(Pm[m][j], v[k - m]) for m in range(1, k + 1)), Fraction(0))
              for j in range(d)]
        lp = [sum((_dot(left[k - m], [Pm[m][j][c] for j in range(d)]) for m in range(1, k + 1)),
                  Fraction(0)) for c in range(d)]
        lam.append(_dot(pi, pv))
        # (P - I) v_k = r_k and l_k (P - I) = s_k
        r = [lam[k] + sum((lam[a] * v[k - a][j] for a in range(1, k)), Fraction(0)) - pv[j]
             for j in range(d)]
        s = [lam[k] * pi[j] + sum((lam[a] * left[k - a][j] for a in range(1, k)), Fraction(0))
             - lp[j] for j in range(d)]
        v.append(_solve(fund, [-x for x in r]))
        norm = -sum((_dot(left[j], v[k - j]) for j in range(k)), Fraction(0))
        left.append(_solve(fund_t, [-x + norm * p for x, p in zip(s, pi)]))
    z = [sum((_dot(mu0, v[a]) * sum(left[k - a]) for a in range(k + 1)), Fraction(0))
         for k in range(order + 1)]
    return _log_series(lam), _log_series(z)


def jet_gap(params, log_lam, log_z):
    """``(worst, largest)``: the largest gap of the library's ``A``,
    ``sigma2``, ``psi[k] / i**k`` and ``logz[k] / i**k`` (k up to the
    length of ``log_lam`` less one) to the exact series, and the largest
    exact coefficient they are read against."""
    pairs = [(params.A, log_lam[1]), (params.sigma2, 2 * log_lam[2])]
    pairs += [(params.psi[k] / 1j ** k, log_lam[k]) for k in range(3, len(log_lam))]
    pairs += [(params.logz[k] / 1j ** k, log_z[k]) for k in range(1, len(log_z))]
    largest = max(abs(float(exact)) for _, exact in pairs)
    return max(abs(got - float(exact)) for got, exact in pairs), largest
