"""Independent brute-force ground truth for finite-state models.

Everything here is deliberately dumb: exact dynamic programs over
(state, accumulated sum), exact jet propagation for moments (no
eigenvalue machinery), seeded Monte Carlo, and sup-distance between
CDFs.  Acceptance tests compare the expansion machinery against these
oracles, so nothing in this module may depend on the spectral or
expansion modules.
"""

from __future__ import annotations

import csv
import math
import mmap
import os

import numpy as np

from .errors import OracleUnavailable, TableTooLarge, TooManyValues, ValidationError
from .jets import Jet, jet_exp, jet_mul

_DP_CELL_CAP = 10 ** 7
_ENUM_CAP = 10 ** 6


class ExactDistribution:
    """Finite distribution with exact CDF queries from both sides.

    Parameters
    ----------
    kind : str
        "lattice", "enumerated" or "empirical".
    support : array_like
        Strictly increasing values.
    pmf : array_like
        Matching probabilities, summing to 1 within 1e-10.
    N : int
        Horizon that produced the distribution.
    meta : dict, optional
        Provenance (PRNG identifier, seed, merge tolerance).
    """

    __slots__ = ("kind", "support", "pmf", "N", "meta", "_cum")

    def __init__(self, kind, support, pmf, N, meta=None):
        self.kind = kind
        self.support = np.asarray(support, dtype=float)
        self.pmf = np.asarray(pmf, dtype=float)
        self.N = int(N)
        self.meta = dict(meta or {})
        if self.support.ndim != 1 or self.support.shape != self.pmf.shape:
            raise ValidationError("support and pmf must be matching 1-d arrays")
        if np.any(np.diff(self.support) <= 0):
            raise ValidationError("support must be strictly increasing")
        total = math.fsum(self.pmf.tolist())
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"pmf sums to {total!r}, off by {abs(total - 1.0):.3e}")
        # _cum[i] = P(X <= support[i - 1]), with _cum[0] = 0
        self._cum = np.concatenate(([0.0], np.cumsum(self.pmf)))

    def cdf(self, z):
        """P(X <= z); accepts arrays of z."""
        out = self._cum[np.searchsorted(self.support, z, side="right")]
        return out if np.ndim(out) else float(out)

    def cdf_left(self, z):
        """P(X < z); accepts arrays of z."""
        out = self._cum[np.searchsorted(self.support, z, side="left")]
        return out if np.ndim(out) else float(out)

    def mean(self):
        return math.fsum((self.support * self.pmf).tolist())

    def centered_moment(self, center, k):
        """E (X - center)**k accumulated with compensated summation."""
        return math.fsum(((self.support - center) ** k * self.pmf).tolist())

    def tail(self, z):
        """P(X >= z); accepts arrays of z."""
        return 1.0 - self.cdf_left(z)

    def to_csv(self, fileobj):
        """Write rows (value, pmf, cdf) in RFC-4180 form."""
        w = csv.writer(fileobj, lineterminator="\n")
        w.writerow(["value", "pmf", "cdf"])
        for v, p, c in zip(self.support, self.pmf, self._cum[1:]):
            w.writerow([format(v, ".17g"), format(p, ".17g"), format(c, ".17g")])


def _require_chain(model):
    if not hasattr(model, "transition"):
        raise OracleUnavailable(
            "path-level oracle requires an explicit finite-state chain"
        )


def _kahan_add(acc, comp, idx, term):
    """One compensated accumulation step acc[idx] += term."""
    y = term - comp[idx]
    t = acc[idx] + y
    comp[idx] = (t - acc[idx]) - y
    acc[idx] = t


def dp_pmf(model, N):
    """Exact pmf of S_N for a lattice model by dynamic programming.

    The table is indexed by (state, integer sum in span units); additions
    are compensated so the mass balance survives long horizons.

    Raises
    ------
    TableTooLarge
        If the sum range exceeds 10**7 cells.
    OracleUnavailable
        If the model is not lattice or has no explicit chain.
    """
    _require_chain(model)
    span = getattr(model, "lattice_span", None)
    if span is None:
        raise OracleUnavailable("dp_pmf requires a lattice model")
    if N < 1:
        raise ValidationError("N must be at least 1")
    P = model.transition
    h = model.observable
    d = P.shape[0]
    v = np.rint(h / span).astype(np.int64)
    mn, mx = int(v.min()), int(v.max())
    # partial sums start at 0, so the table spans [N*min(mn,0), N*max(mx,0)]
    lo_total = N * min(mn, 0)
    hi_total = N * max(mx, 0)
    width = hi_total - lo_total + 1
    if width > _DP_CELL_CAP:
        raise TableTooLarge(f"{width} cells exceed the 10**7 budget")

    # index i holds the sum value (i + lo_total) * span
    mass = np.zeros((d, width))
    comp = np.zeros((d, width))
    start = -lo_total
    mass[:, start] = model.mu0
    cur_lo, cur_hi = start, start + 1  # active index window [lo, hi)
    for _ in range(N):
        new = np.zeros((d, width))
        ncomp = np.zeros((d, width))
        for j in range(d):
            seg = mass[j, cur_lo:cur_hi]
            for k in range(d):
                p = P[j, k]
                if p == 0.0:
                    continue
                lo = cur_lo + v[j, k]
                _kahan_add(new[k], ncomp[k], slice(lo, lo + seg.size), p * seg)
        mass, comp = new, ncomp
        cur_lo, cur_hi = cur_lo + min(mn, 0), cur_hi + max(mx, 0)
    pmf_full = mass.sum(axis=0)
    nz = pmf_full > 0.0
    support = (np.arange(width)[nz] + lo_total) * span
    return ExactDistribution("lattice", support, pmf_full[nz], N)


def enum_distribution(model, N, merge_tol=1e-9):
    """Exact distribution of S_N by value enumeration with merging.

    Sums within ``merge_tol`` of each other are pooled (probability-
    weighted value); the distinct-value count is bounded a priori by the
    (N+1)**(d*d-1) polynomial estimate and rechecked while running.

    Raises
    ------
    TooManyValues
        If the estimate or the running count exceeds 10**6.
    """
    _require_chain(model)
    if N < 1:
        raise ValidationError("N must be at least 1")
    P = model.transition
    h = model.observable
    d = P.shape[0]
    exponent = d * d - 1
    # exact integer test; the estimate is at least 2**exponent, so a large
    # exponent refuses without forming the number
    if exponent > _ENUM_CAP.bit_length() or (N + 1) ** exponent > _ENUM_CAP:
        raise TooManyValues(
            f"estimated 10**{exponent * math.log10(N + 1):.1f} distinct sums"
            " exceed the 10**6 budget"
        )

    def merge(values, probs):
        order = np.argsort(values, kind="stable")
        values, probs = values[order], probs[order]
        starts = np.flatnonzero(np.concatenate(([True], np.diff(values) > merge_tol)))
        pooled_p = np.add.reduceat(probs, starts)
        pooled_v = np.add.reduceat(values * probs, starts) / pooled_p
        return pooled_v, pooled_p

    vals = [np.array([0.0]) if m > 0 else np.empty(0) for m in model.mu0]
    prbs = [np.array([m]) if m > 0 else np.empty(0) for m in model.mu0]
    for _ in range(N):
        nvals = [[] for _ in range(d)]
        nprbs = [[] for _ in range(d)]
        for j in range(d):
            if vals[j].size == 0:
                continue
            for k in range(d):
                if P[j, k] == 0.0:
                    continue
                nvals[k].append(vals[j] + h[j, k])
                nprbs[k].append(prbs[j] * P[j, k])
        vals, prbs = [], []
        total = 0
        for k in range(d):
            if nvals[k]:
                v, p = merge(np.concatenate(nvals[k]), np.concatenate(nprbs[k]))
            else:
                v, p = np.empty(0), np.empty(0)
            vals.append(v)
            prbs.append(p)
            total += v.size
        if total > _ENUM_CAP:
            raise TooManyValues(f"{total} live sums exceed the 10**6 budget")
    values, probs = merge(np.concatenate(vals), np.concatenate(prbs))
    return ExactDistribution("enumerated", values, probs, N, {"merge_tol": merge_tol})


def _stationary(P):
    d = P.shape[0]
    M = (P - np.eye(d)).T
    M[-1, :] = 1.0
    b = np.zeros(d)
    b[-1] = 1.0
    return np.linalg.solve(M, b)


def drift(model):
    """Asymptotic mean per step, from the stationary distribution alone."""
    if hasattr(model, "transition"):
        pi = _stationary(model.transition)
        return float(np.sum(pi[:, None] * model.transition * model.observable))
    fam = model.operator_family(2)
    return float(fam.coeffs[0, 0, 1].imag)


def exact_moments(model, N, kmax):
    """Exact centered moments E (S_N - N*A)**k for k = 0 .. kmax.

    The per-step observable is shifted by the drift A before building
    entry jets, so the propagation never sees large uncentered values;
    the result is read off the order-kmax jet of the characteristic
    function.  No eigenvalue decomposition is involved.
    """
    if N < 1:
        raise ValidationError("N must be at least 1")
    A = drift(model)
    if hasattr(model, "transition"):
        P = model.transition
        hc = model.observable - A
        d = P.shape[0]
        jets = np.zeros((d, d, kmax + 1), dtype=complex)
        term = np.ones((d, d), dtype=complex)
        jets[:, :, 0] = P
        for m in range(1, kmax + 1):
            term = term * (1j * hc) / m
            jets[:, :, m] = P * term
        mu0 = model.mu0
    else:
        fam = model.operator_family(kmax)
        shift = Jet.zero(kmax)
        if kmax >= 1:
            shift.coeffs[1] = -1j * A
        centered = jet_mul(Jet(fam.coeffs[0, 0, :]), jet_exp(shift))
        jets = centered.coeffs.reshape(1, 1, kmax + 1)
        mu0 = np.array([1.0])
        d = 1

    row = [Jet.constant(mu0[j], kmax) for j in range(d)]
    for _ in range(N):
        row = [
            sum(
                (jet_mul(row[j], Jet(jets[j, k, :])) for j in range(d)),
                Jet.zero(kmax),
            )
            for k in range(d)
        ]
    chi = sum(row, Jet.zero(kmax))
    out = []
    fact = 1.0
    for k in range(kmax + 1):
        if k > 0:
            fact *= k
        val = fact * (-1j) ** k * chi[k]
        out.append(float(val.real))
    return out


def _simulate_chain(model, N, trials, rng):
    P = model.transition
    h = model.observable
    cum_rows = np.cumsum(P, axis=1)
    cum_mu0 = np.cumsum(model.mu0)
    states = np.searchsorted(cum_mu0, rng.random(trials), side="right")
    states = np.minimum(states, P.shape[0] - 1)
    sums = np.zeros(trials)
    for _ in range(N):
        u = rng.random(trials)
        nxt = (u[:, None] > cum_rows[states]).sum(axis=1)
        nxt = np.minimum(nxt, P.shape[0] - 1)
        sums += h[states, nxt]
        states = nxt
    return sums


_DOUBLING_BITS = 52
_DOUBLING_MASK = np.uint64((1 << _DOUBLING_BITS) - 1)
_DOUBLING_BLOCK = 64  # steps per draw of fresh bits; even, so blocks use whole draws


def _simulate_doubling(g, N, trials, rng):
    # exact bit-shift dynamics: float iteration of 2x mod 1 loses one
    # mantissa bit per step, so fresh uniform bits enter at the bottom.
    # The fresh bit of each step and trial is bit 31 of the next 32-bit
    # half of the PCG64 output, low half first: the stream that one
    # integers(0, 2) call per step gives, drawn here a block at a time.
    k = rng.integers(0, 1 << _DOUBLING_BITS, size=trials, dtype=np.uint64)
    scale = 0.5 ** _DOUBLING_BITS
    sums = np.zeros(trials)
    x = np.empty(trials)
    fresh = np.empty(trials, dtype=np.uint64)
    one = np.uint64(1)
    for first in range(0, N, _DOUBLING_BLOCK):
        steps = min(_DOUBLING_BLOCK, N - first)
        raw = rng.bit_generator.random_raw((steps * trials + 1) // 2)
        halves = raw.astype("<u8", copy=False).view("<u4")
        for s in range(steps):
            np.multiply(k, scale, out=x)
            sums += g(x)
            np.right_shift(halves[s * trials:(s + 1) * trials], 31, out=fresh)
            np.left_shift(k, one, out=k)
            np.bitwise_and(k, _DOUBLING_MASK, out=k)
            np.bitwise_or(k, fresh, out=k)
    return sums


def _simulate_map(model, N, trials, rng):
    endpoints = np.asarray(model.map_endpoints)
    widths = np.diff(endpoints)
    x = rng.random(trials)
    sums = np.zeros(trials)
    for _ in range(N):
        sums += model.map_g_vec(x)
        b = np.searchsorted(endpoints, x, side="right") - 1
        b = np.clip(b, 0, widths.size - 1)
        x = (x - endpoints[b]) / widths[b]
        x = np.clip(x, 0.0, np.nextafter(1.0, 0.0))
    return sums


_MC_CHUNK = 1 << 17

# the chunk job of a forked Monte Carlo worker; set only in the worker
_worker_chunk = None


def _init_worker(chunk):
    global _worker_chunk
    _worker_chunk = chunk


def _run_worker_chunk(idx):
    _worker_chunk(idx)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(chunk, count):
    """Call ``chunk(idx)`` for every idx in range(count).

    With at least 2 chunks, at least 2 usable CPUs and the "fork" start
    method, the calls run in forked worker processes, one per usable CPU
    (at most one per chunk); otherwise in a plain loop.  ``chunk`` reaches
    the workers by inheritance, so it need not pickle.  A worker's
    exception re-raises here with its own type; a worker that dies
    raises ``BrokenProcessPool``.
    """
    workers = min(count, _usable_cpus())
    if workers >= 2:
        import multiprocessing

        # fork, not spawn: a map model's observable may be a lambda, which
        # spawn would have to pickle; the workers run numpy code only
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(chunk,),
            ) as pool:
                # map cancels the chunks not yet started if one raises
                for _ in pool.map(_run_worker_chunk, range(count)):
                    pass
            return
    for idx in range(count):
        chunk(idx)


def mc_sample(model, N, trials, seed):
    """Empirical distribution of S_N from seeded Monte Carlo.

    Trials split into fixed-size chunks, each driven by an independent
    PRNG stream keyed by (seed, chunk index) and writing its own slice
    of one shared buffer, so the sample does not depend on scheduling.
    The chunks run in forked worker processes, one per usable CPU; they
    run serially in this process when there is one chunk, one usable
    CPU or no "fork" start method.  Either way the result is identical
    to running the chunks in order; there is no option to choose.

    For chains the states are simulated directly.  For map models the
    map itself is iterated: the doubling map via exact bit-shift
    dynamics (float iteration collapses after 52 steps), other
    piecewise-linear maps in float (diagnostic quality).
    """
    if trials < 1:
        raise ValidationError("at least one trial required")
    if N < 1:
        raise ValidationError("N must be at least 1")
    is_map = getattr(model, "map_kind", None) is not None
    if not is_map:
        _require_chain(model)
    size = _MC_CHUNK
    # anonymous shared memory: writes by forked workers reach this process
    sums = np.frombuffer(mmap.mmap(-1, trials * 8), dtype=np.float64)

    def chunk(idx):
        lo = idx * size
        m = min(size, trials - lo)
        rng = np.random.default_rng([int(seed), idx])
        if is_map and model.map_kind == "doubling":
            sums[lo:lo + m] = _simulate_doubling(model.map_g_vec, N, m, rng)
        elif is_map:
            sums[lo:lo + m] = _simulate_map(model, N, m, rng)
        else:
            sums[lo:lo + m] = _simulate_chain(model, N, m, rng)

    _run_chunks(chunk, -(-trials // size))
    values, counts = np.unique(sums, return_counts=True)
    meta = {"prng": "numpy-PCG64", "seed": int(seed), "chunk": size}
    return ExactDistribution("empirical", values, counts / trials, N, meta)


class FunctionCdf:
    """Adapter giving a smooth, array-capable CDF the two-sided query interface."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def cdf(self, z):
        return self.fn(z)

    cdf_left = cdf


def kolmogorov_distance(a, b, probes):
    """Sup distance between two CDFs over a probe grid.

    Both one-sided limits are compared at every probe, so atoms are
    measured correctly no matter which side carries them.

    Parameters
    ----------
    a, b : objects with ``cdf`` and ``cdf_left`` methods taking arrays
    probes : array_like
        Probe points; should cover both supports and the tails.
    """
    z = np.asarray(probes, dtype=float)
    fb = b.cdf(z)
    # a continuous comparator is evaluated once for both one-sided limits
    fb_left = fb if isinstance(b, FunctionCdf) else b.cdf_left(z)
    right = np.max(np.abs(a.cdf(z) - fb), initial=0.0)
    left = np.max(np.abs(a.cdf_left(z) - fb_left), initial=0.0)
    return float(max(right, left))


# Rational approximations for the complementary error function
# (Cody-style three-regime scheme, |relative error| < 1e-15), pinned
# in-repo so results do not depend on platform libm differences.  The
# functions below take arrays and return a float for scalar input.

_ERF_A = (
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)
_ERF_C = (
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERF_D = (
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)
_ERF_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_ERF_Q = (
    2.56852019228982242e00,
    1.87295284992346047e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)
_SQRPI = 5.6418958354775628695e-1


def _erf_small(x):
    # |x| <= 0.46875
    y = np.abs(x)
    z = np.where(y > 1e-300, y * y, 0.0)
    xnum = _ERF_A[4] * z
    xden = z
    for i in range(3):
        xnum = (xnum + _ERF_A[i]) * z
        xden = (xden + _ERF_B[i]) * z
    return x * (xnum + _ERF_A[3]) / (xden + _ERF_B[3])


def _erfc_mid(y):
    xnum = _ERF_C[8] * y
    xden = y
    for i in range(7):
        xnum = (xnum + _ERF_C[i]) * y
        xden = (xden + _ERF_D[i]) * y
    result = (xnum + _ERF_C[7]) / (xden + _ERF_D[7])
    ysq = np.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-delta) * result


def _erfc_far(y):
    z = 1.0 / (y * y)
    xnum = _ERF_P[5] * z
    xden = z
    for i in range(4):
        xnum = (xnum + _ERF_P[i]) * z
        xden = (xden + _ERF_Q[i]) * z
    result = z * (xnum + _ERF_P[4]) / (xden + _ERF_Q[4])
    result = (_SQRPI - result) / y
    ysq = np.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-delta) * result


def _erfc_positive(y):
    # erfc(y) for y > 0.46875: mid regime up to 4, far up to 26.5, then 0
    out = np.zeros_like(y)
    mid = y <= 4.0
    far = ~(mid | (y > 26.5))  # NaN propagates, as in the far branch
    out[mid] = _erfc_mid(y[mid])
    out[far] = _erfc_far(y[far])
    return out


def erf(x):
    """Error function by rational approximation (three regimes), elementwise."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    small = np.abs(xs) <= 0.46875
    out[small] = _erf_small(xs[small])
    big = xs[~small]
    out[~small] = np.copysign(1.0 - _erfc_positive(np.abs(big)), big)
    return out if np.ndim(x) else float(out[0])


def erfc(x):
    """Complementary error function by rational approximation, elementwise."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    small = np.abs(xs) <= 0.46875
    out[small] = 1.0 - _erf_small(xs[small])
    big = xs[~small]
    result = _erfc_positive(np.abs(big))
    out[~small] = np.where(big < 0.0, 2.0 - result, result)
    return out if np.ndim(x) else float(out[0])


def normal_cdf(z, sigma=1.0):
    """CDF of the centered normal with standard deviation sigma, elementwise."""
    return 0.5 * erfc(-np.asarray(z, dtype=float) / (sigma * math.sqrt(2.0)))


def normal_density(z, sigma=1.0):
    """Density of the centered normal with standard deviation sigma."""
    return math.exp(-0.5 * (z / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
