"""Independent brute-force ground truth for finite-state models.

Everything here is deliberately dumb: one exact dynamic program over
(state, integer coordinates of the accumulated sum), exact jet
propagation for moments (no eigenvalue machinery), seeded Monte Carlo,
and sup-distance between CDFs.  Acceptance tests compare the expansion machinery against these
oracles, so nothing in this module may depend on the spectral or
expansion modules.
"""

from __future__ import annotations

import csv
import math
import mmap
import os

import numpy as np

from .errors import InsufficientMoments, OracleUnavailable, TableTooLarge, ValidationError
from .jets import jet_exp, jet_mul

_DP_CELL_CAP = 10 ** 7
_TINY = np.finfo(float).tiny  # smallest normal double, 2**-1022


class ExactDistribution:
    """Finite distribution with exact CDF queries from both sides.

    Parameters
    ----------
    kind : str
        "lattice" (exact, from ``dp_pmf``) or "empirical" (Monte Carlo).
    support : array_like
        Strictly increasing values.
    pmf : array_like
        Matching probabilities, summing to 1 within 1e-10.
    N : int
        Horizon that produced the distribution.
    meta : dict, optional
        Provenance and precision, never written to an artifact: for
        Monte Carlo the PRNG identifier, seed, chunk size and 99 % DKW
        band; for the DP the table width, live width and flushed mass.
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


def _is_chain(model):
    """Whether ``model`` holds a finite-state chain, asked of its entries
    so that no d x d array is formed."""
    return hasattr(model, "entries")


def _require_chain(model):
    if not _is_chain(model):
        raise OracleUnavailable(
            "path-level oracle requires an explicit finite-state chain"
        )


def _kahan_add(acc, comp, term, scratch):
    """One compensated accumulation step ``acc += term``, in place.

    ``term`` and ``scratch`` are overwritten, so the step allocates no
    temporaries.
    """
    term -= comp  # y
    np.add(acc, term, out=scratch)  # t = acc + y
    np.subtract(scratch, acc, out=comp)
    comp -= term  # (t - acc) - y
    acc[...] = scratch


def _dead_cells(band, slab):
    """Number of leading cells of ``band`` (states x cells) that every
    state holds below ``_TINY``.

    Most dead runs are one cell long, so the first two cells are tested
    singly; slabs of cells, from ``slab`` wide and doubling, are scanned
    only past them.
    """
    width = band.shape[1]
    for n in range(min(2, width)):
        if max(band[:, n].tolist()) >= _TINY:
            return n
    n = 2
    while n < width:
        top = band[:, n:n + slab].max(axis=0)
        i = int((top >= _TINY).argmax())
        if top[i] >= _TINY:
            return n + i
        n += slab
        slab *= 2
    return width


def dp_pmf(model, N):
    """Exact pmf of S_N for any finite-state chain by dynamic programming.

    The table is indexed by (state, integer coordinate of the sum).  A
    lattice model has one coordinate, the sum in span units.  Otherwise
    each distinct nonzero reward value u_1 < ... < u_q gets its own count
    n_i in 0..N, flattened as sum_i n_i (N+1)**i, and the sum is
    sum_i n_i u_i (the rank-q lattice of Bhattacharya & Rao, 1976).  A
    model's rewards are 0 on transitions of probability 0, so only the
    values that S_N can take set the coordinates.  Additions are
    compensated (Kahan) so the mass balance survives long horizons.
    Atoms whose values are equal as floats are pooled; there is no merge
    tolerance.

    Each step runs target-major: every target state takes its sources
    in index order, so each cell gets the same compensated adds in the
    same order as a source-major sweep and the pmf is bit-identical to
    it, while the first and last add of a target skip the compensation
    passes whose results are never read.

    After every step, each cell at either end of the live band whose
    mass is below the smallest normal double (2**-1022) in every state
    is set to exactly 0, and the band edges move inward to the first
    cell some state holds at or above it.  Such tail cells are rounding
    debris (their true probabilities lie mostly below 2**-1074), and
    sub-normal arithmetic on them costs about twenty times a normal
    multiply-add.  The arithmetic window is not narrowed: zeros flow
    through the same compensated adds, so interior atoms keep their
    rounding.  ``meta`` records the table width per state
    (``table_width``), the final band width (``live_width``) and the
    exact sum of the zeroed values (``flushed_mass``).

    The chain is read through ``model.entries()``, the transitions of
    positive probability, so it is never densified: an Ulam chain, with
    about two distinct rewards per cell, is refused from its stored
    rewards before any allocation.

    Raises
    ------
    TableTooLarge
        If the table would be wider than 10**7 cells, checked before any
        allocation.
    OracleUnavailable
        If the model has no explicit chain.
    """
    _require_chain(model)
    if N < 1:
        raise ValidationError("N must be at least 1")
    rows, cols, p, h = model.entries()
    d, span = model.dim, model.lattice_span
    if span is not None:
        off = np.rint(h / span).astype(np.int64)
    else:
        used = h != 0.0
        u = np.unique(h[used])
        q = u.size
        # every count runs over 0..N, so the table is at least 2**(q-1)
        # cells wide; a large q refuses without forming (N+1)**q
        if q > _DP_CELL_CAP.bit_length() or N * (N + 1) ** (q - 1) + 1 > _DP_CELL_CAP:
            raise TableTooLarge(
                f"{q} distinct rewards at N={N} need a table beyond the 10**7-cell budget"
            )
        strides = (N + 1) ** np.arange(q, dtype=np.int64)
        off = np.zeros(h.size, dtype=np.int64)
        off[used] = strides[np.searchsorted(u, h[used])]
    mn, mx = int(off.min()), int(off.max())
    # partial sums start at 0, so the table spans [N*min(mn,0), N*max(mx,0)]
    lo_total = N * min(mn, 0)
    hi_total = N * max(mx, 0)
    width = hi_total - lo_total + 1
    if width > _DP_CELL_CAP:
        raise TableTooLarge(f"{width} cells exceed the 10**7 budget")

    # index i holds the sum coordinate i + lo_total.  Every buffer is
    # allocated once.  The active windows only grow, so a buffer is clean
    # outside the window it is about to receive.  Each target state k
    # takes its sources j (P[j, k] != 0) in index order, so every cell
    # gets its compensated adds in the same order as a sweep over j then
    # k.  Into a cell with acc = comp = 0 the first add is exact: acc =
    # term, comp = 0.  The last add's compensation is never read, since
    # comp restarts at the next target.  So only the middle sources need
    # the full Kahan step, and comp and its scratch row exist only if
    # some k has three or more sources.  The entries are row-major, so
    # each target collects its sources in index order.
    sources = [[] for _ in range(d)]
    for j, k, pjk, o in zip(rows.tolist(), cols.tolist(), p.tolist(), off.tolist()):
        sources[k].append((j, pjk, o))
    mass = np.zeros((d, width))
    new = np.zeros((d, width))
    comp = scratch_buf = None
    if max(map(len, sources)) > 2:
        comp, scratch_buf = np.empty(width), np.empty(width)
    term_buf = np.empty(width)
    start = -lo_total
    mass[:, start] = model.mu0
    cur_lo, cur_hi = start, start + 1  # active index window [lo, hi)
    # live band [live_lo, live_hi) inside the window: outside it every
    # cell is exactly 0, so each step's band lies within the previous
    # band widened by the step's growth
    live_lo, live_hi = cur_lo, cur_hi
    slab = max(max(mx, 0) - min(mn, 0), 1)
    flushed = [np.zeros(0)]  # zeroed values; exact zeros are dropped in batches
    for _ in range(N):
        nxt_lo, nxt_hi = cur_lo + min(mn, 0), cur_hi + max(mx, 0)
        n = cur_hi - cur_lo
        term = term_buf[:n]
        for k, src in enumerate(sources):
            row = new[k]
            if not src:
                row[nxt_lo:nxt_hi] = 0.0
                continue
            j, p, o = src[0]
            lo = cur_lo + o
            np.multiply(p, mass[j, cur_lo:cur_hi], out=row[lo:lo + n])
            row[nxt_lo:lo] = 0.0
            row[lo + n:nxt_hi] = 0.0
            if len(src) > 2:
                comp[nxt_lo:nxt_hi] = 0.0
                for j, p, o in src[1:-1]:
                    lo = cur_lo + o
                    np.multiply(p, mass[j, cur_lo:cur_hi], out=term)
                    _kahan_add(row[lo:lo + n], comp[lo:lo + n], term, scratch_buf[:n])
            if len(src) > 1:
                j, p, o = src[-1]
                lo = cur_lo + o
                np.multiply(p, mass[j, cur_lo:cur_hi], out=term)
                if len(src) > 2:
                    term -= comp[lo:lo + n]
                row[lo:lo + n] += term
        mass, new = new, mass
        cur_lo, cur_hi = nxt_lo, nxt_hi
        live_lo, live_hi = live_lo + min(mn, 0), live_hi + max(mx, 0)
        band = mass[:, live_lo:live_hi]
        a = _dead_cells(band, slab)
        b = _dead_cells(band[:, a:][:, ::-1], slab)
        for dead in (band[:, :a], band[:, band.shape[1] - b:]):
            if dead.size:
                flushed.append(dead.flatten())
                if len(flushed) > 256:
                    gone = np.concatenate(flushed)
                    flushed = [gone[gone != 0.0]]
                dead[...] = 0.0
        live_lo, live_hi = live_lo + a, live_hi - b
    pmf = mass[:, live_lo:live_hi].sum(axis=0)
    nz = np.flatnonzero(pmf > 0.0)
    gone = np.concatenate(flushed)
    meta = {"table_width": width, "live_width": live_hi - live_lo,
            "flushed_mass": math.fsum(gone[gone != 0.0].tolist())}
    idx = nz + (live_lo + lo_total)  # sum coordinates
    if span is not None:
        # distinct coordinates times one span: already distinct and sorted
        return ExactDistribution("lattice", idx * span, pmf[nz], N, meta)
    coords = (idx[:, None] // strides) % (N + 1)
    support, inverse = np.unique(coords @ u, return_inverse=True)
    return ExactDistribution("lattice", support, np.bincount(inverse, weights=pmf[nz]), N, meta)


def _stationary(P):
    d = P.shape[0]
    M = (P - np.eye(d)).T
    M[-1, :] = 1.0
    b = np.zeros(d)
    b[-1] = 1.0
    return np.linalg.solve(M, b)


def drift(model):
    """Asymptotic mean per step: from the stationary distribution alone
    for a chain, the first stored moment for a moment model."""
    if _is_chain(model):
        P, h = model.transition, model.observable
        pi = _stationary(P)
        return float(np.sum(pi[:, None] * P * h))
    return float(model.moments[0])


def exact_moments(model, N, kmax):
    """Exact centered moments E (S_N - N*A)**k for k = 0 .. kmax.

    The per-step observable is shifted by the drift A before building
    entry jets, so the propagation never sees large uncentered values;
    the result is read off the order-kmax jet of the characteristic
    function.  The entry jets form one ``(kmax+1, d, d)`` array and the
    row ``mu0^T L_t^n`` one ``(kmax+1, d)`` array, stepped N times with
    the broadcast ``jet_mul``.  No eigenvalue decomposition is involved.
    A moment model's one entry jet is ``sum_k m_k (it)**k / k!`` from its
    stored moments, built here, not read from its operator family.
    """
    if N < 1:
        raise ValidationError("N must be at least 1")
    A = drift(model)
    if _is_chain(model):
        P, h = model.transition, model.observable
        hc = h - A
        jets = np.zeros((kmax + 1,) + P.shape, dtype=complex)
        term = np.ones(P.shape, dtype=complex)
        jets[0] = P
        for m in range(1, kmax + 1):
            term = term * (1j * hc) / m
            jets[m] = P * term
        mu0 = model.mu0
    else:
        m = model.moments
        if kmax > m.size:
            raise InsufficientMoments(f"order {kmax} requested but only {m.size} moments stored")
        # m_k times 1/k!, as IidMomentModel.operator_family scales
        fact = np.cumprod(np.arange(1.0, kmax + 1.0))
        raw = 1j ** np.arange(kmax + 1) * np.concatenate(([1.0], m[:kmax] * (1.0 / fact)))
        shift = np.zeros(kmax + 1, dtype=complex)
        if kmax >= 1:
            shift[1] = -1j * A
        jets = jet_mul(raw, jet_exp(shift)).reshape(kmax + 1, 1, 1)
        mu0 = np.array([1.0])

    d = len(mu0)
    row = np.zeros((kmax + 1, d), dtype=complex)
    row[0] = mu0
    for _ in range(N):
        # terms[:, j, k] is row_j times the (j, k) entry jet; states are
        # summed one at a time, in index order
        terms = jet_mul(row[:, :, None], jets)
        row = np.zeros_like(row)
        for j in range(d):
            row += terms[:, j]
    chi = np.zeros(kmax + 1, dtype=complex)
    for k in range(d):
        chi += row[:, k]
    out = []
    fact = 1.0
    for k in range(kmax + 1):
        if k > 0:
            fact *= k
        val = fact * (-1j) ** k * chi[k]
        out.append(float(val.real))
    return out


def _count_below(cum_rows, states, u):
    """Count of the entries of row ``states[i]`` of ``cum_rows`` below
    ``u[i]``, for every i, by bisection.

    A cumulative row never decreases, so its entries below u form a
    prefix; each probe, from the largest power of two up to d down to 1,
    lengthens the prefix when the entry it would end at is below u.  No
    step forms a trials x d array.
    """
    d = cum_rows.shape[1]
    flat = cum_rows.ravel()
    last = states * d - 1  # flat index of the entry before each row
    count = np.zeros(states.size, dtype=np.intp)
    for jump in (1 << b for b in reversed(range(d.bit_length()))):
        probe = count + jump
        below = (probe <= d) & (flat[last + np.minimum(probe, d)] < u)
        count = np.where(below, probe, count)
    return count


def _simulate_chain(model, N, trials, rng):
    P, h = model.transition, model.observable
    d = P.shape[0]
    cum_rows = np.cumsum(P, axis=1)
    # a draw above the rounded total of a row (or of mu0) takes its last
    # entry of positive probability, not state d - 1
    last = d - 1 - np.argmax(P[:, ::-1] > 0, axis=1)
    cum_mu0 = np.cumsum(model.mu0)
    states = np.searchsorted(cum_mu0, rng.random(trials), side="right")
    states = np.minimum(states, d - 1 - np.argmax(model.mu0[::-1] > 0))
    sums = np.zeros(trials)
    for _ in range(N):
        nxt = _count_below(cum_rows, states, rng.random(trials))
        nxt = np.minimum(nxt, last[states])
        sums += h[states, nxt]
        states = nxt
    return sums


_DOUBLING_BITS = 52
_DOUBLING_MASK = np.uint64((1 << _DOUBLING_BITS) - 1)
# steps per draw of fresh bits (8 MiB per 2**17 trials); even, so blocks use whole draws
_DOUBLING_BLOCK = 16
# trials per tile: g's temporaries of 32 KiB stay below glibc's 128 KiB
# mmap threshold whatever earlier frees did to it
_DOUBLING_TILE = 4096


def _simulate_doubling(g, N, trials, rng):
    # exact bit-shift dynamics: float iteration of 2x mod 1 loses one
    # mantissa bit per step, so fresh uniform bits enter at the bottom.
    # The fresh bit of each step and trial is bit 31 of the next 32-bit
    # half of the PCG64 output, low half first: the stream that one
    # integers(0, 2) call per step gives, drawn here a block at a time.
    # Each block runs tile by tile over the trials, all its steps per
    # tile; every trial gets the same operations in the same order as in
    # a step-by-step sweep over all trials.
    k = rng.integers(0, 1 << _DOUBLING_BITS, size=trials, dtype=np.uint64)
    scale = 0.5 ** _DOUBLING_BITS
    sums = np.zeros(trials)
    x = np.empty(min(trials, _DOUBLING_TILE))
    fresh = np.empty(x.size, dtype=np.uint64)
    one = np.uint64(1)
    for first in range(0, N, _DOUBLING_BLOCK):
        steps = min(_DOUBLING_BLOCK, N - first)
        raw = rng.bit_generator.random_raw((steps * trials + 1) // 2)
        halves = raw.astype("<u8", copy=False).view("<u4")
        for lo in range(0, trials, _DOUBLING_TILE):
            hi = min(lo + _DOUBLING_TILE, trials)
            kt, st, xt, ft = k[lo:hi], sums[lo:hi], x[:hi - lo], fresh[:hi - lo]
            for s in range(steps):
                np.multiply(kt, scale, out=xt)
                st += g(xt)
                np.right_shift(halves[s * trials + lo:s * trials + hi], 31, out=ft)
                np.left_shift(kt, one, out=kt)
                np.bitwise_and(kt, _DOUBLING_MASK, out=kt)
                np.bitwise_or(kt, ft, out=kt)
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
    # Massart's (1990) 99 % band: P(sup |F_n - F| > dkw99) <= 2 exp(-2 n dkw99**2) = 0.01
    meta = {"prng": "numpy-PCG64", "seed": int(seed), "chunk": size,
            "dkw99": math.sqrt(math.log(200.0) / (2 * trials))}
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
    """Density of the centered normal with standard deviation sigma, elementwise."""
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * (z / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return out if out.ndim else float(out)
