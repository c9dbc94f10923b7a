"""Independent brute-force ground truth for finite-state models.

Everything here is deliberately dumb: one exact dynamic program over
(state, integer coordinates of the accumulated sum), exact jet
propagation for moments (no eigenvalue machinery), seeded Monte Carlo,
and the sup-distance of a distribution from a CDF.  Acceptance tests
compare the expansion machinery against these oracles, so nothing in
this module may depend on the spectral or expansion modules.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os

import numpy as np

from .errors import (
    InsufficientMoments,
    OracleInfeasible,
    OracleUnavailable,
    TableTooLarge,
    ValidationError,
    _as_horizons,
    _as_index,
)
from .jets import jet_exp, jet_mul

_DP_CELL_CAP = 10 ** 7
_TINY = np.finfo(float).tiny  # smallest normal double, 2**-1022
# elements per list that _fsum hands to math.fsum: 128 KiB of Python floats
_FSUM_BLOCK = 1 << 12


def _fsum(a):
    """``math.fsum`` of a 1-d array, bit-identical to ``math.fsum(a.tolist())``.

    The array is fed block by block through one iterator, so at most
    ``_FSUM_BLOCK`` Python floats exist at a time, not one per element.
    """
    return math.fsum(itertools.chain.from_iterable(
        a[i:i + _FSUM_BLOCK].tolist() for i in range(0, a.size, _FSUM_BLOCK)))


def _distinct(a):
    """The distinct values of a 1-d float array, sorted: ``np.unique(a)``
    bit for bit, an empty ``a`` included.

    ``np.unique`` of a float array sorts a copy and keeps the first of
    each run of equal values, as here, but it first imports ``numpy.ma``
    to ask whether ``a`` is masked: a fixed cost, in time and memory, of
    every process that calls it.
    """
    a = np.sort(a)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


class ExactDistribution:
    """Finite distribution with exact CDF queries from both sides.

    Parameters
    ----------
    support : array_like
        Strictly increasing finite values.
    pmf : array_like
        Matching finite, nonnegative probabilities, summing to 1 within
        1e-10.
    N : int
        Horizon that produced the distribution.
    meta : dict, optional
        Provenance and precision, never written to an artifact: for
        Monte Carlo the PRNG identifier, seed, chunk size and 99 % DKW
        band; for the DP the table width, live width and flushed mass.

    A Monte Carlo law (``mc_sample``) is held as its sorted sample
    instead: its cumulative at an atom is the count of trials up to it
    over the trial count, rounded once, and ``pmf`` is formed, count /
    trials, only when read.  Either way ``cdf(support[k])`` reads the
    (k + 1)-th cumulative and ``cdf_left(support[k])`` the k-th.
    """

    # A law built from a pmf holds it in _pmf, its cumulative sums in _cum
    # and None in _trials.  A sample holds None in _pmf, its trial count in
    # _trials and in _cum, int64, the count of trials below each atom and
    # then the trial count; or None, when it has no ties and the count
    # below atom i is i
    __slots__ = ("N", "meta", "support", "_pmf", "_cum", "_trials")

    def __init__(self, support, pmf, N, meta=None):
        self.support = support = np.asarray(support, dtype=float)
        self._pmf = pmf = np.asarray(pmf, dtype=float)
        self._trials = None
        self.N = int(N)
        self.meta = dict(meta or {})
        if support.ndim != 1 or support.shape != pmf.shape:
            raise ValidationError("support and pmf must be matching 1-d arrays")
        if not np.isfinite(support).all():
            raise ValidationError("support must be finite")
        if (support[1:] <= support[:-1]).any():
            raise ValidationError("support must be strictly increasing")
        if not np.isfinite(pmf).all() or (pmf < 0.0).any():
            raise ValidationError("pmf must hold finite, nonnegative masses")
        total = _fsum(pmf)
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"pmf sums to {total!r}, off by {abs(total - 1.0):.3e}")
        # _cum[i] = P(X <= support[i - 1]), with _cum[0] = 0
        self._cum = np.empty(pmf.size + 1)
        self._cum[0] = 0.0
        np.cumsum(pmf, out=self._cum[1:])

    @classmethod
    def _of_sorted_sample(cls, sample, N, meta):
        """The empirical law of ``sample``, a nonempty sorted float array.

        A sample without ties becomes the support itself, not a copy.
        One with ties copies its distinct values and keeps the count of
        trials below each, and the trial count.  Beside the sample this
        holds a 1-byte mask per trial and, with ties, two arrays of the
        atom count.  NaN sorts last, so the two end values decide whether
        every value is finite.
        """
        if not np.isfinite(sample[[0, -1]]).all():
            raise ValidationError("support must be finite")
        law = object.__new__(cls)
        law.N, law.meta = int(N), dict(meta)
        law._pmf, law._cum, law._trials = None, None, sample.size
        # True where a run of equal values starts, and once past the end
        start = np.empty(sample.size + 1, dtype=bool)
        start[0] = start[-1] = True
        np.not_equal(sample[1:], sample[:-1], out=start[1:-1])
        if start.all():
            law.support = sample
        else:
            law.support = sample[start[:-1]]
            law._cum = np.flatnonzero(start)
        return law

    def _cumulative(self, count):
        """The probability of the first ``count`` atoms, ``count`` an index array."""
        if self._trials is None:
            out = self._cum[count]
        else:
            out = (count if self._cum is None else self._cum[count]) / self._trials
        return out if np.ndim(out) else float(out)

    @property
    def pmf(self):
        """The masses; a sample forms them, count / trials, when read."""
        if self._trials is None:
            return self._pmf
        if self._cum is None:
            return np.full(self.support.size, 1.0 / self._trials)
        return np.diff(self._cum) / self._trials

    def cdf(self, z):
        """P(X <= z); accepts arrays of z."""
        return self._cumulative(np.searchsorted(self.support, z, "right"))

    def cdf_left(self, z):
        """P(X < z); accepts arrays of z."""
        return self._cumulative(np.searchsorted(self.support, z, "left"))

    def mean(self):
        return _fsum(self.support * self.pmf)

    def centered_moment(self, center, k):
        """E (X - center)**k accumulated with compensated summation."""
        return _fsum((self.support - center) ** k * self.pmf)

    def tail(self, z):
        """P(X >= z), 0 above the support; accepts arrays of z.  A pmf law
        adds its masses from the top atom down and a sample counts the
        trials at or above z, so no small tail is read as 1 - F(z-)."""
        count = np.searchsorted(self.support, z, "left")
        if self._trials is None:
            above = np.append(np.cumsum(self._pmf[::-1])[::-1], 0.0)
            out = above[count]
        else:
            below = count if self._cum is None else self._cum[count]
            out = (self._trials - below) / self._trials
        return out if np.ndim(out) else float(out)


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
    np.add(acc, term, scratch)  # t = acc + y
    np.subtract(scratch, acc, comp)
    comp -= term  # (t - acc) - y
    acc[...] = scratch


def _dead_cells(band, slab):
    """Number of leading cells of ``band`` (states x cells) that every
    state holds below ``_TINY``, for a band whose first cell is so held.

    Most dead runs are one cell long, so the second cell is tested
    singly; slabs of cells, from ``slab`` wide and doubling, are scanned
    only past it.
    """
    width = band.shape[1]
    if width == 1 or max(band[:, 1].tolist()) >= _TINY:
        return 1
    n = 2
    while n < width:
        top = band[:, n:n + slab].max(axis=0)
        i = int((top >= _TINY).argmax())
        if top[i] >= _TINY:
            return n + i
        n += slab
        slab *= 2
    return width


def _dp_targets(new_rows, mass_rows, sources, win_lo, win_hi, t_lo, t_hi,
                comp, term_buf, scratch_buf):
    """One step of the DP: every target row of ``new_rows`` on the band
    [t_lo, t_hi) from ``mass_rows``, whose active window is [win_lo,
    win_hi).  ``sources[k]`` lists the (j, P[j, k], offset) of target k,
    the probability a 0-d array.

    Each target k takes its sources j in index order, so every cell gets
    its compensated adds in the same order as a sweep over j then k.
    Each source adds over its window range cut to the band.  Into a cell
    with acc = comp = 0 the first add is exact: acc = term, comp = 0, so
    it writes the row and clears the rest of the band.  The last add's
    compensation is never read, since comp restarts at the next target.
    So only the middle sources take the full Kahan step.
    """
    for row, src in zip(new_rows, sources):
        if not src:
            row[t_lo:t_hi] = 0.0
            continue
        j, p, o = src[0]
        a = win_lo + o if win_lo + o > t_lo else t_lo
        b = win_hi + o if win_hi + o < t_hi else t_hi
        np.multiply(p, mass_rows[j][a - o:b - o], row[a:b])
        if a - t_lo == 1:  # one cell by index costs a sixth of a slice
            row[t_lo] = 0.0
        elif a > t_lo:
            row[t_lo:a] = 0.0
        if t_hi - b == 1:
            row[b] = 0.0
        elif t_hi > b:
            row[b:t_hi] = 0.0
        last = len(src) - 1
        if not last:
            continue
        if last > 1:
            comp[t_lo:t_hi] = 0.0
            for j, p, o in src[1:last]:
                a = win_lo + o if win_lo + o > t_lo else t_lo
                b = win_hi + o if win_hi + o < t_hi else t_hi
                term = term_buf[:b - a]
                np.multiply(p, mass_rows[j][a - o:b - o], term)
                _kahan_add(row[a:b], comp[a:b], term, scratch_buf[:b - a])
        j, p, o = src[last]
        a = win_lo + o if win_lo + o > t_lo else t_lo
        b = win_hi + o if win_hi + o < t_hi else t_hi
        term = term_buf[:b - a]
        np.multiply(p, mass_rows[j][a - o:b - o], term)
        if last > 1:
            np.subtract(term, comp[a:b], term)
        acc = row[a:b]
        np.add(acc, term, acc)


def _tally(reach, lo, hi, base):
    """Add to ``reach`` the coordinates of the last minus those of the
    first cell of the band [lo, hi): the sum, or with ``base`` the
    reward counts flattened in it.  Returns ``reach``."""
    if base is None:
        reach[0] += hi - 1 - lo
        return reach
    first, last = lo, hi - 1
    for i in range(len(reach)):
        first, a = divmod(first, base)
        last, b = divmod(last, base)
        reach[i] += b - a
    return reach


def _compact(flushed):
    """Concatenate the zeroed values of ``flushed`` into one array, in
    place, without its exact zeros."""
    gone = np.concatenate(flushed)
    flushed[:] = [gone[gone != 0.0]]


def _flush_ends(mass, t_lo, t_hi, slab, flushed):
    """Zero the cells at either end of the band ``mass[:, t_lo:t_hi]``
    that every state holds below ``_TINY``, append copies of their values
    to ``flushed``, and return the live band that is left.

    Each end cell is probed once; the dead run is measured only past a
    dead end cell."""
    lo, hi = t_lo, t_hi
    if max(mass[:, lo].tolist()) < _TINY:
        lo += _dead_cells(mass[:, lo:hi], slab)
    if lo < hi and max(mass[:, hi - 1].tolist()) < _TINY:
        hi -= _dead_cells(mass[:, lo:hi][:, ::-1], slab)
    for a, b in ((t_lo, lo), (hi, t_hi)):
        if a < b:
            dead = mass[:, a:b]
            flushed.append(dead.flatten())  # a copy, also of a 1-state row
            dead[...] = 0.0
            if len(flushed) > 256:
                _compact(flushed)
    return lo, hi


def dp_pmf(model, N):
    """Exact pmf of S_N for any finite-state chain by dynamic programming.

    The sweep of :func:`dp_ladder` with the one horizon N, which
    describes the table, its budget and ``meta``.
    """
    return dp_ladder(model, [_as_index("N", N, 1)])[0]


def dp_ladder(model, N_list):
    """Exact pmfs of S_N at each horizon of ``N_list``, from one sweep.

    One dynamic program runs to the last horizon and keeps the
    distribution at each horizon it passes.  The table is indexed by
    (state, integer coordinate of the sum).  A lattice model has one
    coordinate, the sum in span units.  Otherwise each distinct nonzero
    reward value u_1 < ... < u_q gets its own count n_i in 0..N,
    flattened as sum_i n_i (N+1)**i, and the sum is sum_i n_i u_i (the
    rank-q lattice of Bhattacharya & Rao, 1976).  A ladder flattens the
    counts in the base of its last horizon; no count exceeds it, and the
    order of the cells, so each horizon's rounding, is that of its own
    base.  A model's rewards are 0 on transitions of probability 0, so
    only the values that S_N can take set the coordinates.  Additions
    are compensated (Kahan) so the mass balance survives long horizons.
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
    multiply-add.  Every cell outside the live band is exactly 0, so a
    step computes only the band widened by one step's growth.  Within
    it each source still adds over its range of the full active window,
    zero terms included: a compensated add of 0 still moves a sum by its
    compensation, so interior atoms keep the rounding of the full-window
    sweep.  ``meta`` records, in the coordinates of the horizon's own
    table, its width per state (``table_width``), the final band width
    (``live_width``), the exact sum of the zeroed values
    (``flushed_mass``) and the cells stepped, the band width times the
    d states summed over the steps (``swept_cells``).

    The chain is read through ``model.entries()``, the transitions of
    positive probability, so it is never densified: an Ulam chain, with
    about two distinct rewards per cell, is refused from its stored
    rewards before any allocation.

    Raises
    ------
    ValidationError
        Unless ``N_list`` holds strictly increasing horizons of at least 1.
    TableTooLarge
        If the table at some horizon would be wider than 10**7 cells,
        checked at each horizon in order before any allocation.
    OracleUnavailable
        If the model has no explicit chain.
    """
    _require_chain(model)
    N_list = _as_horizons("N_list", N_list)
    rows, cols, p, h = model.entries()
    d, span, top = model.dim, model.lattice_span, N_list[-1]
    if span is not None:
        off = np.rint(h / span).astype(np.int64)
        grow = max(int(off.max()), 0) - min(int(off.min()), 0)
        for N in N_list:
            if N * grow + 1 > _DP_CELL_CAP:
                raise TableTooLarge(f"{N * grow + 1} cells exceed the 10**7 budget")
        u = None
    else:
        used = h != 0.0
        u = _distinct(h[used])
        q = u.size
        for N in N_list:
            # every count runs over 0..N, so the table is at least
            # 2**(q-1) cells wide; a large q refuses without forming
            # (N+1)**q
            if q > _DP_CELL_CAP.bit_length() or N * (N + 1) ** (q - 1) + 1 > _DP_CELL_CAP:
                raise TableTooLarge(
                    f"{q} distinct rewards at N={N} need a table beyond the 10**7-cell budget"
                )
        strides = (top + 1) ** np.arange(q, dtype=np.int64)
        off = np.zeros(h.size, dtype=np.int64)
        off[used] = strides[np.searchsorted(u, h[used])]
    neg, pos = min(int(off.min()), 0), max(int(off.max()), 0)
    width = top * (pos - neg) + 1
    start = -top * neg  # the index of sum coordinate 0
    base = None if u is None else top + 1  # of the flattened counts

    def result(N, band, lo, reach, flushed):
        # the distribution at horizon N from its live band, which starts
        # at index lo; widths are counted in the table of horizon N
        if u is None:
            place, table = [1], N * grow + 1
        else:
            place = [(N + 1) ** i for i in range(u.size)]
            table = N * place[-1] + 1 if u.size else 1
        ends = _tally([0] * len(reach), lo, lo + band.shape[1], base)
        meta = {"table_width": table,
                "live_width": 1 + sum(e * w for e, w in zip(ends, place)),
                "flushed_mass": _fsum(flushed),
                "swept_cells": d * (N + sum(r * w for r, w in zip(reach, place)))}
        pmf = band.sum(axis=0)
        nz = np.flatnonzero(pmf > 0.0)
        idx = nz + lo
        if u is None:
            # distinct coordinates times one span: already distinct and sorted
            return ExactDistribution((idx - start) * span, pmf[nz], N, meta)
        counts = (idx[:, None] // strides) % base
        support, inverse = np.unique(counts @ u, return_inverse=True)
        return ExactDistribution(support, np.bincount(inverse, weights=pmf[nz]), N, meta)

    # Every buffer is allocated once; comp and its scratch row exist only
    # if some target has three or more sources.  The entries are
    # row-major, so each target collects its sources in index order.  Each
    # probability is a 0-d array: numpy multiplies by one faster than by a
    # Python float or a numpy scalar, with the same product.
    sources = [[] for _ in range(d)]
    for j, k, pjk, o in zip(rows.tolist(), cols.tolist(), p, off.tolist()):
        sources[k].append((j, np.array(pjk), o))
    mass, new = np.zeros((d, width)), np.zeros((d, width))
    mass_rows, new_rows = list(mass), list(new)
    comp = scratch_buf = None
    if max(map(len, sources)) > 2:
        comp, scratch_buf = np.empty(width), np.empty(width)
    term_buf = np.empty(width)
    mass[:, start] = model.mu0
    win_lo, win_hi = start, start + 1  # active window [win_lo, win_hi)
    # live band [lo, hi) of ``mass``: outside it every cell is exactly 0.
    # ``new`` is 0 outside [old_lo, old_hi), its band two steps back.
    lo, hi = win_lo, win_hi
    old_lo = old_hi = start
    # per coordinate, the sum over the steps of its last minus its first
    # value in the band the step reads
    reach = [0] * (1 if u is None else u.size)
    slab = max(pos - neg, 1)
    flushed = [np.zeros(0)]  # zeroed values; exact zeros are dropped in batches
    out = []
    for step in range(top):
        _tally(reach, lo, hi, base)
        t_lo, t_hi = lo + neg, hi + pos  # the band this step writes
        _dp_targets(new_rows, mass_rows, sources, win_lo, win_hi, t_lo, t_hi,
                    comp, term_buf, scratch_buf)
        # cells of the band two steps back that this step did not write
        if old_lo < t_lo:
            new[:, old_lo:min(old_hi, t_lo)] = 0.0
        if old_hi > t_hi:
            new[:, max(old_lo, t_hi):old_hi] = 0.0
        mass, new = new, mass
        mass_rows, new_rows = new_rows, mass_rows
        old_lo, old_hi = lo, hi
        win_lo, win_hi = win_lo + neg, win_hi + pos
        lo, hi = _flush_ends(mass, t_lo, t_hi, slab, flushed)
        if step + 1 == N_list[len(out)]:
            _compact(flushed)
            out.append(result(step + 1, mass[:, lo:hi], lo, reach, flushed[0]))
    return out


# products pi^T P that the stationary iteration of a sparse chain may take
_STATIONARY_PRODUCTS = 1000


def _stationary(model):
    """Stationary distribution of a chain, from ``model.entries()``.

    A sparse chain, one with 8 nnz <= d**2 (the sparse path's rule, asked
    of the entries here), iterates ``pi^T P`` from the uniform vector,
    summing each product per target with ``np.bincount`` and
    renormalizing, until two iterates agree to 4 ulps of their largest
    entry.  Every other chain, and a sparse one that has not settled
    within ``_STATIONARY_PRODUCTS`` products, gets one dense solve of
    ``pi^T (P - I) = 0``, the normalization row replacing the last
    equation, on ``(P - I)^T`` written from the entries.
    """
    rows, cols, p, _ = model.entries()
    d = model.dim
    if 8 * p.size <= d * d:
        pi = np.full(d, 1.0 / d)
        for _ in range(_STATIONARY_PRODUCTS):
            nxt = np.bincount(cols, weights=pi[rows] * p, minlength=d)
            nxt /= nxt.sum()
            # rounding can keep an entry of the fixed point toggling by an ulp or two
            if abs(nxt - pi).max() <= 4.0 * np.finfo(float).eps * nxt.max():
                return nxt
            pi = nxt
    M = np.zeros((d, d))
    M[cols, rows] = p
    M[np.arange(d), np.arange(d)] -= 1.0
    M[-1, :] = 1.0
    b = np.zeros(d)
    b[-1] = 1.0
    return np.linalg.solve(M, b)


def drift(model):
    """Asymptotic mean per step: ``sum pi_j p_jk h_jk`` over the entries of
    a chain, from the stationary distribution alone; the first stored
    moment for a moment model."""
    if _is_chain(model):
        rows, _, p, h = model.entries()
        pi = _stationary(model)
        return float(np.sum(pi[rows] * p * h))
    return float(model.moments[0])


# entries per jet product of exact_moments: its pair temporaries of
# (pairs, tile) complex values stay near glibc's 128 KiB mmap threshold,
# so that steps on large chains do not map and fault fresh pages
_JET_TILE = 512


def exact_moments(model, N, kmax):
    """Exact centered moments E (S_N - N*A)**k for k = 0 .. kmax.

    The per-step observable is shifted by the drift A before building
    entry jets, so the propagation never sees large uncentered values;
    the result is read off the order-kmax jet of the characteristic
    function.  No eigenvalue decomposition is involved.

    The entry jets form one ``(kmax+1, nnz)`` array on the transitions of
    positive probability, read from ``model.entries()``, and the row
    ``mu0^T L_t^n`` one ``(kmax+1, d)`` array.  Each of the N steps
    multiplies every entry's jet by the row jet of its source with the
    broadcast ``jet_mul`` and sums the products per target with
    ``np.bincount``, the real and imaginary parts apart.  The entries are
    row-major, so each target adds its sources in index order, starting
    from 0, exactly as a sum over all d sources would: the sources off
    the pattern would add only zeros.  No d x d array is formed.
    A moment model is the single entry ``(0, 0)``, whose jet
    ``sum_k m_k (it)**k / k!`` comes from its stored moments, built here,
    not read from its operator family.
    """
    N, kmax = _as_index("N", N, 1), _as_index("kmax", kmax, 0)
    A = drift(model)
    if _is_chain(model):
        rows, cols, p, h = model.entries()
        hc = h - A
        jets = np.zeros((kmax + 1, p.size), dtype=complex)
        term = np.ones(p.size, dtype=complex)
        jets[0] = p
        for m in range(1, kmax + 1):
            term = term * (1j * hc) / m
            jets[m] = p * term
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
        jets = jet_mul(raw, jet_exp(shift)).reshape(kmax + 1, 1)
        rows = cols = np.zeros(1, dtype=np.intp)
        mu0 = np.array([1.0])

    d = len(mu0)
    # order m of entry (j, k) lands in bin m * d + k of the flattened row
    bins = (np.arange(kmax + 1)[:, None] * d + cols).ravel()
    row = np.zeros((kmax + 1, d), dtype=complex)
    row[0] = mu0
    terms = np.empty((kmax + 1, rows.size), dtype=complex)
    flat = terms.reshape(-1)
    for _ in range(N):
        # jet_mul acts entry by entry, so tiles give the same products
        for lo in range(0, rows.size, _JET_TILE):
            hi = lo + _JET_TILE
            terms[:, lo:hi] = jet_mul(row[:, rows[lo:hi]], jets[:, lo:hi])
        row = np.empty_like(row)
        row.real = np.bincount(bins, flat.real, row.size).reshape(row.shape)
        row.imag = np.bincount(bins, flat.imag, row.size).reshape(row.shape)
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


def _count_below(cum, first, length, u):
    """Count of the entries ``cum[first[i]:first[i] + length[i]]`` below
    ``u[i]``, for every i, by bisection.

    Each such row is a running sum, so it never decreases and its entries
    below u form a prefix; each probe, from the largest power of two up to
    the longest row down to 1, lengthens the prefix when the entry it
    would end at is below u.  No step forms a trials x d array.
    """
    count = np.zeros(u.size, dtype=np.intp)
    last = first - 1  # index of the entry before each row
    for jump in (1 << b for b in reversed(range(int(length.max()).bit_length()))):
        probe = count + jump
        below = (probe <= length) & (cum[last + np.minimum(probe, length)] < u)
        count = np.where(below, probe, count)
    return count


def _simulate_chain(model, N, trials, rng):
    """Sums of S_N over ``trials`` paths of a chain, drawn on its entries.

    Each row's entries carry their running sums, equal to the dense
    ``np.cumsum`` of the row at every entry of positive probability, since
    the entries between add 0.0.  The next state is the first entry whose
    running sum reaches the draw; a draw above the rounded total of a row
    (or of mu0) takes its last entry of positive probability, not state
    d - 1, and a draw of exactly 0.0 the first one.
    """
    rows, cols, p, h = model.entries()
    d = model.dim
    length = np.bincount(rows, minlength=d)
    first = np.cumsum(length) - length
    at = np.arange(p.size) - first[rows]  # place of each entry in its row
    cum = p.copy()
    for r in range(1, int(length.max())):
        e = np.flatnonzero(at == r)
        cum[e] += cum[e - 1]
    cum_mu0 = np.cumsum(model.mu0)
    states = np.searchsorted(cum_mu0, rng.random(trials), side="right")
    states = np.minimum(states, d - 1 - np.argmax(model.mu0[::-1] > 0))
    sums = np.zeros(trials)
    for _ in range(N):
        lo, n = first[states], length[states]
        e = lo + np.minimum(_count_below(cum, lo, n, rng.random(trials)), n - 1)
        sums += h[e]
        states = cols[e]
    return sums


_DOUBLING_BITS = 52
_DOUBLING_MASK = np.uint64((1 << _DOUBLING_BITS) - 1)
# steps per draw of fresh bits (8 MiB per 2**17 trials); even, so blocks use whole draws
_DOUBLING_BLOCK = 16
# trials per tile: g's temporaries of 32 KiB stay below glibc's 128 KiB
# mmap threshold whatever earlier frees did to it
_DOUBLING_TILE = 4096
# steps per ordering of a tile, a divisor of _DOUBLING_BLOCK, and the
# leading bits of k it sorts on (a uint16 key, which numpy radix-sorts)
_DOUBLING_REGROUP = 8
_DOUBLING_KEY_BITS = 10


def _simulate_doubling(g, N, trials, rng):
    # exact bit-shift dynamics: float iteration of 2x mod 1 loses one
    # mantissa bit per step, so fresh uniform bits enter at the bottom.
    # The fresh bit of each step and trial is bit 31 of the next 32-bit
    # half of the PCG64 output, low half first: the stream that one
    # integers(0, 2) call per step gives, drawn here a block at a time.
    # Each block runs tile by tile over the trials, all its steps per
    # tile.  Every _DOUBLING_REGROUP steps a tile's trials are ordered by
    # the leading bits of k, and g sees x and adds to the running sums in
    # that order: libm's cos and sin branch on the range of their
    # argument, and on grouped arguments those branches predict.  Every
    # trial gets the same operations in the same order as in a
    # step-by-step sweep over all trials, since g acts elementwise.
    k = rng.integers(0, 1 << _DOUBLING_BITS, size=trials, dtype=np.uint64)
    scale = 0.5 ** _DOUBLING_BITS
    sums = np.zeros(trials)
    width = min(trials, _DOUBLING_TILE)
    x, xo, so = np.empty(width), np.empty(width), np.empty(width)
    fresh = np.empty(width, dtype=np.uint64)
    one = np.uint64(1)
    for first in range(0, N, _DOUBLING_BLOCK):
        steps = min(_DOUBLING_BLOCK, N - first)
        raw = rng.bit_generator.random_raw((steps * trials + 1) // 2)
        halves = raw.astype("<u8", copy=False).view("<u4")
        for lo in range(0, trials, _DOUBLING_TILE):
            hi = min(lo + _DOUBLING_TILE, trials)
            n = hi - lo
            kt, st, ft = k[lo:hi], sums[lo:hi], fresh[:n]
            xt, xot, sot = x[:n], xo[:n], so[:n]
            for group in range(0, steps, _DOUBLING_REGROUP):
                np.right_shift(kt, _DOUBLING_BITS - _DOUBLING_KEY_BITS, out=ft)
                order = np.argsort(ft.astype(np.uint16), kind="stable")
                np.take(st, order, out=sot, mode="clip")
                for s in range(group, min(group + _DOUBLING_REGROUP, steps)):
                    np.multiply(kt, scale, out=xt)
                    np.take(xt, order, out=xot, mode="clip")
                    sot += g(xot)
                    np.right_shift(halves[s * trials + lo:s * trials + hi], 31, out=ft)
                    np.left_shift(kt, one, out=kt)
                    np.bitwise_and(kt, _DOUBLING_MASK, out=kt)
                    np.bitwise_or(kt, ft, out=kt)
                st[order] = sot
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
# trials per sample: 0.9 GB at the 9 bytes per trial of a sample of
# distinct values, 2.5 GB at the 25 of nearly distinct values with ties
_MC_TRIAL_BUDGET = 10 ** 8

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
    piecewise-linear maps in float (diagnostic quality).  The observable
    must act elementwise: the doubling map hands it tiles of 4096 trials
    in the order of their leading bits, which keeps libm's ``cos`` and
    ``sin`` branches predictable.  A
    piecewise-linear map whose branch widths are all powers of two is
    refused with :class:`OracleUnavailable`: each float step of it is
    exact and drops mantissa bits, so the orbits collapse onto the fixed
    point 0 (on the x4 map, by step 27).

    The sample is sorted in its buffer, and the law is built from that
    buffer (``ExactDistribution``): a sample of distinct values is the
    law's support, with no copy; one with ties keeps its distinct values
    and the count of trials below each.  The support and the masses equal
    ``np.unique(sums, return_counts=True)`` bit for bit.  Beside the
    8-byte sample the law is built with a 1-byte mask per trial, and,
    with ties, two arrays of the atom count.  So a sample of distinct
    values, or of few values, peaks near 9 bytes per trial, and one of
    nearly distinct values with some ties near 25.  More than 10**8
    trials (0.9 to 2.5 GB) are refused with :class:`OracleInfeasible`
    before anything is allocated.
    """
    N, trials = _as_index("N", N, 1), _as_index("trials", trials, 1)
    seed = _as_index("seed", seed, 0)
    if trials > _MC_TRIAL_BUDGET:
        raise OracleInfeasible(
            f"{trials} Monte Carlo trials exceed the budget of {_MC_TRIAL_BUDGET} "
            "(9 to 25 bytes per trial)"
        )
    is_map = getattr(model, "map_kind", None) is not None
    if not is_map:
        _require_chain(model)
    elif model.map_kind != "doubling" and np.all(np.frexp(np.diff(model.map_endpoints))[0] == 0.5):
        raise OracleUnavailable(
            "Monte Carlo cannot iterate a piecewise-linear map whose branch widths are "
            "all powers of two: its float orbits collapse onto a fixed point; the "
            '"doubling" map kind simulates x -> 2x mod 1 exactly'
        )
    size = _MC_CHUNK
    # anonymous shared memory: writes by forked workers reach this process
    sums = np.frombuffer(mmap.mmap(-1, trials * 8), dtype=np.float64)

    def chunk(idx):
        lo = idx * size
        m = min(size, trials - lo)
        rng = np.random.default_rng([seed, idx])
        if is_map and model.map_kind == "doubling":
            sums[lo:lo + m] = _simulate_doubling(model.map_g_vec, N, m, rng)
        elif is_map:
            sums[lo:lo + m] = _simulate_map(model, N, m, rng)
        else:
            sums[lo:lo + m] = _simulate_chain(model, N, m, rng)

    _run_chunks(chunk, -(-trials // size))
    sums.sort()
    # Massart's (1990) 99 % band: P(sup |F_n - F| > dkw99) <= 2 exp(-2 n dkw99**2) = 0.01
    meta = {"prng": "numpy-PCG64", "seed": seed, "chunk": size,
            "dkw99": math.sqrt(math.log(200.0) / (2 * trials))}
    return ExactDistribution._of_sorted_sample(sums, N, meta)


def kolmogorov_distance(dist, cdf, probes):
    """Sup distance between a distribution and a continuous CDF over a
    probe grid.

    ``cdf`` is evaluated once and compared with both one-sided limits of
    ``dist`` at every probe, so the atoms of ``dist`` are measured
    correctly no matter which side carries them.

    Parameters
    ----------
    dist : ExactDistribution
    cdf : callable
        Continuous CDF taking an array of probes.
    probes : array_like
        Probe points; should cover the support and the tails.
    """
    z = np.asarray(probes, dtype=float)
    f = cdf(z)
    right = np.max(np.abs(dist.cdf(z) - f), initial=0.0)
    left = np.max(np.abs(dist.cdf_left(z) - f), initial=0.0)
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
