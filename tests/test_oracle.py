"""Ground-truth oracles: the exact dynamic program, moments, Monte Carlo."""

import hashlib
import itertools
import math
import multiprocessing
import os
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chains import dense_chain
from memory import traced_peak
from edgeworth.errors import (
    InsufficientMoments,
    OracleInfeasible,
    OracleUnavailable,
    TableTooLarge,
    ValidationError,
)
from edgeworth import oracle
from edgeworth.jets import jet_mul
from edgeworth.evaluate import _model_key, edgeworth_cdf, exact_distribution
from edgeworth.expansion import expansion_for_model
from edgeworth.models import (
    bundled_model,
    iid_model,
    markov_model,
    pmf_moments,
    ulam_model,
)
from edgeworth.oracle import (
    ExactDistribution,
    dp_pmf,
    drift,
    erfc,
    exact_moments,
    kolmogorov_distance,
    mc_sample,
    normal_cdf,
)
from edgeworth.spectral import SparseMatrix


def test_exact_distribution_validation():
    with pytest.raises(ValidationError):
        ExactDistribution([0.0, 0.0], [0.5, 0.5], 1)
    with pytest.raises(ValidationError):
        ExactDistribution([0.0, 1.0], [0.5, 0.6], 1)
    with pytest.raises(ValidationError):
        ExactDistribution([[0.0, 1.0]], [[0.5, 0.5]], 1)


@pytest.mark.parametrize(
    "support, pmf",
    [
        ([0.0, 1.0], [math.nan, 1.0]),
        ([0.0, 1.0], [1.5, -0.5]),
        ([0.0, math.nan, 2.0], [0.25, 0.5, 0.25]),
        ([0.0, math.inf, math.inf], [0.25, 0.5, 0.25]),
    ],
    ids=["nan-mass", "negative-mass", "nan-atom", "infinite-atoms"],
)
def test_exact_distribution_refuses_invalid_input(support, pmf):
    # each was accepted before; a negative mass gave cdf(0.5) = 1.5, and
    # the infinite atoms warned from np.diff, which pytest makes an error
    with pytest.raises(ValidationError):
        ExactDistribution(support, pmf, 1)


def test_exact_distribution_and_affine_image_memory():
    # in units of one float64 array of the atom count: the cumulative sums
    # (one array) and the validation masks (1/8 each, one at a time).  The
    # name is kept from the standardized image this class no longer forms
    n = 10 ** 6
    support = np.arange(n, dtype=float)
    pmf = np.full(n, 1.0 / n)
    dist, peak = traced_peak(ExactDistribution, support, pmf, 1)
    assert peak < 1.5 * 8 * n
    # a query holds a few arrays of the probe count, none of the atom count
    probes = np.linspace(-0.1 * n, 1.1 * n, 20001)
    _, peak = traced_peak(dist.cdf, probes)
    assert peak < 10 * 8 * probes.size < 8 * n
    assert dist.cdf_left(0.0) == 0.0 and dist.cdf(0.0) == 1.0 / n


def test_cdf_reads_the_cumulative_at_each_atom():
    # F(x_k) is the (k + 1)-th cumulative sum and F(x_k-) the k-th, for a
    # pmf law and for samples with and without ties
    laws = [dp_pmf(bundled_model("two_state"), 64),
            mc_sample(bundled_model("two_state"), 16, 5000, 3),
            mc_sample(bundled_model("doubling_ulam"), 8, 5000, 3)]
    for dist in laws:
        n = dist.support.size
        cum = dist._cumulative(np.arange(n + 1))
        assert np.array_equal(dist.cdf(dist.support), cum[1:])
        assert np.array_equal(dist.cdf_left(dist.support), cum[:-1])
        assert cum[0] == 0.0
        assert np.array_equal(dist.cdf(np.nextafter(dist.support, np.inf)), cum[1:])
        assert np.array_equal(dist.cdf_left(np.nextafter(dist.support, -np.inf)), cum[:-1])


def test_tail_is_nonnegative_and_exactly_zero_above_the_support():
    # a pmf law, and samples with and without ties
    laws = [dp_pmf(bundled_model("two_state"), 64),
            mc_sample(bundled_model("two_state"), 16, 5000, 3),
            mc_sample(bundled_model("doubling_ulam"), 8, 5000, 3)]
    for dist in laws:
        probes = np.concatenate([dist.support, np.nextafter(dist.support, np.inf),
                                 np.nextafter(dist.support, -np.inf)])
        tail = dist.tail(probes)
        assert (tail >= 0.0).all()
        top = dist.support[-1]
        assert dist.tail(np.nextafter(top, np.inf)) == 0.0 and dist.tail(top + 1.0) == 0.0
        assert dist.tail(top) > 0.0
        if dist is not laws[0]:
            # a sample's count above differs from 1 - cdf_left by one rounding
            assert np.abs(tail - (1.0 - dist.cdf_left(probes))).max() <= np.finfo(float).eps


def test_dp_tail_sums_the_cells_above_without_cancellation():
    # 1 - cdf_left read these tails as rounding: -2.2e-16 and 7.8e-16 at
    # the c = 20 moderate-deviation probes of three_state_lattice, where
    # the cells sum to 4.0e-26 and 1.1e-31, and 1.3e-13 (the DP's mass
    # defect) above 3000 on two_state at N = 4096, where they sum to 6.6e-160
    lattice = bundled_model("three_state_lattice")
    params = expansion_for_model(lattice, 2).params
    cases = [(bundled_model("two_state"), 4096, 3000.0)]
    for N in (256, 1024):
        x = math.sqrt(20.0 * params.sigma2 * math.log(N))
        cases.append((lattice, N, N * params.A + x * math.sqrt(N)))
    for model, N, z in cases:
        dist = dp_pmf(model, N)
        want = math.fsum(dist.pmf[dist.support >= z].tolist())
        got = dist.tail(z)
        assert want > 0.0 and abs(got - want) <= 1e-15 * want, (N, got, want)
        assert dist.tail(np.array([z, z]))[1] == got


_FSUM_SIZES = [0, 1, 2, oracle._FSUM_BLOCK - 1, oracle._FSUM_BLOCK,
               oracle._FSUM_BLOCK + 1, 2 * oracle._FSUM_BLOCK - 1,
               2 * oracle._FSUM_BLOCK + 1, 3 * oracle._FSUM_BLOCK + 5]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    base=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
    size=st.sampled_from(_FSUM_SIZES),
    step=st.sampled_from([1, 2, 3, -1, -2]),
    cancel=st.booleans(),
)
def test_fsum_blocks_match_fsum_of_list(base, size, step, cancel):
    # wide exponents from the strategy, cancellation from negated halves,
    # strided and reversed views from the step, empty arrays from size 0
    a = np.resize(np.array(base), size * abs(step))
    if cancel:
        half = a.size // 2
        a[half:2 * half] = -a[:half]
    view = a[::step]
    assert view.size == size
    assert oracle._fsum(view).hex() == math.fsum(view.tolist()).hex()


def test_exact_distribution_queries():
    d = ExactDistribution([0.0, 1.0, 3.0], [0.25, 0.5, 0.25], 4)
    assert d.cdf(-1.0) == 0.0
    assert d.cdf(0.0) == 0.25
    assert d.cdf_left(1.0) == 0.25
    assert d.cdf(1.0) == 0.75
    assert d.tail(1.0) == 0.75
    assert d.tail(1.5) == 0.25
    assert abs(d.mean() - 1.25) <= 1e-15
    assert d.centered_moment(1.25, 0) == 1.0


def test_dp_matches_binomial():
    m = iid_model(pmf=[(0.0, 0.7), (1.0, 0.3)])
    for N in (5, 40):
        dist = dp_pmf(m, N)
        assert dist.support.tolist() == list(range(N + 1))
        for k in range(N + 1):
            want = math.comb(N, k) * 0.3**k * 0.7 ** (N - k)
            assert abs(dist.pmf[k] - want) <= 1e-14


def test_dp_mass_conservation():
    m = bundled_model("three_state_lattice")
    dist = dp_pmf(m, 500)
    assert abs(math.fsum(dist.pmf.tolist()) - 1.0) <= 1e-12


def test_dp_negative_rewards():
    m = markov_model(
        [[0.5, 0.5], [0.5, 0.5]], [[-1.0, 1.0], [1.0, -1.0]], [1.0, 0.0]
    )
    dist = dp_pmf(m, 10)
    assert dist.support.min() == -10.0 and dist.support.max() == 10.0
    assert abs(dist.mean()) <= 1e-14


def test_dp_shifted_positive_rewards():
    # rewards bounded away from zero: partial sums never reach N*min(h)
    m = markov_model([[0.5, 0.5], [0.5, 0.5]], [[1.0, 2.0], [2.0, 1.0]], [1.0, 0.0])
    dist = dp_pmf(m, 6)
    assert dist.support.min() == 6.0 and dist.support.max() == 12.0
    assert abs(math.fsum(dist.pmf.tolist()) - 1.0) <= 1e-13


def test_dp_span_half():
    m = markov_model([[0.6, 0.4], [0.3, 0.7]], [[0.5, 1.0], [1.5, 0.0]], [1.0, 0.0])
    dist = dp_pmf(m, 8)
    # every reachable atom sits on the half-integer lattice; edge atoms
    # can be unreachable, so steps are positive multiples of the span
    steps = np.diff(dist.support)
    assert np.abs(steps / 0.5 - np.rint(steps / 0.5)).max() <= 1e-12
    assert steps.min() >= 0.5 - 1e-12
    assert np.any(np.abs(steps - 0.5) <= 1e-12)


def _path_enumeration(m, N):
    # every path from the initial state, its probability and its reward
    # counts; atoms pool paths with equal counts of each reward value
    P, h = dense_chain(m)
    values = np.unique(h[(P > 0) & (h != 0)])
    atoms = {}
    for path in itertools.product(range(2), repeat=N + 1):
        prob = m.mu0[path[0]]
        counts = [0] * values.size
        for j, k in zip(path, path[1:]):
            prob *= P[j, k]
            if h[j, k] != 0.0:
                counts[int(np.searchsorted(values, h[j, k]))] += 1
        if prob > 0.0:
            atoms.setdefault(tuple(counts), []).append(prob)
    support = np.array([sum(c * v for c, v in zip(key, values)) for key in atoms])
    pmf = np.array([math.fsum(p) for p in atoms.values()])
    order = np.argsort(support)
    return support[order], pmf[order]


def test_dp_off_lattice_matches_path_enumeration():
    m = bundled_model("diophantine_two_state")
    for N in (1, 2, 5, 12):
        support, pmf = _path_enumeration(m, N)
        got = dp_pmf(m, N)
        assert got.support.size == support.size
        assert np.abs(got.support - support).max() <= 1e-13
        assert np.abs(got.pmf - pmf).max() <= 1e-15


def test_dp_zero_rewards_is_a_point_mass():
    # no nonzero reward: no count coordinate, one cell
    m = markov_model([[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0])
    assert m.lattice_span is None
    dist = dp_pmf(m, 5)
    assert dist.support.tolist() == [0.0] and dist.pmf.tolist() == [1.0]


@pytest.mark.parametrize("a", [
    np.array([]),
    np.full(7, 2.5),
    np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0]),
    np.round(np.random.default_rng(3).normal(size=5000), 2),
], ids=["empty", "all-equal", "signed-zeros", "random"])
def test_distinct_is_np_unique_bit_for_bit(a):
    got, want = oracle._distinct(a), np.unique(a)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _enum_distribution_merged(model, N, merge_tol=1e-9):
    # value enumeration that pools sums within merge_tol at their
    # probability-weighted value, as the reference on non-lattice chains
    P, h = dense_chain(model)
    d = P.shape[0]

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
            for k in range(d):
                if vals[j].size and P[j, k] != 0.0:
                    nvals[k].append(vals[j] + h[j, k])
                    nprbs[k].append(prbs[j] * P[j, k])
        pairs = [
            merge(np.concatenate(nv), np.concatenate(npb)) if nv else (np.empty(0), np.empty(0))
            for nv, npb in zip(nvals, nprbs)
        ]
        vals = [v for v, _ in pairs]
        prbs = [p for _, p in pairs]
    return merge(np.concatenate(vals), np.concatenate(prbs))


@pytest.mark.parametrize("N", [8, 16, 18])
def test_dp_off_lattice_matches_merged_enumeration(N):
    m = bundled_model("diophantine_two_state")
    support, pmf = _enum_distribution_merged(m, N)
    got = dp_pmf(m, N)
    assert got.support.size == support.size
    assert np.abs(got.pmf - pmf).max() <= 1e-15
    # the merged values are probability-weighted means, off by rounding
    assert np.abs(got.support - support).max() <= 1e-14


def test_dp_table_cap():
    with pytest.raises(TableTooLarge):
        dp_pmf(bundled_model("three_state_lattice"), 10**8)


def test_dp_table_ignores_rewards_on_impossible_transitions():
    # the reward 1000 sits on a transition of probability 0, so it sets
    # neither the span nor the table width
    P, mu0 = [[0.5, 0.5], [1.0, 0.0]], [1.0, 0.0]
    m = markov_model(P, [[1.0, 0.0], [0.0, 1000.0]], mu0)
    ref = markov_model(P, [[1.0, 0.0], [0.0, 0.0]], mu0)
    got = dp_pmf(m, 64)
    assert got.meta["table_width"] == 65
    want = dp_pmf(ref, 64)
    assert np.array_equal(got.support, want.support)
    assert np.array_equal(got.pmf, want.pmf)
    # 10002 cells are within the budget
    assert dp_pmf(m, 10001).meta["table_width"] == 10002


def _kahan_add_fresh(acc, comp, idx, term):
    y = term - comp[idx]
    t = acc[idx] + y
    comp[idx] = (t - acc[idx]) - y
    acc[idx] = t


def _dp_offsets(model, N):
    # the (d, d) integer steps of the DP's sum coordinate; for a count
    # lattice also the reward values and strides that map it back
    (P, h), span = dense_chain(model), model.lattice_span
    if span is not None:
        return np.rint(h / span).astype(np.int64), None, None
    used = (P > 0.0) & (h != 0.0)
    u = np.unique(h[used])
    strides = (N + 1) ** np.arange(u.size, dtype=np.int64)
    v = np.zeros(P.shape, dtype=np.int64)
    v[used] = strides[np.searchsorted(u, h[used])]
    return v, u, strides


def _dp_pmf_fresh_buffers(model, N, flush=True):
    # the source-major DP (for j: for k: compensated add) with two fresh
    # full-width arrays per step and fresh Kahan temporaries, as the
    # reference.  With ``flush``, after each step every cell outside the
    # first and last cell that some state holds at or above 2**-1022 is
    # set to 0.  Returns support, pmf and the exact sum of the zeroed
    # values.
    P, span = dense_chain(model)[0], model.lattice_span
    d = P.shape[0]
    v, u, strides = _dp_offsets(model, N)
    mn, mx = int(v.min()), int(v.max())
    lo_total = N * min(mn, 0)
    width = N * max(mx, 0) - lo_total + 1
    mass = np.zeros((d, width))
    start = -lo_total
    mass[:, start] = model.mu0
    cur_lo, cur_hi = start, start + 1
    flushed = []
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
                _kahan_add_fresh(new[k], ncomp[k], slice(lo, lo + seg.size), p * seg)
        mass = new
        cur_lo, cur_hi = cur_lo + min(mn, 0), cur_hi + max(mx, 0)
        if flush:
            live = np.flatnonzero((mass >= np.finfo(float).tiny).any(axis=0))
            for outside in (mass[:, :live[0]], mass[:, live[-1] + 1:]):
                flushed += outside[outside != 0.0].tolist()
                outside[...] = 0.0
    pmf_full = mass.sum(axis=0)
    nz = np.flatnonzero(pmf_full > 0.0)
    if span is not None:
        return (nz + lo_total) * span, pmf_full[nz], math.fsum(flushed)
    coords = (nz[:, None] // strides) % (N + 1)
    support, inverse = np.unique(coords @ u, return_inverse=True)
    return support, np.bincount(inverse, weights=pmf_full[nz]), math.fsum(flushed)


def _dp_pmf_unflushed(model, N):
    # the reference that keeps every sub-normal cell
    return _dp_pmf_fresh_buffers(model, N, flush=False)


def _nonpositive_two_state():
    # rewards in {-1, 0}: the active window grows only to the left
    m = bundled_model("two_state")
    P, h = dense_chain(m)
    return markov_model(P, -h, m.mu0)


@pytest.mark.parametrize("name", ["two_state", "three_state_lattice", "bernoulli", "nonpositive"])
@pytest.mark.parametrize("N", [1, 2, 7, 64, 1000])
def test_dp_reused_buffers_match_fresh_buffers(name, N):
    m = _nonpositive_two_state() if name == "nonpositive" else bundled_model(name)
    support, pmf, flushed = _dp_pmf_fresh_buffers(m, N)
    got = dp_pmf(m, N)
    assert np.array_equal(got.support, support)
    assert np.array_equal(got.pmf, pmf)
    assert got.meta["flushed_mass"] == flushed


@pytest.mark.parametrize("name,N", [
    ("two_state", 2048), ("two_state", 4096),
    ("three_state_lattice", 1024), ("three_state_lattice", 4096),
])
def test_dp_flush_drops_only_subnormal_edge_debris(name, N):
    m = bundled_model(name)
    support, pmf, _ = _dp_pmf_unflushed(m, N)
    got = dp_pmf(m, N)
    tiny = np.finfo(float).tiny
    kept = np.isin(support, got.support)
    assert np.array_equal(support[kept], got.support)
    assert not kept.all()
    # every atom of at least 1e-280 is kept, bit for bit
    big = pmf >= 1e-280
    assert kept[big].all()
    assert np.array_equal(got.pmf[np.isin(got.support, support[big])], pmf[big])
    # a dropped atom was below 2**-1022 in each of the d states
    assert pmf[~kept].max() < m.dim * tiny
    # no sub-normal atom is left at either end
    assert got.pmf[0] >= tiny and got.pmf[-1] >= tiny


def _window_cells(model, N):
    # the cells of the full active window, which grows by the reward
    # range per step, summed over the N steps and the d states
    grow = int(np.ptp(np.append(np.rint(dense_chain(model)[1] / model.lattice_span), 0.0)))
    return model.dim * sum(s * grow + 1 for s in range(N))


def test_dp_meta_without_subnormal_cells():
    m = bundled_model("two_state")
    got = dp_pmf(m, 1024)
    assert got.pmf.min() >= np.finfo(float).tiny
    # nothing is flushed, so the live band is the whole window
    assert got.meta == {"table_width": 1025, "live_width": 1025, "flushed_mass": 0.0,
                        "swept_cells": _window_cells(m, 1024)}


def test_dp_meta_reports_the_flushed_band():
    got = dp_pmf(bundled_model("two_state"), 4096)
    assert got.meta["table_width"] == 4097
    assert got.meta["live_width"] == got.support[-1] - got.support[0] + 1 < 4097
    assert 0.0 < got.meta["flushed_mass"] < 1e-300


def test_dp_steps_only_the_live_band():
    m = bundled_model("two_state")
    got = dp_pmf(m, 16384)
    assert got.meta["live_width"] == 7161
    assert got.meta["swept_cells"] < 0.6 * _window_cells(m, 16384)


def test_dp_ladder_memory_is_that_of_its_last_horizon():
    m = bundled_model("two_state")
    single, single_peak = traced_peak(dp_pmf, m, 16384)
    ladder, ladder_peak = traced_peak(oracle.dp_ladder, m, [1024, 4096, 16384])
    assert ladder_peak <= 1.5 * single_peak
    # the two tables of 2 x 16385 doubles (256 KiB each) dominate; nothing
    # is kept per step
    assert single_peak < 3 * 2 * 2 * 16385 * 8
    assert np.array_equal(ladder[-1].pmf, single.pmf)
    assert ladder[-1].meta == single.meta


def test_dp_pmf_is_the_ladder_of_one_horizon(monkeypatch):
    calls = []
    real = oracle.dp_ladder
    monkeypatch.setattr(oracle, "dp_ladder", lambda m, ns: calls.append(list(ns)) or real(m, ns))
    dp_pmf(bundled_model("two_state"), 12)
    assert calls == [[12]]


# [True, 2] was read as an N = 1 law
@pytest.mark.parametrize("N_list", [[], [0, 4], [4, 4], [8, 4], [4, 8.5], [True, 2]])
def test_dp_ladder_refuses_a_bad_horizon_list(N_list):
    with pytest.raises(ValidationError):
        oracle.dp_ladder(bundled_model("two_state"), N_list)


@pytest.mark.parametrize("name,N_list,refused", [
    ("diophantine_two_state", [8, 3200, 4000], 3200),
    ("three_state_lattice", [10, 10 ** 8], 10 ** 8),
])
def test_dp_ladder_refuses_over_budget_before_allocating(name, N_list, refused):
    m = bundled_model(name)
    with pytest.raises(TableTooLarge) as single:
        dp_pmf(m, refused)

    def ladder():
        with pytest.raises(TableTooLarge) as err:
            oracle.dp_ladder(m, N_list)
        return str(err.value)

    message, peak = traced_peak(ladder)
    assert message == str(single.value)
    assert peak < 10 ** 5


def _sparse_chain(d, seed, rewards=(-3, 3)):
    # random sparse lattice chain: state 0 has initial mass but no
    # incoming transition, column 1 has one source, column 2 two and
    # (for d >= 4) column 3 every state as source
    rng = np.random.default_rng(seed)
    mask = rng.random((d, d)) < 0.5
    mask[:, 0] = False
    mask[:, 1] = d == 2
    mask[0, 1] = True
    if d >= 3:
        mask[:, 2] = False
        mask[[1, 2], 2] = True
    if d >= 4:
        mask[:, 3] = True
    mask[~mask.any(axis=1), d - 1] = True
    P = np.where(mask, rng.random((d, d)) + 0.05, 0.0)
    P /= P.sum(axis=1, keepdims=True)
    h = rng.integers(rewards[0], rewards[1] + 1, size=(d, d)).astype(float)
    mu0 = rng.random(d) + 0.05
    return markov_model(P, h, mu0 / mu0.sum())


def _nonlattice_three_rewards():
    P = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]])
    h = np.array([[1.0, math.sqrt(2), 0.0], [-math.pi, 1.0, math.sqrt(2)], [0.0, -math.pi, 1.0]])
    return markov_model(P, h, np.array([0.5, 0.3, 0.2]))


_TARGET_MAJOR_MODELS = {
    "diophantine_two_state": lambda: bundled_model("diophantine_two_state"),
    "nonlattice_three_rewards": _nonlattice_three_rewards,
    **{f"sparse{d}": (lambda d=d: _sparse_chain(d, 100 + d)) for d in range(2, 7)},
    # one-signed rewards leave stale cells next to the first source's
    # write, so a short clear of either edge shows
    "sparse4_nonnegative": lambda: _sparse_chain(4, 204, rewards=(0, 3)),
    "sparse5_nonpositive": lambda: _sparse_chain(5, 205, rewards=(-3, 0)),
}


def test_sparse_chains_cover_every_source_count():
    chains = [make() for name, make in _TARGET_MAJOR_MODELS.items() if name.startswith("sparse")]
    counts = set()
    for m in chains:
        assert m.lattice_span is not None
        counts |= set((dense_chain(m)[0] != 0).sum(axis=0).tolist())
    assert {0, 1, 2} <= counts
    assert max(counts) >= 4
    assert any((dense_chain(m)[1] < 0).any() and (dense_chain(m)[1] > 0).any() for m in chains)


# three distinct rewards at N = 400 exceed the 10**7-cell budget
@pytest.mark.parametrize("name,N", [
    (name, N)
    for name in sorted(_TARGET_MAJOR_MODELS)
    for N in (1, 2, 7, 64, 400)
    if not (name == "nonlattice_three_rewards" and N > 64)
])
def test_dp_target_major_matches_source_major(name, N):
    m = _TARGET_MAJOR_MODELS[name]()
    support, pmf, flushed = _dp_pmf_fresh_buffers(m, N)
    got = dp_pmf(m, N)
    assert np.array_equal(got.support, support)
    assert np.array_equal(got.pmf, pmf)
    assert got.meta["flushed_mass"] == flushed


_LADDER_MODELS = {
    **_TARGET_MAJOR_MODELS,
    **{name: (lambda name=name: bundled_model(name))
       for name in ("two_state", "three_state_lattice", "bernoulli")},
    "nonpositive": _nonpositive_two_state,
}


@pytest.mark.parametrize("name,N_list", [
    (name, [1, 2, 7, 64] if name == "nonlattice_three_rewards" else [1, 2, 7, 64, 400])
    for name in sorted(_LADDER_MODELS)
] + [("two_state", [1024, 2048, 4096])])
def test_dp_ladder_matches_each_horizon_alone(name, N_list):
    # the ladder starts at 1 or crosses the first flushed step (past
    # N = 1500 on two_state); a non-lattice ladder flattens the counts in
    # the base of its last horizon, yet reports widths in each horizon's
    # own base
    m = _LADDER_MODELS[name]()
    for N, got in zip(N_list, oracle.dp_ladder(m, N_list)):
        support, pmf, flushed = _dp_pmf_fresh_buffers(m, N)
        assert got.N == N
        assert np.array_equal(got.support, support)
        assert np.array_equal(got.pmf, pmf)
        assert got.meta["flushed_mass"] == flushed
        assert got.meta == dp_pmf(m, N).meta


def test_dp_full_kahan_step_only_for_three_or_more_sources(monkeypatch):
    calls = []
    real = oracle._kahan_add
    monkeypatch.setattr(oracle, "_kahan_add", lambda *a: calls.append(1) or real(*a))
    for name in ("two_state", "bernoulli", "diophantine_two_state"):
        dp_pmf(bundled_model(name), 50)
    assert not calls
    dp_pmf(bundled_model("three_state_lattice"), 50)
    assert len(calls) == 50 * 3


def test_dp_ladder_of_the_lattice_verify_benchmark_is_pinned():
    # the fresh-buffer reference is too slow at these horizons, so the
    # benchmarked ladder is pinned bit for bit: each law's digest is the
    # first 16 hex digits of sha256(support bytes + pmf bytes)
    got = oracle.dp_ladder(bundled_model("two_state"), [1024, 4096, 16384])
    want = [
        ((1025, 1025, 0.0, 1049600), "bc81574eb9fe9fb1"),
        ((4097, 3328, 1.6292721633054083e-305, 15435866), "faf6f4d030dc4841"),
        ((16385, 7161, 2.0838611496174202e-304, 150084562), "e8740ecf0465a9d3"),
    ]
    for dist, ((table, live, flushed, swept), digest) in zip(got, want, strict=True):
        assert dist.meta == {"table_width": table, "live_width": live,
                             "flushed_mass": flushed, "swept_cells": swept}
        assert hashlib.sha256(dist.support.tobytes() + dist.pmf.tobytes()).hexdigest()[:16] == digest


_TINY = np.finfo(float).tiny
# values below 2**-1022: sub-normals, the largest of them and exact 0
_DEAD_VALUES = [5e-324, _TINY / 3, np.nextafter(_TINY, 0.0), 0.0]


def _flush_table(d, dead_lo, live, dead_hi, seed):
    # a table of d states whose band [2, 2 + width) holds dead runs of
    # dead_lo and dead_hi cells around ``live`` cells; the end cells of
    # the live run hold 2**-1022 or more in one state, its inner cells in
    # some state or none.  The cells outside the band hold 1.0, which no
    # scan may read or zero.
    rng = np.random.default_rng(seed)
    width = dead_lo + live + dead_hi
    mass = np.ones((d, width + 4))
    band = mass[:, 2:2 + width]
    band[...] = rng.choice(_DEAD_VALUES, size=band.shape)
    band[0] = rng.choice(_DEAD_VALUES[:-1], size=width)  # no run is all zeros
    for i in range(dead_lo, dead_lo + live):
        if i in (dead_lo, dead_lo + live - 1) or rng.random() < 0.5:
            band[rng.integers(d), i] = rng.choice([_TINY, 0.25])
    return mass, 2, 2 + width


def _check_flush(mass, t_lo, t_hi, slab):
    before = mass.copy()
    flushed = []
    lo, hi = oracle._flush_ends(mass, t_lo, t_hi, slab, flushed)
    live = np.flatnonzero((before[:, t_lo:t_hi] >= _TINY).any(axis=0))
    want_lo, want_hi = (t_lo + live[0], t_lo + live[-1] + 1) if live.size else (t_hi, t_hi)
    assert (lo, hi) == (want_lo, want_hi)
    want = before.copy()
    want[:, t_lo:lo] = 0.0
    want[:, hi:t_hi] = 0.0
    assert np.array_equal(mass, want)
    gone = np.concatenate([before[:, t_lo:lo].ravel(), before[:, hi:t_hi].ravel()])
    got = np.concatenate(flushed) if flushed else np.zeros(0)
    assert np.array_equal(np.sort(got), np.sort(gone))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("dead_lo", [0, 1, 2, 3, 9])
@pytest.mark.parametrize("dead_hi", [0, 1, 2, 3, 9])
@pytest.mark.parametrize("slab", [1, 3])
def test_flush_ends_matches_the_live_cells_of_the_band(d, dead_lo, dead_hi, slab):
    # runs of 9 cells are longer than either slab, so the doubling scan
    # crosses slabs; with one state a slice of the table is contiguous,
    # so the recorded values must be copies, not views of zeroed cells
    for live in (1, 2, 5):
        seed = 100 * d + 10 * dead_lo + dead_hi + live
        _check_flush(*_flush_table(d, dead_lo, live, dead_hi, seed), slab)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("width", [1, 2, 5, 12])
def test_flush_ends_of_an_all_dead_band_leaves_it_empty(d, width):
    mass, t_lo, t_hi = _flush_table(d, width, 0, 0, seed=width)
    _check_flush(mass, t_lo, t_hi, slab=2)


def test_enum_golden_support_size():
    m = bundled_model("diophantine_two_state")
    N = 10
    dist = dp_pmf(m, N)
    # path sums are a + b*phi with a + b <= N, so at most (N+1)(N+2)/2 atoms
    assert N < dist.support.size <= (N + 1) * (N + 2) // 2
    assert abs(math.fsum(dist.pmf.tolist()) - 1.0) <= 1e-12


def test_enum_cap():
    # two reward counts in 0..N: the table is N (N + 1) + 1 > 10**7 cells wide
    with pytest.raises(TableTooLarge):
        exact_distribution(bundled_model("diophantine_two_state"), 3200, "dp")


def test_exact_moments_match_dp_centered():
    # diophantine_two_state has a non-lattice reward; the count DP still
    # gives its exact pmf
    for name in ("two_state", "three_state_lattice", "diophantine_two_state"):
        m = bundled_model(name)
        N = 30
        A = drift(m)
        dist = dp_pmf(m, N)
        jets = exact_moments(m, N, 6)
        for k in range(7):
            want = dist.centered_moment(N * A, k)
            assert abs(jets[k] - want) <= 1e-11 * max(1.0, abs(want)), (name, k)


def test_exact_moments_iid_jet_route():
    pmf = [(-1.0, 0.25), (0.0, 2.0 / 3.0), (3.0, 1.0 / 12.0)]
    chain = iid_model(pmf=pmf)
    jetm = bundled_model("iid_moments")
    N = 16
    via_chain = exact_moments(chain, N, 6)
    via_jets = exact_moments(jetm, N, 6)
    for k in range(7):
        assert abs(via_chain[k] - via_jets[k]) <= 1e-9 * max(1.0, abs(via_chain[k]))


def _exact_moments_by_dense_sweep(model, N, kmax):
    # the (kmax+1, d, d) sweep over every source that the stepping on the
    # nonzeros replaced, kept as the reference
    A = drift(model)
    P, h = dense_chain(model)
    jets = np.zeros((kmax + 1,) + P.shape, dtype=complex)
    term = np.ones(P.shape, dtype=complex)
    jets[0] = P
    for m in range(1, kmax + 1):
        term = term * (1j * (h - A)) / m
        jets[m] = P * term
    row = np.zeros((kmax + 1, model.dim), dtype=complex)
    row[0] = model.mu0
    for _ in range(N):
        terms = jet_mul(row[:, :, None], jets)
        row = np.zeros_like(row)
        for j in range(model.dim):
            row += terms[:, j]
    chi = np.zeros(kmax + 1, dtype=complex)
    for k in range(model.dim):
        chi += row[:, k]
    return [float((math.factorial(k) * (-1j) ** k * chi[k]).real) for k in range(kmax + 1)]


def test_exact_moments_on_the_nonzeros_equal_the_dense_sweep():
    rng = np.random.default_rng(17)
    chains = [bundled_model("three_state_lattice"), bundled_model("bernoulli"),
              ulam_model("piecewise-linear", lambda x: x * x, 64, [0.0, 0.3, 0.7, 1.0])]
    for d in (5, 17):
        P = rng.random((d, d)) * (rng.random((d, d)) < 0.4)  # many zero entries
        P[np.arange(d), (np.arange(d) + 1) % d] += 0.3
        P /= P.sum(axis=1, keepdims=True)
        chains.append(markov_model(P, rng.normal(size=(d, d)), np.full(d, 1.0 / d)))
    for model in chains:
        for N, kmax in ((1, 0), (8, 3), (30, 6)):
            got = [v.hex() for v in exact_moments(model, N, kmax)]
            want = [v.hex() for v in _exact_moments_by_dense_sweep(model, N, kmax)]
            assert got == want, (model.dim, N, kmax)


def _dense_stationary(model):
    # the one dense solve that served every chain, kept as the reference
    P, _ = dense_chain(model)
    d = model.dim
    M = (P - np.eye(d)).T
    M[-1, :] = 1.0
    b = np.zeros(d)
    b[-1] = 1.0
    return np.linalg.solve(M, b)


def test_stationary_of_dense_chains_is_the_dense_solve():
    for name in ("two_state", "three_state_lattice", "diophantine_two_state", "bernoulli"):
        model = bundled_model(name)
        assert np.array_equal(oracle._stationary(model), _dense_stationary(model)), name


def test_stationary_of_sparse_chains_iterates_on_the_entries(monkeypatch):
    # the O(d**3) dense solve took 1.6 s of exact_moments on 4096 cells
    chains = [ulam_model("doubling", lambda x: np.cos(2.0 * np.pi * x), 4096),
              ulam_model("piecewise-linear", np.sin, 1000, [0.0, 0.3, 1.0])]
    want = [np.full(4096, 1.0 / 4096), _dense_stationary(chains[1])]

    def refuse(*args):
        raise AssertionError("dense stationary solve on a sparse chain")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for model, pi in zip(chains, want):
        got = oracle._stationary(model)
        assert np.abs(got - pi).max() <= 1e-12 * pi.max()
        # a fixed point of pi^T P to rounding, unlike the solve's 3.5e-16
        rows, cols, p, _ = model.entries()
        step = np.bincount(cols, weights=got[rows] * p, minlength=model.dim)
        assert np.abs(step - got).max() <= 4.0 * np.finfo(float).eps * got.max()
    assert len(exact_moments(chains[0], 64, 6)) == 7


def test_stationary_falls_back_to_the_dense_solve_when_unsettled():
    # a biased walk on 200 states: the iteration from the uniform vector
    # needs far more than 1000 products, so the dense solve answers
    d = 200
    P = np.zeros((d, d))
    for j in range(d):
        P[j, max(j - 1, 0)] += 0.2
        P[j, j] += 0.5
        P[j, min(j + 1, d - 1)] += 0.3
    model = markov_model(P, np.zeros((d, d)), np.full(d, 1.0 / d))
    assert 8 * model.entries()[2].size <= d * d
    assert np.array_equal(oracle._stationary(model), _dense_stationary(model))


def test_exact_moments_tiles_give_the_same_moments(monkeypatch):
    # jet products act entry by entry, so any tiling of the entries
    chains = [bundled_model("two_state"), bundled_model("doubling_ulam"),
              ulam_model("piecewise-linear", lambda x: x * x, 64, [0.0, 0.3, 0.7, 1.0])]
    want = [exact_moments(m, 12, 6) for m in chains]
    monkeypatch.setattr(oracle, "_JET_TILE", 3)
    for model, moments in zip(chains, want):
        assert [v.hex() for v in exact_moments(model, 12, 6)] == [v.hex() for v in moments]


def test_drift_of_moment_model_is_first_moment():
    pmf = [(-1.0, 0.25), (0.5, 0.5), (3.0, 0.25)]
    moments = pmf_moments(pmf, 4)
    assert drift(iid_model(moments=moments)) == moments[0]
    assert abs(drift(iid_model(pmf=pmf)) - moments[0]) <= 1e-12


def test_moment_model_oracles_read_the_moments_not_the_family(monkeypatch):
    # the oracles stay independent of spectral's family layout
    m = bundled_model("iid_moments")
    want_drift, want_moments = drift(m), exact_moments(m, 16, 6)
    assert want_drift == m.operator_family(2).coeffs[1, 0]

    def refuse(self, order):
        raise AssertionError("operator family read by an oracle")

    monkeypatch.setattr(type(m), "operator_family", refuse)
    assert drift(m) == want_drift
    assert exact_moments(m, 16, 6) == want_moments
    with pytest.raises(InsufficientMoments):
        exact_moments(m, 16, 9)


def test_mc_deterministic_and_close_to_dp():
    m = bundled_model("two_state")
    N, trials, seed = 32, 200_000, 99
    a = mc_sample(m, N, trials, seed)
    b = mc_sample(m, N, trials, seed)
    assert np.array_equal(a.support, b.support)
    assert np.array_equal(a.pmf, b.pmf)
    assert a.meta["seed"] == seed and "prng" in a.meta
    assert a.meta["dkw99"] == math.sqrt(math.log(200.0) / (2 * trials))
    # both are step CDFs on the same integer lattice: compare both sides
    # of every atom, inside the sample's own 99 % DKW band (3.64e-3; the
    # reading at this seed is 1.04e-3)
    dd = dp_pmf(m, N)
    worst = max(np.abs(a.cdf(dd.support) - dd.cdf(dd.support)).max(),
                np.abs(a.cdf_left(dd.support) - dd.cdf_left(dd.support)).max())
    assert worst <= a.meta["dkw99"]


def test_mc_dkw_band_at_a_million_trials():
    # Massart's 99 % band for the KS distance of 10**6 trials
    assert abs(mc_sample(bundled_model("bernoulli"), 1, 10 ** 6, 5).meta["dkw99"] - 1.6276e-3) < 5e-8


def test_mc_chunking_boundary():
    # trials chosen to straddle a chunk boundary
    m = bundled_model("two_state")
    dist = mc_sample(m, 4, (1 << 17) + 17, 3)
    assert abs(math.fsum(dist.pmf.tolist()) - 1.0) <= 1e-12


@pytest.mark.parametrize("endpoints", [[0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0],
                                       [0.0, 0.25, 0.5, 1.0]])
def test_mc_refuses_a_map_with_power_of_two_branch_widths(endpoints):
    # each float step of such a map is exact and drops bits: on the x4 map
    # every orbit sat at the fixed point 0 by step 27
    model = ulam_model("piecewise-linear", lambda x: x, 16, endpoints)
    with pytest.raises(OracleUnavailable, match='"doubling" map kind'):
        mc_sample(model, 8, 100, 1)


def test_mc_refuses_trials_beyond_its_budget_before_allocating(monkeypatch):
    # 10**10 trials would need about 250 GB; the refusal comes first
    def no_sample(*args, **kwargs):
        raise AssertionError("the sample was allocated")

    monkeypatch.setattr(oracle.mmap, "mmap", no_sample)
    with pytest.raises(OracleInfeasible, match="budget of 100000000"):
        mc_sample(bundled_model("doubling_ulam"), 512, 10 ** 10, 1)


# a bool was read as 1 or 0: one trial, seed 0, N = 1
@pytest.mark.parametrize("field, args", [
    ("seed", (8, 100, -1)), ("seed", (8, 100, 1.5)), ("trials", (8, 100.0, 1)), ("N", (2.5, 100, 1)),
    ("trials", (4, True, 1)), ("seed", (4, 100, False)), ("N", (True, 100, 1)),
])
def test_mc_refuses_a_non_integer_or_negative_seed_or_size(field, args):
    # numpy refused the seed -1 with its own ValueError
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        mc_sample(bundled_model("two_state"), *args)


def test_mc_trial_budget_admits_its_own_size(monkeypatch):
    monkeypatch.setattr(oracle, "_MC_TRIAL_BUDGET", 1000)
    assert mc_sample(bundled_model("two_state"), 4, 1000, 1).pmf.size <= 5
    with pytest.raises(OracleInfeasible):
        mc_sample(bundled_model("two_state"), 4, 1001, 1)


def test_mc_doubling_deterministic():
    m = bundled_model("doubling_ulam")
    a = mc_sample(m, 8, 4000, 11)
    b = mc_sample(m, 8, 4000, 11)
    assert np.array_equal(a.support, b.support)
    assert a.support.size > 3000  # continuous values rarely collide


def _simulate_doubling_per_step(g, N, trials, rng):
    # the one-draw-per-step loop the block draw replaced, kept as the reference
    k = rng.integers(0, 1 << 52, size=trials, dtype=np.uint64)
    mask = np.uint64((1 << 52) - 1)
    sums = np.zeros(trials)
    one = np.uint64(1)
    for _ in range(N):
        sums += g(k.astype(np.float64) * 0.5**52)
        fresh = rng.integers(0, 2, size=trials, dtype=np.uint64)
        k = ((k << one) & mask) | fresh
    return sums


@pytest.mark.parametrize("trials", [1, 2, 7, 8, 131])
def test_doubling_block_bits_match_per_step_draws(trials):
    for N in (1, 5, 63, 64, 65, 130):
        seen = {"block": [], "step": []}

        def recorder(key):
            def g(x):
                seen[key].append(x.copy())
                return x * x
            return g

        rng = np.random.default_rng([5, N])
        got = oracle._simulate_doubling(recorder("block"), N, trials, rng)
        rng = np.random.default_rng([5, N])
        want = _simulate_doubling_per_step(recorder("step"), N, trials, rng)
        # g sees each step's arguments in leading-bit order, not trial order
        assert len(seen["block"]) == len(seen["step"]) == N
        for a, b in zip(seen["block"], seen["step"]):
            assert np.array_equal(np.sort(a), np.sort(b))
        assert np.array_equal(got, want)


def _simulate_doubling_step_major(g, N, trials, rng):
    # the block draw swept step by step over all trials, kept as the
    # reference for the tiled sweep
    k = rng.integers(0, 1 << 52, size=trials, dtype=np.uint64)
    mask = np.uint64((1 << 52) - 1)
    sums = np.zeros(trials)
    one = np.uint64(1)
    for first in range(0, N, 64):
        steps = min(64, N - first)
        raw = rng.bit_generator.random_raw((steps * trials + 1) // 2)
        halves = raw.astype("<u8", copy=False).view("<u4")
        for s in range(steps):
            sums += g(k * 0.5**52)
            fresh = halves[s * trials:(s + 1) * trials] >> 31
            k = ((k << one) & mask) | fresh
    return sums


# libm's branching cos and sin, and two branch-free polynomials
_OBSERVABLES = (
    lambda x: np.cos(2.0 * np.pi * x),
    lambda x: np.sin(2.0 * np.pi * x),
    lambda x: x,
    lambda x: x * x - 0.3,
)


@pytest.mark.parametrize("N", [1, 7, 8, 9, 16, 17, 77])
def test_doubling_tiles_match_step_major_sweep(N):
    # N on both sides of a regrouping (8 steps) and of a block (16 steps),
    # blocks of odd N that end mid-draw; one trial, a tile and one more,
    # and 2.2 tiles of trials
    for trials in (1, oracle._DOUBLING_TILE + 1, 2 * oracle._DOUBLING_TILE + 1001):
        for g in _OBSERVABLES:
            got = oracle._simulate_doubling(g, N, trials, np.random.default_rng([9, N]))
            want = _simulate_doubling_step_major(g, N, trials, np.random.default_rng([9, N]))
            assert np.array_equal(got, want)


def test_doubling_observable_sees_a_tile_in_leading_bit_order():
    # each regrouping sorts the tile on the top 10 bits of k, so the first
    # step after it hands g its arguments with floor(1024 x) nondecreasing
    seen = []

    def g(x):
        seen.append(x.copy())
        return np.cos(2.0 * np.pi * x)

    oracle._simulate_doubling(g, 17, oracle._DOUBLING_TILE, np.random.default_rng(3))
    for s in (0, 8, 16):
        assert np.all(np.diff(np.floor(seen[s] * 1024)) >= 0)


def test_doubling_tiles_keep_the_observable_temporaries_small():
    sizes = []

    def g(x):
        sizes.append(x.nbytes)
        return np.cos(2.0 * np.pi * x)

    oracle._simulate_doubling(g, 3, 3 * oracle._DOUBLING_TILE, np.random.default_rng(1))
    assert max(sizes) <= 64 * 1024 and len(sizes) == 9


def _next_state_by_comparison(cum_rows, states, u):
    # the trials x d comparison that bisection replaced
    return (u[:, None] > cum_rows[states]).sum(axis=1)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 50])
def test_count_below_matches_comparison_count_at_ties(d):
    # rows with plateaus (entries of probability 0), probed at every
    # entry's exact value, just below and above it, and at 0 and 1
    rng = np.random.default_rng(d)
    P = rng.random((d, d)) * (rng.random((d, d)) < 0.5)
    P[:, -1] += 0.01
    cum_rows = np.cumsum(P / P.sum(axis=1, keepdims=True), axis=1)
    states = np.repeat(np.arange(d), 3 * d + 2)
    u = np.concatenate([np.concatenate([row, np.nextafter(row, 0.0), np.nextafter(row, 2.0),
                                        [0.0, 1.0]]) for row in cum_rows])
    # the rows whole, d entries each
    got = oracle._count_below(cum_rows.ravel(), states * d, np.full(states.size, d), u)
    assert np.array_equal(got, _next_state_by_comparison(cum_rows, states, u))
    # the rows on their entries of positive probability, of varying length
    keep = P > 0
    length = keep.sum(axis=1)
    first = np.cumsum(length) - length
    got = oracle._count_below(cum_rows[keep], first[states], length[states], u)
    want = [(ui > cum_rows[j][keep[j]]).sum() for j, ui in zip(states, u)]
    assert np.array_equal(got, want)


def _simulate_chain_by_comparison(model, N, trials, rng):
    # the trials x d comparison on the d x d cumulative rows
    P, h = dense_chain(model)
    cum_rows = np.cumsum(P, axis=1)
    states = np.searchsorted(np.cumsum(model.mu0), rng.random(trials), side="right")
    states = np.minimum(states, P.shape[0] - 1)
    sums = np.zeros(trials)
    for _ in range(N):
        nxt = _next_state_by_comparison(cum_rows, states, rng.random(trials))
        nxt = np.minimum(nxt, P.shape[0] - 1)
        sums += h[states, nxt]
        states = nxt
    return sums


def _simulate_entries_by_comparison(model, N, trials, rng):
    # the comparison on each row's entries: their running sums, padded
    # with inf, and the states and rewards they lead to
    rows, cols, p, h = model.entries()
    d = model.dim
    length = np.bincount(rows, minlength=d)
    cum = np.full((d, length.max()), np.inf)
    to = np.zeros(cum.shape, dtype=np.intp)
    reward = np.zeros(cum.shape)
    for j in range(d):
        at = rows == j
        cum[j, :length[j]] = np.cumsum(p[at])
        to[j, :length[j]], reward[j, :length[j]] = cols[at], h[at]
    states = np.searchsorted(np.cumsum(model.mu0), rng.random(trials), side="right")
    states = np.minimum(states, d - 1)
    sums = np.zeros(trials)
    for _ in range(N):
        e = _next_state_by_comparison(cum, states, rng.random(trials))
        e = np.minimum(e, length[states] - 1)
        sums += reward[states, e]
        states = to[states, e]
    return sums


def _bisection_chain(d):
    # the Ulam chains have rows of 2 entries (doubling) and of 3 and 4
    if d == "doubling-64":
        return ulam_model("doubling", g=lambda x: np.cos(2.0 * np.pi * x), cells=64)
    if d == "piecewise-64":
        return ulam_model("piecewise-linear", lambda x: x * x - 0.3, 64, [0.0, 0.3, 0.65, 1.0])
    rng = np.random.default_rng(d)
    P = rng.random((d, d)) * (rng.random((d, d)) < 0.4)  # many zero entries
    P[:, d // 2] += 0.01  # and every row some mass
    P[0] = 0.0
    P[0, -1] = 1.0  # a row whose only entry is the last one
    P /= P.sum(axis=1, keepdims=True)
    h = rng.normal(size=(d, d))
    return markov_model(P, h, np.full(d, 1.0 / d))


@pytest.mark.parametrize("d", [2, 3, 7, 50, 200, "doubling-64", "piecewise-64"])
def test_chain_bisection_matches_comparison_count(d):
    model = _bisection_chain(d)
    got = oracle._simulate_chain(model, 40, 3001, np.random.default_rng(7))
    want = _simulate_chain_by_comparison(model, 40, 3001, np.random.default_rng(7))
    assert np.array_equal(got, want)
    want = _simulate_entries_by_comparison(model, 40, 3001, np.random.default_rng(7))
    assert np.array_equal(got, want)


class _Draws:
    """Generator stub: each ``random(n)`` returns the next queued draws."""

    def __init__(self, *draws):
        self.draws = [np.asarray(u, dtype=float) for u in draws]

    def random(self, n):
        u = self.draws.pop(0)
        assert u.size == n
        return u


def test_chain_draw_above_a_row_total_takes_the_last_possible_state():
    # row 0 and mu0 sum to 1 - 1e-13, so a draw of 1 - 2**-44 lies above
    # their rounded totals; it used to take state d - 1 = 2, of probability 0
    P = [[0.5, 0.5 - 1e-13, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]
    h = [[0.0, 2.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]
    top = 1.0 - 2.0 ** -44
    model = markov_model(P, h, [1.0, 0.0, 0.0])
    sums = oracle._simulate_chain(model, 2, 2, _Draws([0.3, 0.3], [top, 0.7], [0.7, 0.7]))
    # 0 -> 1 -> 1 and 0 -> 1 -> 1, not 0 -> 2 -> 2 (S_2 = 3)
    assert sums.tolist() == [4.0, 4.0]
    model = markov_model(P, h, P[0])
    sums = oracle._simulate_chain(model, 2, 1, _Draws([top], [0.7], [0.7]))
    assert sums.tolist() == [4.0]  # starts in 1, not in 2 (S_2 = 6)


def test_chain_draw_of_zero_takes_the_first_possible_state():
    # row 1 puts probability 0 on state 0, so a draw of exactly 0.0 must
    # take state 1; it used to take state 0 and add the dropped reward 0
    model = markov_model([[0.5, 0.5], [0.0, 1.0]], [[1.0, 1.0], [7.0, 1.0]], [0.0, 1.0])
    sums = oracle._simulate_chain(model, 1, 1, _Draws([0.9], [0.0]))
    assert sums.tolist() == [1.0]
    # in row 0 the first entry is possible: 0.0 takes state 0
    model = markov_model([[0.5, 0.5], [0.0, 1.0]], [[3.0, 1.0], [7.0, 1.0]], [1.0, 0.0])
    sums = oracle._simulate_chain(model, 2, 1, _Draws([0.0], [0.0], [0.0]))
    assert sums.tolist() == [6.0]


def _mc_sums_serial(model, N, trials, seed, chunk):
    # the chunk-by-chunk serial loop, kept as the reference for the dispatch
    parts = []
    for idx, lo in enumerate(range(0, trials, chunk)):
        m = min(chunk, trials - lo)
        rng = np.random.default_rng([seed, idx])
        if getattr(model, "map_kind", None) == "doubling":
            parts.append(_simulate_doubling_per_step(model.map_g_vec, N, m, rng))
        elif getattr(model, "map_kind", None) is not None:
            parts.append(oracle._simulate_map(model, N, m, rng))
        else:
            parts.append(oracle._simulate_chain(model, N, m, rng))
    return np.concatenate(parts)


def _mc_sample_serial(model, N, trials, seed, chunk):
    values, counts = np.unique(_mc_sums_serial(model, N, trials, seed, chunk),
                               return_counts=True)
    return values, counts / trials


def _mc_models():
    return {
        "doubling": bundled_model("doubling_ulam"),
        "piecewise": ulam_model(
            "piecewise-linear",
            g=lambda x: np.sin(3.0 * x),
            cells=32,
            endpoints=[0.0, 0.3, 1.0],
        ),
        "chain": bundled_model("two_state"),
    }


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", ["doubling", "piecewise", "chain"])
def test_mc_sample_matches_serial_chunk_loop(monkeypatch, name, cpus):
    # cpus=1 takes the plain loop, cpus=3 the forked workers where fork exists
    monkeypatch.setattr(oracle, "_MC_CHUNK", 1000)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
    model = _mc_models()[name]
    N, trials, seed = 70, 3517, 41
    dist = mc_sample(model, N, trials, seed)
    values, pmf = _mc_sample_serial(model, N, trials, seed, 1000)
    assert np.array_equal(dist.support, values)
    assert np.array_equal(dist.pmf, pmf)
    assert dist.meta["chunk"] == 1000


@pytest.mark.parametrize("cpus", [1, 3])
def test_mc_sample_tally_matches_unique_with_many_ties(monkeypatch, cpus):
    # a two-state chain takes S_16 on 17 lattice points, so every value is
    # a long run of ties; the last chunk of 2**17 trials is partial
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
    model = bundled_model("two_state")
    N, trials, seed = 16, 3 * (1 << 17) + 4321, 8
    dist = mc_sample(model, N, trials, seed)
    values, pmf = _mc_sample_serial(model, N, trials, seed, 1 << 17)
    assert values.size <= N + 1
    assert np.array_equal(dist.support, values)
    assert np.array_equal(dist.pmf, pmf)


@pytest.mark.parametrize(
    "name, N, trials",
    [("doubling_ulam", 40, (1 << 17) + 5), ("two_state", 16, (1 << 17) + 5),
     ("doubling_ulam", 40, 1), ("two_state", 16, 1)],
)
def test_mc_sample_equals_a_unique_rebuild(name, N, trials):
    # all distinct on the doubling map, long runs of ties on two_state;
    # 2**17 + 5 trials end in a 5-trial chunk
    model = bundled_model(name)
    dist = mc_sample(model, N, trials, 23)
    values, counts = np.unique(_mc_sums_serial(model, N, trials, 23, 1 << 17),
                               return_counts=True)
    if name == "doubling_ulam":
        assert values.size == trials
    assert np.array_equal(dist.support, values)
    assert np.array_equal(dist.pmf, counts / trials)
    # the cumulative is the count over the trials, rounded once
    assert np.array_equal(dist.cdf(values), np.cumsum(counts) / trials)
    assert np.array_equal(dist.cdf_left(values), (np.cumsum(counts) - counts) / trials)


def _trace_mc_after_the_chunks(monkeypatch, model, N, trials, seed):
    """``mc_sample`` run serially, with the traced peak from the end of
    its chunks to its return and a weak reference to its sample."""
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
    seen = {}
    run_chunks = oracle._run_chunks

    def run_then_trace(chunk, count):
        run_chunks(chunk, count)
        (sample,) = [c.cell_contents for c in chunk.__closure__
                     if isinstance(c.cell_contents, np.ndarray)]
        seen["sample"] = weakref.ref(sample)
        del sample
        tracemalloc.reset_peak()
        seen["base"] = tracemalloc.get_traced_memory()[0]

    monkeypatch.setattr(oracle, "_run_chunks", run_then_trace)
    tracemalloc.start()
    try:
        dist = mc_sample(model, N, trials, seed)
        peak = tracemalloc.get_traced_memory()[1] - seen["base"]
    finally:
        tracemalloc.stop()
    return dist, peak, seen["sample"]


def test_mc_law_of_distinct_values_is_its_sorted_sample(monkeypatch):
    # the tally used to peak at two arrays of the atom count beside the
    # sample, about 16 traced bytes per trial, and to free the sample
    trials = 200_000
    dist, peak, sample = _trace_mc_after_the_chunks(
        monkeypatch, bundled_model("doubling_ulam"), 8, trials, 5)
    assert dist.support.size == trials
    # the sample sits in an anonymous map, which tracemalloc does not see:
    # only the 1-byte mask of run starts is traced
    assert peak < 2 * trials
    assert sample() is not None and np.shares_memory(dist.support, sample())
    assert np.array_equal(dist.pmf, np.full(trials, 1.0 / trials))


def test_mc_law_with_ties_holds_its_atoms_and_frees_the_sample(monkeypatch):
    trials = 200_000
    dist, peak, sample = _trace_mc_after_the_chunks(
        monkeypatch, bundled_model("two_state"), 16, trials, 5)
    assert dist.support.size <= 17
    assert sample() is None
    assert peak < 2 * trials
    assert dist.cdf(dist.support[-1]) == 1.0 and dist.cdf_left(dist.support[0]) == 0.0


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_mc_refuses_a_non_finite_sample(monkeypatch, bad, cpus):
    # NaN sorts last and -inf first, so the two ends of the sorted sample
    # decide; one sign of infinity per sample, since inf - inf would warn
    monkeypatch.setattr(oracle, "_MC_CHUNK", 100)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
    model = ulam_model("doubling", g=lambda x: np.cos(2.0 * np.pi * x), cells=16)
    model.map_g_vec = lambda x: np.where(x < 0.01, bad, np.cos(2.0 * np.pi * x))
    with pytest.raises(ValidationError, match="^support must be finite$"):
        mc_sample(model, 8, 350, 1)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 3])
def test_mc_worker_error_reraises_in_caller(monkeypatch, cpus):
    monkeypatch.setattr(oracle, "_MC_CHUNK", 100)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)

    def g(x):
        raise ValueError("observable failed")

    model = ulam_model("doubling", g=lambda x: np.cos(2.0 * np.pi * x), cells=16)
    model.map_g_vec = g
    with pytest.raises(ValueError, match="observable failed"):
        mc_sample(model, 4, 350, 1)
    assert multiprocessing.active_children() == []


def test_mc_dead_worker_raises_broken_pool(monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method")
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setattr(oracle, "_MC_CHUNK", 100)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def g(x):
        if os.getpid() != parent:
            os._exit(1)
        raise AssertionError("chunk ran in the calling process")

    model = ulam_model("doubling", g=lambda x: np.cos(2.0 * np.pi * x), cells=16)
    model.map_g_vec = g
    with pytest.raises(BrokenProcessPool):
        mc_sample(model, 4, 350, 1)
    assert multiprocessing.active_children() == []


def test_enum_estimate_refuses_large_chain_without_overflow():
    # an Ulam chain has about 2 * cells distinct rewards, so (N + 1)**q
    # would not fit in an int64 stride
    with pytest.raises(TableTooLarge):
        dp_pmf(bundled_model("doubling_ulam"), 4)


def _refuse_toarray(monkeypatch):
    # the model has no d x d accessor; SparseMatrix.toarray is the one way
    # the library forms a d x d array from a chain held on its pattern
    def refuse(self):
        raise AssertionError("the chain was densified")

    monkeypatch.setattr(SparseMatrix, "toarray", refuse)


def test_dp_reads_an_ulam_chain_on_its_nonzeros(monkeypatch):
    _refuse_toarray(monkeypatch)
    with pytest.raises(TableTooLarge):
        dp_pmf(bundled_model("doubling_ulam"), 4)
    # an integer-valued g makes the chain lattice: the DP runs on the
    # pattern and gives the pmf of the same chain given as d x d arrays
    g = lambda x: np.floor(4.0 * np.asarray(x))
    sparse = ulam_model("doubling", g=g, cells=32)
    assert sparse.lattice_span == 1.0
    monkeypatch.undo()
    dense = markov_model(*dense_chain(sparse), sparse.mu0)
    for N in (1, 5, 12):
        got, want = dp_pmf(sparse, N), dp_pmf(dense, N)
        assert np.array_equal(got.support, want.support)
        assert np.array_equal(got.pmf, want.pmf)


def test_no_expansion_dp_refusal_or_cache_path_densifies_an_ulam_chain(monkeypatch):
    # toarray raises: every step below reads model.entries()
    model = bundled_model("doubling_ulam")
    _refuse_toarray(monkeypatch)
    for r in (1, 2):
        assert abs(expansion_for_model(model, r).params.sigma2 - 0.5) <= 1e-6
    cache = {}
    with pytest.raises(TableTooLarge):
        exact_distribution(model, 4, "dp", cache=cache)
    first = exact_distribution(model, 8, "mc", seed=3, trials=200, cache=cache)
    assert exact_distribution(model, 8, "mc", seed=3, trials=200, cache=cache) is first
    assert len(cache) == 1


def test_model_key_reads_the_chain_not_its_layout():
    sparse = ulam_model("doubling", g=lambda x: np.cos(2.0 * np.pi * x), cells=64)
    dense = markov_model(*dense_chain(sparse), sparse.mu0)
    assert _model_key(sparse) == _model_key(dense)
    other = ulam_model("doubling", g=lambda x: np.sin(2.0 * np.pi * x), cells=64)
    assert _model_key(other) != _model_key(sparse)
    assert _model_key(bundled_model("two_state")) != _model_key(
        markov_model([[0.7, 0.3], [0.4, 0.6]], [[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0]))


def test_kolmogorov_distance_hand_case():
    d = ExactDistribution([0.0, 1.0], [0.5, 0.5], 1)
    flat = lambda z: 0.25
    probes = np.array([-0.5, 0.0, 0.5, 1.0, 1.5])
    # at z = 1 the step function jumps from 0.5 to 1.0 around 0.25
    assert abs(kolmogorov_distance(d, flat, probes) - 0.75) <= 1e-15


def test_kolmogorov_distance_continuous_comparator():
    # atoms at 0 and 2 against the continuous ramp F(z) = z/2 on [0, 2]:
    # just left of the second atom the step holds 0.4 while the ramp is
    # already at 1, so the sup is 0.6 and needs the left limit to see it
    d = ExactDistribution([0.0, 2.0], [0.4, 0.6], 1)
    ramp = lambda z: np.clip(z / 2.0, 0.0, 1.0)
    probes = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    assert abs(kolmogorov_distance(d, ramp, probes) - 0.6) <= 1e-15
    # without the atom probe the distance would be underestimated
    assert kolmogorov_distance(d, ramp, np.array([1.0])) <= 0.5


def _kolmogorov_distance_loop(dist, cdf, probes):
    # the scalar loop the array version replaced, kept as the reference
    worst = 0.0
    for z in np.asarray(probes, dtype=float):
        f = cdf(z)
        worst = max(worst, abs(dist.cdf(z) - f), abs(dist.cdf_left(z) - f))
    return worst


def test_kolmogorov_distance_matches_scalar_loop():
    # two_state at N = 1024 with the probe grid of the classical ladder,
    # against the normal CDF and the order-1 expansion as plain callables
    model = bundled_model("two_state")
    N = 1024
    dist = dp_pmf(model, N)
    A = drift(model)
    std = ExactDistribution((dist.support - N * A) / math.sqrt(N), dist.pmf, N)
    sigma = math.sqrt(102.0 / 175.0)
    probes = np.union1d(std.support, np.linspace(-12.0 * sigma, 12.0 * sigma, 2001))
    exp_set = expansion_for_model(model, 1)
    for cdf in (lambda z: normal_cdf(z, sigma), lambda z: edgeworth_cdf(exp_set, N, z, exp_set.r)):
        want = _kolmogorov_distance_loop(std, cdf, probes)
        assert want > 0.0
        assert kolmogorov_distance(std, cdf, probes) == want


def test_erfc_against_mpmath():
    mpmath.mp.dps = 30
    xs = np.concatenate(
        [
            np.linspace(-26.4, 26.4, 529),
            np.linspace(-0.46875, 0.46875, 101),
            np.linspace(3.9, 4.1, 41),
        ]
    )
    want = []
    for x in xs:
        tc = float(mpmath.erfc(mpmath.mpf(float(x))))
        assert abs(erfc(float(x)) - tc) <= 1e-15 * max(1e-300, abs(tc))
        want.append(tc)
    # the whole array at once, at the same relative bound
    tc = np.array(want)
    assert np.all(np.abs(erfc(xs) - tc) <= 1e-15 * np.maximum(1e-300, np.abs(tc)))


def test_erfc_underflow_cutoff():
    assert erfc(27.0) == 0.0
    assert erfc(-27.0) == 2.0


def test_normal_cdf():
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(1.0) - 0.8413447460685429) <= 1e-15
    sigma = 0.76
    assert normal_cdf(-12 * sigma, sigma) <= 1e-12
    assert normal_cdf(12 * sigma, sigma) >= 1.0 - 1e-12
