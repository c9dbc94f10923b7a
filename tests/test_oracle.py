"""Ground-truth oracles: the exact dynamic program, moments, Monte Carlo."""

import itertools
import math
import multiprocessing
import os

import mpmath
import numpy as np
import pytest

from edgeworth.errors import (
    InsufficientMoments,
    TableTooLarge,
    ValidationError,
)
from edgeworth import oracle
from edgeworth.evaluate import _model_key, exact_distribution
from edgeworth.expansion import expansion_for_model
from edgeworth.models import (
    MarkovModel,
    bundled_model,
    iid_model,
    markov_model,
    pmf_moments,
    ulam_model,
)
from edgeworth.oracle import (
    ExactDistribution,
    FunctionCdf,
    dp_pmf,
    drift,
    erf,
    erfc,
    exact_moments,
    kolmogorov_distance,
    mc_sample,
    normal_cdf,
    normal_density,
)


def test_exact_distribution_validation():
    with pytest.raises(ValidationError):
        ExactDistribution("lattice", [0.0, 0.0], [0.5, 0.5], 1)
    with pytest.raises(ValidationError):
        ExactDistribution("lattice", [0.0, 1.0], [0.5, 0.6], 1)
    with pytest.raises(ValidationError):
        ExactDistribution("lattice", [[0.0, 1.0]], [[0.5, 0.5]], 1)


def test_exact_distribution_queries():
    d = ExactDistribution("lattice", [0.0, 1.0, 3.0], [0.25, 0.5, 0.25], 4)
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
    P, h = m.transition, m.observable
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
        assert got.kind == "lattice"
        assert got.support.size == support.size
        assert np.abs(got.support - support).max() <= 1e-13
        assert np.abs(got.pmf - pmf).max() <= 1e-15


def test_dp_zero_rewards_is_a_point_mass():
    # no nonzero reward: no count coordinate, one cell
    m = markov_model([[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0])
    assert m.lattice_span is None
    dist = dp_pmf(m, 5)
    assert dist.support.tolist() == [0.0] and dist.pmf.tolist() == [1.0]


def _enum_distribution_merged(model, N, merge_tol=1e-9):
    # value enumeration that pools sums within merge_tol at their
    # probability-weighted value, as the reference on non-lattice chains
    P, h = model.transition, model.observable
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
    P, h, span = model.transition, model.observable, model.lattice_span
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
    P, span = model.transition, model.lattice_span
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
    return markov_model(m.transition, -m.observable, m.mu0)


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


def test_dp_meta_without_subnormal_cells():
    got = dp_pmf(bundled_model("two_state"), 1024)
    assert got.pmf.min() >= np.finfo(float).tiny
    assert got.meta == {"table_width": 1025, "live_width": 1025, "flushed_mass": 0.0}


def test_dp_meta_reports_the_flushed_band():
    got = dp_pmf(bundled_model("two_state"), 4096)
    assert got.meta["table_width"] == 4097
    assert got.meta["live_width"] == got.support[-1] - got.support[0] + 1 < 4097
    assert 0.0 < got.meta["flushed_mass"] < 1e-300


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
        counts |= set((m.transition != 0).sum(axis=0).tolist())
    assert {0, 1, 2} <= counts
    assert max(counts) >= 4
    assert any((m.observable < 0).any() and (m.observable > 0).any() for m in chains)


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


def test_dp_full_kahan_step_only_for_three_or_more_sources(monkeypatch):
    calls = []
    real = oracle._kahan_add
    monkeypatch.setattr(oracle, "_kahan_add", lambda *a: calls.append(1) or real(*a))
    for name in ("two_state", "bernoulli", "diophantine_two_state"):
        dp_pmf(bundled_model(name), 50)
    assert not calls
    dp_pmf(bundled_model("three_state_lattice"), 50)
    assert len(calls) == 50 * 3


def test_enum_matches_dp_on_lattice():
    # "enum" is an alias of the one exact DP
    for name in ("two_state", "three_state_lattice", "bernoulli"):
        m = bundled_model(name)
        for N in (1, 12, 64):
            de = exact_distribution(m, N, "enum")
            dd = exact_distribution(m, N, "dp")
            assert np.array_equal(de.support, dd.support)
            assert np.array_equal(de.pmf, dd.pmf)


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
        exact_distribution(bundled_model("diophantine_two_state"), 3200, "enum")


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
    # both are step CDFs on the same integer lattice: compare at atoms
    dd = dp_pmf(m, N)
    worst = max(abs(a.cdf(k) - dd.cdf(k)) for k in dd.support)
    assert worst <= 0.012


def test_mc_dkw_band_at_a_million_trials():
    # Massart's 99 % band for the KS distance of 10**6 trials
    assert abs(mc_sample(bundled_model("bernoulli"), 1, 10 ** 6, 5).meta["dkw99"] - 1.6276e-3) < 5e-8


def test_mc_chunking_boundary():
    # trials chosen to straddle a chunk boundary
    m = bundled_model("two_state")
    dist = mc_sample(m, 4, (1 << 17) + 17, 3)
    assert abs(math.fsum(dist.pmf.tolist()) - 1.0) <= 1e-12


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
        assert np.array_equal(np.array(seen["block"]), np.array(seen["step"]))
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


@pytest.mark.parametrize("N", [1, 17, 77])
def test_doubling_tiles_match_step_major_sweep(N):
    # 2.2 tiles of trials, and blocks of the odd N that end mid-draw
    trials = 2 * oracle._DOUBLING_TILE + 1001
    g = lambda x: np.cos(2.0 * np.pi * x)
    got = oracle._simulate_doubling(g, N, trials, np.random.default_rng([9, N]))
    want = _simulate_doubling_step_major(g, N, trials, np.random.default_rng([9, N]))
    assert np.array_equal(got, want)


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
    assert np.array_equal(oracle._count_below(cum_rows, states, u),
                          _next_state_by_comparison(cum_rows, states, u))


def _simulate_chain_by_comparison(model, N, trials, rng):
    P, h = model.transition, model.observable
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


@pytest.mark.parametrize("d", [2, 3, 7, 50, 200])
def test_chain_bisection_matches_comparison_count(d):
    rng = np.random.default_rng(d)
    P = rng.random((d, d)) * (rng.random((d, d)) < 0.4)  # many zero entries
    P[:, d // 2] += 0.01  # and every row some mass
    P[0] = 0.0
    P[0, -1] = 1.0  # a row whose only entry is the last one
    P /= P.sum(axis=1, keepdims=True)
    h = rng.normal(size=(d, d))
    model = markov_model(P, h, np.full(d, 1.0 / d))
    got = oracle._simulate_chain(model, 40, 3001, np.random.default_rng(7))
    want = _simulate_chain_by_comparison(model, 40, 3001, np.random.default_rng(7))
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


def _mc_sample_serial(model, N, trials, seed, chunk):
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
    values, counts = np.unique(np.concatenate(parts), return_counts=True)
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


def _refuse_dense_properties(monkeypatch):
    def refuse(self):
        raise AssertionError("the chain was densified")

    for name in ("transition", "observable"):
        monkeypatch.setattr(MarkovModel, name, property(refuse))


def test_dp_reads_an_ulam_chain_on_its_nonzeros(monkeypatch):
    _refuse_dense_properties(monkeypatch)
    with pytest.raises(TableTooLarge):
        dp_pmf(bundled_model("doubling_ulam"), 4)
    # an integer-valued g makes the chain lattice: the DP runs on the
    # pattern and gives the pmf of the same chain given as d x d arrays
    g = lambda x: np.floor(4.0 * np.asarray(x))
    sparse = ulam_model("doubling", g=g, cells=32)
    assert sparse.lattice_span == 1.0
    monkeypatch.undo()
    dense = markov_model(sparse.transition, sparse.observable, sparse.mu0)
    for N in (1, 5, 12):
        got, want = dp_pmf(sparse, N), dp_pmf(dense, N)
        assert np.array_equal(got.support, want.support)
        assert np.array_equal(got.pmf, want.pmf)


def test_no_expansion_dp_refusal_or_cache_path_densifies_an_ulam_chain(monkeypatch):
    # the dense properties raise: every step below reads model.entries()
    model = bundled_model("doubling_ulam")
    _refuse_dense_properties(monkeypatch)
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
    dense = markov_model(sparse.transition, sparse.observable, sparse.mu0)
    assert _model_key(sparse) == _model_key(dense)
    other = ulam_model("doubling", g=lambda x: np.sin(2.0 * np.pi * x), cells=64)
    assert _model_key(other) != _model_key(sparse)
    assert _model_key(bundled_model("two_state")) != _model_key(
        markov_model([[0.7, 0.3], [0.4, 0.6]], [[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0]))


def test_kolmogorov_distance_hand_case():
    d = ExactDistribution("lattice", [0.0, 1.0], [0.5, 0.5], 1)
    flat = FunctionCdf(lambda z: 0.25)
    probes = np.array([-0.5, 0.0, 0.5, 1.0, 1.5])
    # at z = 1 the step function jumps from 0.5 to 1.0 around 0.25
    assert abs(kolmogorov_distance(d, flat, probes) - 0.75) <= 1e-15


def test_kolmogorov_distance_continuous_comparator():
    # atoms at 0 and 2 against the continuous ramp F(z) = z/2 on [0, 2]:
    # just left of the second atom the step holds 0.4 while the ramp is
    # already at 1, so the sup is 0.6 and needs the left limit to see it
    d = ExactDistribution("lattice", [0.0, 2.0], [0.4, 0.6], 1)
    ramp = FunctionCdf(lambda z: np.clip(z / 2.0, 0.0, 1.0))
    probes = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    assert abs(kolmogorov_distance(d, ramp, probes) - 0.6) <= 1e-15
    # without the atom probe the distance would be underestimated
    assert kolmogorov_distance(d, ramp, np.array([1.0])) <= 0.5


def _kolmogorov_distance_loop(a, b, probes):
    # the scalar loop the array version replaced, kept as the reference
    worst = 0.0
    for z in np.asarray(probes, dtype=float):
        worst = max(
            worst,
            abs(a.cdf(z) - b.cdf(z)),
            abs(a.cdf_left(z) - b.cdf_left(z)),
        )
    return worst


def test_kolmogorov_distance_matches_scalar_loop():
    # two_state at N = 1024 with the probe grid of the classical ladder
    model = bundled_model("two_state")
    N = 1024
    dist = dp_pmf(model, N)
    A = drift(model)
    std = ExactDistribution(
        "lattice", (dist.support - N * A) / math.sqrt(N), dist.pmf, N
    )
    sigma = math.sqrt(102.0 / 175.0)
    probes = np.union1d(std.support, np.linspace(-12.0 * sigma, 12.0 * sigma, 2001))
    normal = FunctionCdf(lambda z: normal_cdf(z, sigma))
    want = _kolmogorov_distance_loop(std, normal, probes)
    assert want > 0.0
    assert kolmogorov_distance(std, normal, probes) == want
    # a step comparator takes its own left limits
    other = dp_pmf(model, N - 1)
    shifted = ExactDistribution(
        "lattice", (other.support - N * A) / math.sqrt(N), other.pmf, N
    )
    assert kolmogorov_distance(std, shifted, probes) == _kolmogorov_distance_loop(
        std, shifted, probes
    )


def test_erf_erfc_against_mpmath():
    mpmath.mp.dps = 30
    xs = np.concatenate(
        [
            np.linspace(-26.4, 26.4, 529),
            np.linspace(-0.46875, 0.46875, 101),
            np.linspace(3.9, 4.1, 41),
        ]
    )
    want_erf = []
    want_erfc = []
    for x in xs:
        te = float(mpmath.erf(mpmath.mpf(float(x))))
        tc = float(mpmath.erfc(mpmath.mpf(float(x))))
        assert abs(erf(float(x)) - te) <= 1e-15 * max(1e-300, abs(te))
        assert abs(erfc(float(x)) - tc) <= 1e-15 * max(1e-300, abs(tc))
        want_erf.append(te)
        want_erfc.append(tc)
    # the whole array at once, at the same relative bound
    te = np.array(want_erf)
    tc = np.array(want_erfc)
    assert np.all(np.abs(erf(xs) - te) <= 1e-15 * np.maximum(1e-300, np.abs(te)))
    assert np.all(np.abs(erfc(xs) - tc) <= 1e-15 * np.maximum(1e-300, np.abs(tc)))


def test_erfc_underflow_cutoff():
    assert erfc(27.0) == 0.0
    assert erfc(-27.0) == 2.0


def test_erf_odd_symmetry():
    for x in (0.1, 0.47, 2.3, 8.0):
        assert erf(-x) == -erf(x)


def test_normal_cdf_density():
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(1.0) - 0.8413447460685429) <= 1e-15
    sigma = 0.76
    assert normal_cdf(-12 * sigma, sigma) <= 1e-12
    assert normal_cdf(12 * sigma, sigma) >= 1.0 - 1e-12
    assert abs(normal_density(0.0, 2.0) - 1.0 / (2.0 * math.sqrt(2 * math.pi))) <= 1e-16
    assert isinstance(normal_density(0.5), float)
    z = np.array([-3.0, -0.5, 0.0, 1.25, 40.0])
    dens = normal_density(z, sigma)
    assert dens.shape == z.shape
    for zi, di in zip(z, dens):
        expect = math.exp(-0.5 * (zi / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        assert abs(di - expect) <= 1e-15 * expect


def test_to_csv_round_trip(tmp_path):
    d = ExactDistribution("lattice", [0.0, 1.0], [0.25, 0.75], 1)
    path = tmp_path / "dist.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        d.to_csv(fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "value,pmf,cdf"
    assert float(lines[1].split(",")[1]) == 0.25
