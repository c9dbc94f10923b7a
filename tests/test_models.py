"""Model constructors: validation, lattice detection, discretization."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from edgeworth.errors import (
    InconsistentDimensions,
    InsufficientMoments,
    NonStochasticModel,
    SlopeBelowOne,
    TooManyValues,
    ValidationError,
)
from edgeworth.models import (
    BUNDLED_MODELS,
    MAX_ULAM_CELLS,
    DiophantineScan,
    MarkovModel,
    bundled_model,
    diophantine_scan,
    iid_model,
    markov_model,
    pmf_moments,
    ulam_model,
)
from edgeworth.expansion import expansion_for_model
from edgeworth.spectral import SparseMatrix, perron_base

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_lattice_span_integers():
    m = bundled_model("two_state")
    assert m.lattice_span == 1.0


def test_lattice_span_halves():
    m = markov_model(
        [[0.6, 0.4], [0.3, 0.7]], [[0.5, 1.0], [1.5, 0.0]], [1.0, 0.0]
    )
    assert m.lattice_span == 0.5


def test_lattice_span_thirds_with_offset():
    m = markov_model(
        [[0.6, 0.4], [0.3, 0.7]], [[1.0 / 3.0, 1.0], [2.0 / 3.0, 2.0]], [0.5, 0.5]
    )
    assert m.lattice_span is not None
    assert abs(m.lattice_span - 1.0 / 3.0) <= 1e-12


def test_golden_ratio_is_not_lattice():
    m = bundled_model("diophantine_two_state")
    assert m.lattice_span is None


def test_irrational_reward_keeps_its_exact_span():
    # a fraction with denominator <= 10**6 would round phi by 6.5e-13
    m = markov_model([[0.7, 0.3], [0.4, 0.6]], [[0.0, GOLDEN], [0.0, 0.0]], [1.0, 0.0])
    assert m.lattice_span == GOLDEN
    m = markov_model([[0.7, 0.3], [0.4, 0.6]], [[0.0, math.pi], [2.0 * math.pi, 0.0]], [1.0, 0.0])
    assert m.lattice_span == math.pi


def test_fibonacci_ratio_is_lattice():
    # 34/21 is close to the golden ratio but still rational
    m = markov_model(
        [[0.7, 0.3], [0.4, 0.6]], [[1.0, 0.0], [34.0 / 21.0, 0.0]], [1.0, 0.0]
    )
    assert m.lattice_span is not None
    assert abs(m.lattice_span - 1.0 / 21.0) <= 1e-12


def test_markov_model_validation():
    with pytest.raises(InconsistentDimensions):
        markov_model([[1.0]], [[0.0, 1.0]], [1.0])
    with pytest.raises(InconsistentDimensions):
        markov_model([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]], [1.0])
    with pytest.raises(NonStochasticModel):
        markov_model([[0.5, 0.4], [0.5, 0.5]], [[1, 0], [0, 1]], [1, 0])
    with pytest.raises(NonStochasticModel):
        markov_model([[0.5, 0.5], [0.5, 0.5]], [[1, 0], [0, 1]], [0.5, 0.6])


_INVALID_CHAINS = [
    (([[1.0]], [[0.0, 1.0]], [1.0]), InconsistentDimensions, "observable shape"),
    (([[1.0, 0.0]], [[0.0, 1.0]], [1.0]), InconsistentDimensions, "must be square"),
    (([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]], [1.0]),
     InconsistentDimensions, "initial distribution length"),
    (([[0.5, 0.5], [0.5, 0.5]], [[1.0, math.nan], [0.0, 1.0]], [1.0, 0.0]),
     ValidationError, "observable holds NaN"),
    (([[1.5, -0.5], [0.5, 0.5]], [[1, 0], [0, 1]], [1, 0]), NonStochasticModel, "negative"),
    (([[0.5, 0.4], [0.5, 0.5]], [[1, 0], [0, 1]], [1, 0]), NonStochasticModel, "rows"),
    (([[0.5, 0.5], [0.5, 0.5]], [[1, 0], [0, 1]], [0.5, 0.6]),
     NonStochasticModel, "initial distribution does not sum"),
]


@pytest.mark.parametrize("args,error,message", _INVALID_CHAINS)
def test_markov_model_constructor_checks_the_chain(args, error, message):
    # markov_model is the constructor itself, not a second path
    assert markov_model is MarkovModel
    with pytest.raises(error, match=message):
        MarkovModel(*args)


def test_rewards_on_impossible_transitions_are_dropped():
    # S_N is integer-valued: the reward 0.5 sits on a transition of
    # probability 0
    h = np.array([[1.0, 0.0], [0.0, 0.5]])
    m = markov_model([[0.5, 0.5], [1.0, 0.0]], h, [1.0, 0.0])
    assert m.lattice_span == 1.0
    assert m.observable.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert h[1, 1] == 0.5  # the caller's array is not modified
    # an irrational reward there does not make the chain non-lattice
    h[1, 1] = math.pi
    assert markov_model([[0.5, 0.5], [1.0, 0.0]], h, [1.0, 0.0]).lattice_span == 1.0
    # nor does a value of probability 0 in an i.i.d. pmf
    assert iid_model(pmf=[(0.0, 0.5), (1.0, 0.5), (0.3, 0.0)]).lattice_span == 1.0


def test_iid_pmf_embedding_matches_moment_family():
    # pmf route and moment route must give identical entry jets
    pmf = [(-1.0, 0.25), (0.0, 2.0 / 3.0), (3.0, 1.0 / 12.0)]
    chain = iid_model(pmf=pmf)
    jetm = iid_model(moments=pmf_moments(pmf, 8))
    fam_c = chain.operator_family(6)
    fam_m = jetm.operator_family(6)
    # sum over the first row of the embedding equals the scalar family
    row_sum = fam_c.coeffs[:, fam_c.rows == 0].sum(axis=1)
    assert np.abs(row_sum - fam_m.coeffs[:, 0]).max() <= 1e-12


def test_iid_validation():
    with pytest.raises(ValidationError):
        iid_model()
    with pytest.raises(ValidationError):
        iid_model(pmf=[(0.0, 0.6), (1.0, 0.6)])
    with pytest.raises(InsufficientMoments):
        iid_model(moments=[0.0])
    # an impossible moment sequence fails the Hankel test
    with pytest.raises(ValidationError):
        iid_model(moments=[0.0, 1.0, 0.0, 0.5])


def test_pmf_moments_exact():
    assert pmf_moments([(0.0, 0.5), (1.0, 0.5)], 3) == [0.5, 0.5, 0.5]


def test_ulam_doubling_rows_stochastic():
    m = bundled_model("doubling_ulam")
    assert m.dim == 1024
    assert np.abs(m.transition.sum(axis=1) - 1.0).max() <= 1e-12
    assert m.lattice_span is None
    # Lebesgue measure is invariant for the doubling map
    base = perron_base(m.transition)
    assert np.abs(base.left - 1.0 / 1024).max() <= 1e-9


def test_ulam_small_cell_count_variance():
    # doubling map with g = cos(2 pi x) has asymptotic variance 1/2
    from edgeworth.expansion import expansion_for_model

    m = ulam_model(map_kind="doubling", g=lambda x: np.cos(2 * np.pi * x), cells=256)
    exp_set = expansion_for_model(m, 1)
    assert abs(exp_set.params.A) <= 1e-10
    assert abs(exp_set.params.sigma2 - 0.5) <= 1e-6


def test_ulam_rejects_slope_below_one():
    # a single branch over [0, 1] is the identity map, slope exactly 1
    with pytest.raises(SlopeBelowOne):
        ulam_model(
            map_kind="piecewise-linear",
            g=lambda x: x,
            cells=16,
            endpoints=[0.0, 1.0],
        )


def test_ulam_cell_cap_refuses_before_allocating():
    # 10**9 cells would need 8 EB per matrix; the cap refuses at once
    with pytest.raises(ValidationError, match="at most"):
        ulam_model(g=np.cos, cells=10**9)
    with pytest.raises(ValidationError):
        ulam_model(g=np.cos, cells=MAX_ULAM_CELLS + 1)


def _ulam_reference(endpoints, g, n):
    # cell-by-cell loop the array build must reproduce bit for bit
    endpoints = [float(e) for e in endpoints]
    widths = np.diff(endpoints)
    edges = np.arange(n + 1) / n
    P = np.zeros((n, n))
    h = np.zeros((n, n))
    wsum = np.zeros((n, n))
    for b in range(len(widths)):
        lo_b, w_b = endpoints[b], widths[b]
        for k in range(n):
            plo = lo_b + edges[k] * w_b
            phi = lo_b + edges[k + 1] * w_b
            j0 = int(np.floor(plo * n))
            j1 = min(int(np.ceil(phi * n)), n)
            for j in range(j0, j1):
                lo = max(plo, edges[j])
                hi = min(phi, edges[j + 1])
                if hi <= lo:
                    continue
                mass = (hi - lo) * n
                P[j, k] += mass
                h[j, k] += mass * g(0.5 * (lo + hi))
                wsum[j, k] += mass
    nz = wsum > 0
    h[nz] /= wsum[nz]
    P /= P.sum(axis=1, keepdims=True)
    return markov_model(P, h, np.full(n, 1.0 / n))


_MAPS = [
    ("doubling", [0.0, 0.5, 1.0]),
    ("piecewise-linear", [0.0, 0.3, 1.0]),
    ("piecewise-linear", [0.0, 0.2, 0.45, 0.7, 1.0]),
    ("piecewise-linear", [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]),
]

_OBSERVABLES = [
    lambda x: np.cos(2.0 * np.pi * x),
    lambda x: np.asarray(x, dtype=float),
    lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), [0.5, -2.0, 3.0]),
]


@pytest.mark.parametrize("map_kind, endpoints", _MAPS)
@pytest.mark.parametrize("cells", [16, 17, 64, 100, 257])
def test_ulam_build_matches_cell_loop_exactly(map_kind, endpoints, cells):
    for g in _OBSERVABLES:
        ref = _ulam_reference(endpoints, g, cells)
        m = ulam_model(map_kind=map_kind, g=g, cells=cells, endpoints=endpoints)
        assert np.array_equal(m.transition, ref.transition)
        assert np.array_equal(m.observable, ref.observable)
        assert np.array_equal(m.mu0, ref.mu0)
        assert m.lattice_span == ref.lattice_span


def _ulam_entries_reference(endpoints, g, n):
    # per-cell intersections |cell_j intersect f_b^{-1}(cell_k)| in a dict
    # keyed by (j, k): nothing of size n x n, so it reaches 4096 cells
    widths = np.diff(endpoints)
    edges = np.arange(n + 1) / n
    mass, gmass = {}, {}
    for lo_b, w_b in zip(endpoints, widths):
        for k in range(n):
            plo = lo_b + edges[k] * w_b
            phi = lo_b + edges[k + 1] * w_b
            for j in range(int(np.floor(plo * n)), min(int(np.ceil(phi * n)), n)):
                lo, hi = max(plo, edges[j]), min(phi, edges[j + 1])
                if hi > lo:
                    m = (hi - lo) * n
                    mass[j, k] = mass.get((j, k), 0.0) + m
                    gmass[j, k] = gmass.get((j, k), 0.0) + m * float(g(0.5 * (lo + hi)))
    keys = sorted(mass)
    row_sum = {}
    for j, k in keys:  # in column order
        row_sum[j] = row_sum.get(j, 0.0) + mass[j, k]
    rows = np.array([j for j, _ in keys])
    cols = np.array([k for _, k in keys])
    P = np.array([mass[key] / row_sum[key[0]] for key in keys])
    h = np.array([gmass[key] / mass[key] for key in keys])
    return rows, cols, P, h


_PW4 = [0.0, 0.2, 0.45, 0.7, 1.0]


@pytest.mark.parametrize("map_kind, endpoints, cells", [
    ("doubling", [0.0, 0.5, 1.0], 16),
    ("doubling", [0.0, 0.5, 1.0], 64),
    ("doubling", [0.0, 0.5, 1.0], 1024),
    ("doubling", [0.0, 0.5, 1.0], 2048),
    ("doubling", [0.0, 0.5, 1.0], 4096),
    ("piecewise-linear", _PW4, 16),
    ("piecewise-linear", _PW4, 64),
])
def test_ulam_chain_is_held_on_per_cell_intersections(map_kind, endpoints, cells):
    # the pattern lists exactly the cells the map connects, row-major, with
    # the values of the per-cell reference bit for bit
    g = lambda x: np.cos(2.0 * np.pi * x)
    rows, cols, P, h = _ulam_entries_reference(endpoints, g, cells)
    m = ulam_model(map_kind=map_kind, g=g, cells=cells, endpoints=endpoints)
    for got, want in zip(m.entries(), (rows, cols, P, h)):
        assert np.array_equal(got, want)
    if cells <= 64:
        dense_P, dense_h = np.zeros((cells, cells)), np.zeros((cells, cells))
        dense_P[rows, cols], dense_h[rows, cols] = P, h
        assert np.array_equal(m.transition, dense_P)
        assert np.array_equal(m.observable, dense_h)


@pytest.mark.parametrize("n", [16, 65, 130, 300])
def test_row_sums_equal_dense_sums_bit_for_bit(n):
    # rows of 1 to 9 entries, so the rows summed densely fill whole and
    # partial blocks of 64
    from edgeworth.models import _row_sums

    rng = np.random.default_rng(n)
    P = np.zeros((n, n))
    for j in range(n):
        P[j, rng.choice(n, size=rng.integers(1, 10), replace=False)] = rng.random()
        P[j] *= rng.random(n) * 10.0 ** rng.integers(-3, 4)
    rows, cols = np.nonzero(P)
    assert np.array_equal(_row_sums(rows, cols, P[rows, cols], n), P.sum(axis=1))


def test_ulam_expansion_at_the_cell_cap_allocates_no_dense_matrix():
    # the dense build peaked at 418 MiB here: three 128 MiB d x d arrays
    tracemalloc.start()
    try:
        model = ulam_model("doubling", g=lambda x: np.cos(2.0 * np.pi * x), cells=4096)
        exp_set = expansion_for_model(model, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert abs(exp_set.params.sigma2 - 0.5) <= 1e-6


def _sparse_chain(P, h, rows=None, cols=None):
    P, h = np.asarray(P, dtype=float), np.asarray(h, dtype=float)
    if rows is None:
        rows, cols = np.nonzero(P)
    d = P.shape[0]
    return SparseMatrix(P[rows, cols], rows, cols, d), SparseMatrix(h[rows, cols], rows, cols, d)


def test_markov_model_on_its_nonzeros_matches_the_dense_model():
    P = [[0.5, 0.5, 0.0], [0.0, 0.25, 0.75], [1.0, 0.0, 0.0]]
    h = [[1.0, 0.5, 7.0], [0.0, 2.0, 1.5], [-1.0, 0.0, 0.0]]
    dense = markov_model(P, h, [1.0, 0.0, 0.0])
    sparse = markov_model(*_sparse_chain(P, h), [1.0, 0.0, 0.0])
    assert sparse.dim == 3 and sparse.lattice_span == dense.lattice_span == 0.5
    assert np.array_equal(sparse.transition, dense.transition)
    assert np.array_equal(sparse.observable, dense.observable)
    for got, want in zip(sparse.entries(), dense.entries()):
        assert np.array_equal(got, want)
    # a stored entry of probability 0 leaves the pattern, with its reward
    rows, cols = np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 0])
    held = markov_model(*_sparse_chain(P, h, rows, cols), [1.0, 0.0, 0.0])
    assert np.array_equal(held.entries()[1], dense.transition.nonzero()[1])
    assert held.lattice_span == 0.5


_INVALID_SPARSE_CHAINS = [
    (lambda P, h: (P, np.asarray(h.toarray())), InconsistentDimensions, "pattern"),
    (lambda P, h: (P, SparseMatrix(h.values, h.rows[::-1].copy(), h.cols, 2)),
     InconsistentDimensions, "pattern"),
    (lambda P, h: (SparseMatrix(P.values, P.rows[::-1].copy(), P.cols[::-1].copy(), 2),
                   SparseMatrix(h.values, h.rows[::-1].copy(), h.cols[::-1].copy(), 2)),
     InconsistentDimensions, "row-major"),
    (lambda P, h: (SparseMatrix(P.values, P.rows, P.cols + 1, 2),
                   SparseMatrix(h.values, h.rows, h.cols + 1, 2)),
     InconsistentDimensions, "row-major"),
    (lambda P, h: (SparseMatrix(P.values * [1, 1, 1.5], P.rows, P.cols, 2), h),
     NonStochasticModel, "rows"),
    (lambda P, h: (SparseMatrix(P.values * [1, 1, -1], P.rows, P.cols, 2), h),
     NonStochasticModel, "negative"),
    (lambda P, h: (P, SparseMatrix(h.values * [1, math.nan, 1], h.rows, h.cols, 2)),
     ValidationError, "observable holds NaN"),
]


@pytest.mark.parametrize("mangle,error,message", _INVALID_SPARSE_CHAINS)
def test_markov_model_checks_a_chain_on_its_nonzeros(mangle, error, message):
    P, h = _sparse_chain([[0.5, 0.5], [1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(error, match=message):
        MarkovModel(*mangle(P, h), [1.0, 0.0])


def _scan_reference(h, s_grid):
    # triple loop over (r, j, k) and one pass per frequency
    h = np.asarray(h, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    d = h.shape[0]
    diffs = []
    for r in range(d):
        for j in range(d):
            for k in range(d):
                diffs.append((h[r, j] - h[r, 0]) + (h[j, k] - h[0, k]))
    diffs = np.unique(np.asarray(diffs))
    dvals = np.empty(s_grid.size)
    for i, s in enumerate(s_grid):
        x = diffs * s
        dvals[i] = np.max(np.abs(x - np.rint(x)))
    if np.max(dvals) <= 1e-12:
        return DiophantineScan(s_grid, dvals, 0.0, 0.0, 0.0)
    order = np.argsort(np.abs(s_grid), kind="stable")
    rec_s, rec_d = [], []
    best = np.inf
    for i in order:
        if dvals[i] < best and dvals[i] > 0:
            best = dvals[i]
            rec_s.append(abs(s_grid[i]))
            rec_d.append(dvals[i])
    if len(rec_s) < 2:
        return DiophantineScan(s_grid, dvals, float(min(rec_d, default=0.0)), 0.0, 0.0)
    X = np.log(np.asarray(rec_s))
    Y = np.log(np.asarray(rec_d))
    slope, intercept = np.polyfit(X, Y, 1)
    resid = float(np.sqrt(np.mean((slope * X + intercept - Y) ** 2)))
    return DiophantineScan(s_grid, dvals, float(np.exp(intercept)), float(-slope), resid)


def _scan_cases():
    rng = np.random.default_rng(20261018)
    grid = np.linspace(0.5, 20.0, 40)
    signed = np.concatenate([-grid[::3], grid])
    cases = [
        (bundled_model(name).observable, grid)
        for name in ("two_state", "three_state_lattice", "diophantine_two_state", "bernoulli")
    ]
    for cells in (16, 64):
        for g in _OBSERVABLES:
            cases.append((ulam_model(g=g, cells=cells).observable, grid))
    pw = ulam_model("piecewise-linear", _OBSERVABLES[0], 17, [0.0, 0.2, 0.45, 0.7, 1.0])
    cases.append((pw.observable, signed))
    for d in (2, 5, 9):
        cases.append((rng.normal(size=(d, d)), signed))
    # integer rewards with a few repeats, so the distinct-value sets are small
    cases.append((rng.integers(-3, 4, size=(6, 6)).astype(float), signed))
    cases.append((np.full((3, 3), 1.3), signed))
    return cases


_SCAN_CASES = _scan_cases()


@pytest.mark.parametrize("case", range(len(_SCAN_CASES)))
def test_diophantine_scan_matches_triple_loop_exactly(case):
    h, grid = _SCAN_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = _scan_reference(h, grid)
        got = diophantine_scan(h, grid)
    assert np.array_equal(got.s, ref.s)
    assert np.array_equal(got.d, ref.d)
    assert got.K == ref.K and got.beta == ref.beta and got.residual == ref.residual


def test_diophantine_scan_completes_on_bundled_ulam():
    m = bundled_model("doubling_ulam")
    grid = np.linspace(0.5, 20.0, 40)
    scan = diophantine_scan(m.observable, grid)
    assert scan.d.shape == grid.shape
    assert np.all((scan.d >= 0.0) & (scan.d <= 0.5))


def test_diophantine_scan_size_guard():
    # a dense generic 250-state observable has 250**3 > 10**7 differences
    h = np.random.default_rng(5).normal(size=(250, 250))
    with pytest.raises(TooManyValues):
        diophantine_scan(h, [1.0, 2.0])


def test_diophantine_scan_golden():
    h = np.array([[1.0, 0.0], [GOLDEN, 0.0]])
    grid = np.arange(0.5, 60.0, 0.25)
    scan = diophantine_scan(h, grid)
    # the golden ratio is badly approximable: s d(s) stays above a
    # constant, and tends to 1/sqrt(5) at the Fibonacci numbers s = 8, 21, 55
    assert (scan.d * grid).min() > 0.2
    assert scan.K > 0 and scan.beta >= 0
    # golden-ratio rewards admit a near-optimal Diophantine exponent
    assert scan.beta < 2.0


def test_diophantine_scan_integer_sawtooth():
    # entries in {0, 1}: the only nonzero reward difference is -1, so
    # d(s) is the triangle wave ||s||, the distance to the nearest integer
    h = np.array([[1.0, 0.0], [1.0, 0.0]])
    scan = diophantine_scan(h, [0.25, 0.5, 0.75])
    assert abs(scan.d[0] - 0.25) <= 1e-12
    assert abs(scan.d[1] - 0.5) <= 1e-12
    assert abs(scan.d[2] - 0.25) <= 1e-12


def test_diophantine_scan_ignores_rounding_residues():
    # the 64-cell doubling observable holds differences like -3.3e-16;
    # as distances to the nearest integer they read about 0, not about 1
    h = ulam_model(g=lambda x: np.cos(2 * np.pi * x), cells=64).observable
    scan = diophantine_scan(h, np.linspace(0.5, 20.0, 40))
    assert np.all((scan.d >= 0.0) & (scan.d <= 0.5))


def test_diophantine_scan_resonant_constant_observable():
    # all rewards equal: every difference vanishes, d(s) = 0 identically
    h = np.full((2, 2), 1.3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan = diophantine_scan(h, [math.pi, 2 * math.pi])
        assert scan.K == 0.0 and scan.beta == 0.0
        assert np.all(scan.d == 0.0)
    assert any("resonant" in str(w.message) for w in caught)


def test_bundled_model_names():
    assert set(BUNDLED_MODELS) == {
        "two_state",
        "three_state_lattice",
        "diophantine_two_state",
        "bernoulli",
        "iid_moments",
        "doubling_ulam",
    }
    with pytest.raises(ValidationError):
        bundled_model("unknown")
