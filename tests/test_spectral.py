"""Operator families, Perron data and eigenvalue jets."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from edgeworth.errors import GapBelowTolerance, NonStochasticModel, SingularStationarySolve
from edgeworth.jets import jet_div, jet_mul
from edgeworth import spectral
from edgeworth.models import MarkovModel, bundled_model, markov_model, ulam_model
from edgeworth.spectral import (
    SparseMatrix,
    _bordered_inverse,
    _power_stationary,
    build_operator_family,
    eigen_perturbation,
    evaluate_family,
    norm_decay_scan,
    perron_base,
    power_radius,
)


def power_eigenvalue(M, iters=200, tol=1e-10):
    """Leading eigenvalue (complex) by power iteration with a Rayleigh
    quotient; requires a strictly dominant simple eigenvalue."""
    M = np.asarray(M, dtype=complex)
    x = 1.0 / np.arange(1.0, M.shape[0] + 1.0) + 0j
    x /= np.linalg.norm(x)
    lam = 0.0 + 0.0j
    for _ in range(iters):
        y = M @ x
        r = np.linalg.norm(y)
        if r < 1e-300:
            return 0.0 + 0.0j
        y /= r
        lam_new = np.vdot(y, M @ y) / np.vdot(y, y)
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
        x = y
    return lam


def char_fn(model, t, N):
    """``E exp(i t S_N) = mu0^T L_t^N 1`` by repeated row products."""
    Lt = evaluate_family(model, t)
    row = np.asarray(model.mu0, dtype=complex)
    for _ in range(N):
        row = row @ Lt
    return complex(row.sum())


def _reference_family(model, order):
    # the complex (d, d, order+1) layout with the factors i**m applied
    if not hasattr(model, "entries"):
        coeffs = np.zeros((1, 1, order + 1), dtype=complex)
        coeffs[0, 0, 0] = 1.0
        fact = 1.0
        for k in range(1, order + 1):
            fact *= k
            coeffs[0, 0, k] = model.moments[k - 1] * (1j ** k) / fact
        return coeffs
    P, h = model.transition, model.observable
    d = P.shape[0]
    coeffs = np.zeros((d, d, order + 1), dtype=complex)
    term = np.ones((d, d), dtype=complex)
    coeffs[:, :, 0] = P
    for m in range(1, order + 1):
        term = term * (1j * h) / m
        coeffs[:, :, m] = P * term
    return coeffs


def _reference_power_radius(M, dtype=complex, iters=200, tol=1e-10):
    # power iteration with a start vector of the given dtype
    M = np.asarray(M)
    x = (1.0 / np.arange(1.0, M.shape[0] + 1.0)).astype(dtype)
    x /= np.linalg.norm(x)
    ratios = []
    for _ in range(iters):
        y = M @ x
        r = np.linalg.norm(y)
        if r < 1e-300:
            return 0.0
        ratios.append(r)
        x = y / r
        if len(ratios) >= 2 and abs(ratios[-1] - ratios[-2]) <= tol * max(1.0, ratios[-1]):
            return float(ratios[-1])
    tail = ratios[len(ratios) // 2 :]
    return float(np.exp(np.mean(np.log(tail))))


def _reference_perturbation(coeffs, mu0, base):
    """(mu, z) coefficients from two complex bordered inverses and lists
    of per-component jets."""
    d = coeffs.shape[0]
    s = coeffs.shape[2] - 1
    eye = np.eye(d)

    def bordered_inverse(A, border_col, gauge_row):
        B = np.zeros((d + 1, d + 1), dtype=complex)
        B[:d, :d] = A
        B[:d, d] = -border_col
        B[d, :d] = gauge_row
        return np.linalg.inv(B)

    L0 = coeffs[:, :, 0]
    Binv = bordered_inverse(L0 - eye, base.right.astype(complex), base.left.astype(complex))
    v = np.zeros((s + 1, d), dtype=complex)
    mu = np.zeros(s + 1, dtype=complex)
    v[0] = base.right
    mu[0] = 1.0
    for m in range(1, s + 1):
        rhs = np.zeros(d, dtype=complex)
        for j in range(1, m):
            rhs += mu[j] * v[m - j]
        for j in range(1, m + 1):
            rhs -= coeffs[:, :, j] @ v[m - j]
        sol = Binv @ np.concatenate([rhs, [0.0]])
        v[m] = sol[:d]
        mu[m] = sol[d]
    BinvT = bordered_inverse(L0.T - eye, base.left.astype(complex), base.right.astype(complex))
    w = np.zeros((s + 1, d), dtype=complex)
    w[0] = base.left
    for m in range(1, s + 1):
        rhs = np.zeros(d, dtype=complex)
        for j in range(1, m):
            rhs += mu[j] * w[m - j]
        for j in range(1, m + 1):
            rhs -= coeffs[:, :, j].T @ w[m - j]
        sol = BinvT @ np.concatenate([rhs, [0.0]])
        w[m] = sol[:d]
    pairing = jet_mul(w, v).sum(axis=1)
    left = jet_div(w, pairing[:, None])
    return mu, jet_mul(left.sum(axis=1), v @ mu0)


def _random_chain(d, seed):
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.05, 1.0, size=(d, d))
    P /= P.sum(axis=1, keepdims=True)
    return markov_model(P, rng.normal(size=(d, d)), rng.dirichlet(np.ones(d)))


def _cos2pi(x):
    return np.cos(2.0 * np.pi * x)


def _comparison_models():
    out = [
        (name, bundled_model(name))
        for name in (
            "two_state",
            "three_state_lattice",
            "diophantine_two_state",
            "bernoulli",
            "iid_moments",
            "doubling_ulam",
        )
    ]
    out += [(f"random-{d}", _random_chain(d, 40 + d)) for d in (2, 5, 9)]
    for cells in (64, 256):
        out.append((f"doubling-{cells}", ulam_model(g=_cos2pi, cells=cells)))
        out.append((
            f"piecewise-{cells}",
            ulam_model("piecewise-linear", lambda x: x * x - 0.3, cells, [0.0, 0.3, 0.65, 1.0]),
        ))
    return out


_COMPARISON = _comparison_models()


def _two_state_jets(order=6):
    m = bundled_model("two_state")
    fam = m.operator_family(order)
    base = perron_base(fam.matrix(0))
    return fam, base, eigen_perturbation(fam, base)


def test_entry_jets_match_exponential():
    m = bundled_model("two_state")
    fam = m.operator_family(8)
    for t in (1e-2, -3e-2):
        direct = evaluate_family(m, t)
        from_jets = sum((1j * t) ** k * fam.matrix(k) for k in range(fam.order + 1))
        assert np.abs(direct - from_jets).max() <= 1e-13


@pytest.mark.parametrize("t", [0.0, -0.0, 0.37, -2.5, 40.0])
def test_family_evaluated_on_the_nonzeros_is_bit_identical(t):
    # signed zeros included: the exponential of the d x d matrix, formed
    # from the stored entries, against the one taken on the nonzeros
    chains = [m for name, m in _COMPARISON if hasattr(m, "entries") and "256" not in name]
    for model in chains:
        want = model.transition * np.exp(1j * t * model.observable)
        got = evaluate_family(model, t)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _dense(M):
    return M.toarray() if isinstance(M, SparseMatrix) else M


def test_family_is_real_and_contiguous():
    # every family is stored on the chain's nonzeros; the Ulam chains take
    # the sparse path, every other chain the dense one
    for name, model in _COMPARISON:
        fam = model.operator_family(4)
        assert fam.coeffs.dtype == np.float64
        assert fam.coeffs.flags.c_contiguous
        P = model.transition if hasattr(model, "entries") else np.ones((1, 1))
        ref = _reference_family(model, 4)
        assert fam.sparse == ("doubling" in name or "piecewise" in name)
        assert fam.sparse == (8 * fam.rows.size <= fam.dim ** 2)
        assert np.array_equal(fam.rows, np.nonzero(P)[0])
        assert np.array_equal(fam.cols, np.nonzero(P)[1])
        assert fam.coeffs.shape == (5, fam.rows.size)
        off = np.ones(P.shape, dtype=bool)
        off[fam.rows, fam.cols] = False
        assert not np.any(ref[off])
        ref = ref[fam.rows, fam.cols].T
        assert np.array_equal(fam.coeffs[0], P[fam.rows, fam.cols])
        assert isinstance(fam.matrix(0), SparseMatrix) == fam.sparse
        assert np.array_equal(_dense(fam.matrix(0)), P)
        for m in range(5):
            assert np.array_equal(1j ** m * fam.coeffs[m], ref[m])


@pytest.mark.parametrize("case", range(len(_COMPARISON)), ids=[n for n, _ in _COMPARISON])
def test_real_perturbation_matches_complex_reference(case):
    _, model = _COMPARISON[case]
    order = 4
    fam = model.operator_family(order)
    base = perron_base(fam.matrix(0))
    jets = eigen_perturbation(fam, base)
    # the sparse (Ulam) chains solve by Neumann series, the rest densely
    assert (jets.neumann_terms is not None) == fam.sparse
    mu_ref, z_ref = _reference_perturbation(_reference_family(model, order), fam.mu0, base)
    assert np.abs(jets.mu - mu_ref).max() <= 1e-13
    assert np.abs(jets.z - z_ref).max() <= 1e-13
    # every jet is i**m times a real one, exactly
    unit = 1j ** -np.arange(order + 1)
    assert np.all((jets.mu * unit).imag == 0.0)
    assert np.all((jets.z * unit).imag == 0.0)
    assert np.all((jets.right_jet * unit[:, None]).imag == 0.0)
    assert np.all((jets.left_jet * unit[:, None]).imag == 0.0)
    assert jets.right_jet.shape == jets.left_jet.shape == (order + 1, fam.dim)


def test_left_bordered_inverse_from_the_right_one():
    # D Binv^T D inverts the bordered matrix of the left system
    for _, model in _COMPARISON:
        fam = model.operator_family(2)
        base = perron_base(fam.matrix(0))
        d = fam.dim
        P = _dense(fam.matrix(0))
        Binv = _bordered_inverse(P, base)
        B_left = np.zeros((d + 1, d + 1))
        B_left[:d, :d] = P.T - np.eye(d)
        B_left[:d, d] = -base.left
        B_left[d, :d] = base.right
        D = np.ones(d + 1)
        D[-1] = -1.0
        left_inv = D[:, None] * Binv.T * D[None, :]
        assert np.abs(left_inv @ B_left - np.eye(d + 1)).max() <= 1e-12


def test_power_radius_keeps_real_arithmetic_for_real_matrices():
    rng = np.random.default_rng(3)
    for d in (2, 5, 9):
        M = rng.normal(size=(d, d))
        assert power_radius(M) == _reference_power_radius(M, float)
        assert abs(power_radius(M) - _reference_power_radius(M, complex)) <= 1e-12
        Mc = M + 1j * rng.normal(size=(d, d))
        assert power_radius(Mc) == _reference_power_radius(Mc, complex)


def test_non_stochastic_rows_rejected():
    with pytest.raises(NonStochasticModel):
        markov_model([[0.7, 0.2], [0.4, 0.6]], [[1, 0], [0, 0]], [1, 0])
    with pytest.raises(NonStochasticModel):
        markov_model([[1.1, -0.1], [0.4, 0.6]], [[1, 0], [0, 0]], [1, 0])


def test_operator_family_trusts_the_checked_model(monkeypatch):
    # the model was checked when built; the family does not check again
    def refuse(P):
        raise AssertionError("transition re-validated")

    monkeypatch.setattr(spectral, "_validate_stochastic", refuse)
    fam = build_operator_family(bundled_model("two_state"), 2)
    assert fam.coeffs.shape == (3, 4)


def test_family_of_an_ulam_chain_keeps_its_pattern(monkeypatch):
    # no d x d array and no search for the pattern: the family reads
    # model.entries()
    def refuse(self):
        raise AssertionError("the chain was densified")

    model = ulam_model("piecewise-linear", _cos2pi, 64, [0.0, 0.3, 0.65, 1.0])
    rows, cols, P, _ = model.entries()
    for name in ("transition", "observable"):
        monkeypatch.setattr(MarkovModel, name, property(refuse))
    fam = build_operator_family(model, 3)
    assert fam.rows is rows and fam.cols is cols
    assert np.array_equal(fam.coeffs[0], P)
    gap = perron_base(fam.matrix(0)).gap
    monkeypatch.undo()
    # the raw matrix takes the same path by the same rule
    assert perron_base(model.transition).gap == gap


@pytest.mark.parametrize("d, nnz", [(1, 1), (7, 7), (8, 8), (16, 32), (16, 33), (64, 512)])
def test_one_rule_picks_the_path_of_family_and_raw_matrix(monkeypatch, d, nnz):
    # the sparse path takes at most one nonzero entry in eight
    rng = np.random.default_rng(d + nnz)
    P = np.zeros((d, d))
    P[np.arange(d), rng.permutation(d)] = 1.0  # every row its own entry
    extra = rng.choice(np.flatnonzero(P.ravel() == 0.0), nnz - d, replace=False)
    P.ravel()[extra] = 1.0
    P /= P.sum(axis=1, keepdims=True)
    fam = markov_model(P, np.ones((d, d)), np.full(d, 1.0 / d)).operator_family(2)
    assert fam.rows.size == nnz
    assert fam.sparse == (8 * nnz <= d * d)
    assert isinstance(fam.matrix(1), SparseMatrix) == fam.sparse
    seen = []
    stationary = spectral._stationary
    monkeypatch.setattr(spectral, "_stationary", lambda M: seen.append(M) or stationary(M))
    # a permutation chain may be periodic; its path is picked before that shows
    with contextlib.suppress(GapBelowTolerance, SingularStationarySolve):
        perron_base(P)
    assert isinstance(seen[0], SparseMatrix) == fam.sparse


def test_perron_base_two_state():
    fam, base, _ = _two_state_jets()
    assert np.abs(base.right - 1.0).max() == 0.0
    # stationary vector of [[.7,.3],[.4,.6]] is (4/7, 3/7) exactly
    assert np.abs(base.left - np.array([4 / 7, 3 / 7])).max() <= 1e-12
    # deflated operator has spectral radius |second eigenvalue| = 0.3
    assert abs(base.gap - 0.7) <= 1e-9


def test_perron_base_gap_guard():
    # two nearly disconnected components leave almost no spectral gap
    eps = 1e-10
    P = np.array([[1 - eps, eps], [eps, 1 - eps]])
    with pytest.raises(GapBelowTolerance):
        perron_base(P)


def test_power_radius_matches_eigvals():
    rng = np.random.default_rng(11)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M /= np.abs(np.linalg.eigvals(M)).max() * rng.uniform(1.0, 3.0)
        true = np.abs(np.linalg.eigvals(M)).max()
        # near-tied moduli stall power iteration, accept a looser match there
        ev = np.sort(np.abs(np.linalg.eigvals(M)))
        tol = 1e-7 if ev[-2] / ev[-1] < 0.9 else 5e-2
        assert abs(power_radius(M) - true) <= tol * max(1.0, true)


def test_power_radius_zero_matrix():
    assert power_radius(np.zeros((3, 3))) == 0.0


def test_power_eigenvalue_stochastic():
    m = bundled_model("two_state")
    lam = power_eigenvalue(np.asarray(m.transition))
    assert abs(lam - 1.0) <= 1e-10


def test_eigen_jets_match_finite_differences():
    m = bundled_model("two_state")
    fam = m.operator_family(6)
    base = perron_base(fam.matrix(0))
    jets = eigen_perturbation(fam, base)
    step = 1e-4
    lam = lambda t: power_eigenvalue(evaluate_family(m, t))
    d1 = (lam(step) - lam(-step)) / (2 * step)
    d2 = (lam(step) - 2 * lam(0.0) + lam(-step)) / step**2
    assert abs(jets.mu[1] - d1) <= 1e-6 * abs(d1)
    assert abs(2 * jets.mu[2] - d2) <= 1e-6 * abs(d2)


def test_eigen_jets_solve_the_perturbation_equations():
    # residual of L_t v_t = mu_t v_t order by order
    fam, base, jets = _two_state_jets(order=8)
    s = len(jets.mu) - 1
    d = fam.dim
    for m in range(1, s + 1):
        res = np.zeros(d, dtype=complex)
        for j in range(0, m + 1):
            res += 1j ** j * fam.matrix(j) @ jets.right_jet[m - j]
        for j in range(0, m + 1):
            res -= jets.mu[j] * jets.right_jet[m - j]
        assert np.abs(res).max() <= 1e-11


def test_left_right_normalization():
    fam, base, jets = _two_state_jets(order=8)
    pairing = jet_mul(jets.left_jet, jets.right_jet).sum(axis=1)
    assert abs(pairing[0] - 1.0) <= 1e-12
    assert np.abs(pairing[1:]).max() <= 1e-11


def test_char_fn_matches_mu_z_asymptotics():
    # E exp(itS_N) = z(t) mu(t)^N (1 + O(gap^N)) near t = 0
    m = bundled_model("two_state")
    fam, base, jets = _two_state_jets(order=8)
    N = 64
    for t in (5e-3, -1e-2):
        direct = char_fn(m, t, N)
        mu_t = np.polyval(jets.mu[::-1], t)
        z_t = np.polyval(jets.z[::-1], t)
        assert abs(direct - z_t * mu_t**N) <= 1e-10


def test_char_fn_at_zero_is_one():
    m = bundled_model("two_state")
    assert abs(char_fn(m, 0.0, 50) - 1.0) <= 1e-12


def test_norm_decay_scan_lattice_periodicity():
    # integer rewards make L_{2 pi} = L_0, so the radius returns to 1
    m = bundled_model("two_state")
    rows = norm_decay_scan(m, [2 * math.pi], 2)
    t, norm2, radius = rows[0]
    assert abs(radius - 1.0) <= 1e-9
    assert norm2 >= 1.0 - 1e-12


def test_norm_decay_scan_interior_contraction():
    m = bundled_model("diophantine_two_state")
    rows = norm_decay_scan(m, [0.5, 1.0, 2.0, 5.0], 2)
    for t, norm2, radius in rows:
        assert radius < 1.0 - 1e-6
        assert norm2 < 1.0


# ---------------------------------------------------------------- sparse path


def _lazy_cycle(d):
    # lazy walk on a cycle: gap (1 - cos(2 pi / d)) / 2, about 1.1e-4 at d = 300
    k = np.arange(d)
    P = np.zeros((d, d))
    h = np.zeros((d, d))
    P[k, k] = 0.5
    P[k, (k + 1) % d] = 0.25
    P[k, (k - 1) % d] = 0.25
    h[k, k] = 0.3 * np.sin(2.0 * np.pi * k / d)
    h[k, (k + 1) % d] = 1.0
    h[k, (k - 1) % d] = -0.5
    return markov_model(P, h, np.full(d, 1.0 / d))


def _birth_death(d):
    # drift to the right: the stationary law is geometric, far from uniform
    k = np.arange(d)
    P = np.zeros((d, d))
    P[k[:-1], k[:-1] + 1] = 0.3
    P[k[1:], k[1:] - 1] = 0.2
    P[k, k] = 1.0 - P.sum(axis=1)
    h = np.zeros((d, d))
    h[k, k] = k % 3 - 1.0
    h[k[:-1], k[:-1] + 1] = 0.5
    return markov_model(P, h, np.full(d, 1.0 / d))


def _two_doubling_blocks(half, eps):
    # two doubling-map blocks joined by jumps of probability eps to the
    # mirror state: the slow mode has eigenvalue 1 - 2 eps, and every other
    # one dies out after log2(half) steps
    d = 2 * half
    j = np.arange(half)
    P = np.zeros((d, d))
    h = np.zeros((d, d))
    for blk in (0, half):
        for t in (0, 1):
            P[blk + j, blk + (2 * j + t) % half] += (1.0 - eps) / 2.0
            h[blk + j, blk + (2 * j + t) % half] = np.cos(2.0 * np.pi * j / half) + t
        P[blk + j, (blk + half) % d + j] += eps
    return markov_model(P, h, np.full(d, 1.0 / d))


def test_sparse_products_match_dense():
    model = ulam_model("piecewise-linear", _cos2pi, 64, [0.0, 0.3, 0.65, 1.0])
    fam = model.operator_family(3)
    x = np.random.default_rng(5).normal(size=fam.dim)
    for m in range(4):
        M = fam.matrix(m)
        assert isinstance(M, SparseMatrix)
        dense = M.toarray()
        assert np.abs(M @ x - dense @ x).max() <= 1e-14
        assert np.abs(x @ M - x @ dense).max() <= 1e-14


def test_ulam_gap_is_not_rounding_noise():
    # the deflated doubling operator averages pairs of cells, so its power
    # iteration reaches 0 after log2(cells) steps (the dense path read
    # 0.9951 and 0.98075 here)
    for cells in (256, 1024):
        base = perron_base(ulam_model(g=_cos2pi, cells=cells).transition)
        assert abs(base.gap - 1.0) <= 1e-12
    model = ulam_model("piecewise-linear", _cos2pi, 256, [0.0, 0.3, 0.65, 1.0])
    second = np.sort(np.abs(np.linalg.eigvals(model.transition)))[-2]
    assert abs(perron_base(model.transition).gap - (1.0 - second)) <= 1e-9


def test_doubling_neumann_series_ends_after_log2_cells_terms():
    for cells in (64, 256, 1024):
        fam = ulam_model(g=_cos2pi, cells=cells).operator_family(4)
        jets = eigen_perturbation(fam, perron_base(fam.matrix(0)))
        assert jets.neumann_terms <= math.log2(cells) + 1


def test_sparse_expansion_allocates_no_dense_matrix():
    fam = bundled_model("doubling_ulam").operator_family(4)
    d = fam.dim
    tracemalloc.start()
    try:
        eigen_perturbation(fam, perron_base(fam.matrix(0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d * d * 8 / 16


def test_slow_mixing_sparse_chain_falls_back_to_dense_solve():
    # about 37 / gap = 3.4e5 Neumann terms would be needed: the series runs
    # out of its budget, and the bordered systems are solved densely
    model = _lazy_cycle(300)
    second = np.sort(np.abs(np.linalg.eigvals(model.transition)))[-2]
    assert 1e-4 < 1.0 - second < 1.2e-4
    fam = model.operator_family(4)
    assert fam.sparse
    base = perron_base(fam.matrix(0))
    jets = eigen_perturbation(fam, base)
    assert jets.neumann_terms is None
    mu_ref, z_ref = _reference_perturbation(_reference_family(model, 4), fam.mu0, base)
    # the coefficients grow like powers of 1/gap (|mu_4| ~ 8e7, |z_4| ~ 2e12)
    # and mu_3 is a difference of such terms, so relative to each one the
    # real and complex solves agree to 1e-9 (the dense path: 7.5e-12 on
    # mu_3, 4e-15 elsewhere); z_1 is 0 up to rounding, as mu0 = pi
    assert np.all(np.abs(jets.mu - mu_ref) <= 1e-9 * np.abs(mu_ref) + 1e-12)
    assert np.all(np.abs(jets.z - z_ref) <= 1e-9 * np.abs(z_ref) + 1e-12)


def test_sparse_stationary_falls_back_to_dense_solve():
    model = _birth_death(200)
    P = model.transition
    rows, cols = np.nonzero(P)
    assert _power_stationary(SparseMatrix(P[rows, cols], rows, cols, 200)) is None
    base = perron_base(P)
    M = (P - np.eye(200)).T
    M[-1] = 1.0
    b = np.zeros(200)
    b[-1] = 1.0
    assert np.abs(base.left - np.clip(np.linalg.solve(M, b), 0.0, None)).max() <= 1e-14
    assert base.left[0] < 1e-15 and base.left[-1] > 0.3


def test_sparse_gap_guard_on_nearly_disconnected_chain():
    model = _two_doubling_blocks(64, 1e-10)
    with pytest.raises(GapBelowTolerance):
        perron_base(model.transition)
    fam = model.operator_family(3)
    assert fam.sparse
    with pytest.raises(GapBelowTolerance):
        perron_base(fam.matrix(0))
    # a wider link is a slow chain, not a broken one
    assert abs(perron_base(_two_doubling_blocks(64, 1e-3).transition).gap - 2e-3) <= 1e-12
