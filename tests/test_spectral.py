"""Operator families, Perron data and eigenvalue jets."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from chains import dense_chain, dense_family, sparse_chain_doc
from edgeworth.errors import (GapBelowTolerance, NonStochasticModel, SingularStationarySolve,
                              ValidationError)
from edgeworth.jets import jet_div, jet_mul
from edgeworth import spectral
from edgeworth.cli import build_model
from edgeworth.models import bundled_model, markov_model, ulam_model
from edgeworth.spectral import (
    SparseMatrix,
    _bordered_inverse,
    _power_radius,
    _power_stationary,
    build_operator_family,
    eigen_perturbation,
    norm_decay_scan,
    perron_base,
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
    Lt = dense_family(model, t)
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
    P, h = dense_chain(model)
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
    base = perron_base(fam)
    return fam, base, eigen_perturbation(fam, base)


def test_entry_jets_match_exponential():
    m = bundled_model("two_state")
    fam = m.operator_family(8)
    for t in (1e-2, -3e-2):
        direct = dense_family(m, t)
        from_jets = sum((1j * t) ** k * fam.matrix(k) for k in range(fam.order + 1))
        assert np.abs(direct - from_jets).max() <= 1e-13


@pytest.mark.parametrize("t", [0.0, -0.0, 0.37, -2.5, 40.0])
def test_family_evaluated_on_the_nonzeros_is_bit_identical(t):
    # signed zeros included: the exponential of the d x d arrays against
    # the L_t of the test-side dense scan reference, whose exponential is
    # taken on the nonzeros; and the scan's own ||L_t||_inf, the row sums
    # of |L_t| at N = 1, on either path, against that reference
    chains = [m for name, m in _COMPARISON if hasattr(m, "entries") and "256" not in name]
    for model in chains:
        P, h = dense_chain(model)
        want = P * np.exp(1j * t * h)
        got = dense_family(model, t)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        (_, norm, _), = norm_decay_scan(model, [t], 1)
        assert norm == np.max(np.abs(want).sum(axis=1))


def _dense(M):
    return M.toarray() if isinstance(M, SparseMatrix) else M


def test_family_is_real_and_contiguous():
    # every family is stored on the chain's nonzeros; the Ulam chains take
    # the sparse path, every other chain the dense one
    for name, model in _COMPARISON:
        fam = model.operator_family(4)
        assert fam.coeffs.dtype == np.float64
        assert fam.coeffs.flags.c_contiguous
        P = dense_chain(model)[0] if hasattr(model, "entries") else np.ones((1, 1))
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
    base = perron_base(fam)
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
        base = perron_base(fam)
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
        assert _power_radius(M.__matmul__, d) == _reference_power_radius(M, float)
        assert abs(_power_radius(M.__matmul__, d) - _reference_power_radius(M, complex)) <= 1e-12
        Mc = M + 1j * rng.normal(size=(d, d))
        assert _power_radius(Mc.__matmul__, d, complex) == _reference_power_radius(Mc, complex)


def test_non_stochastic_rows_rejected():
    with pytest.raises(NonStochasticModel):
        markov_model([[0.7, 0.2], [0.4, 0.6]], [[1, 0], [0, 0]], [1, 0])
    with pytest.raises(NonStochasticModel):
        markov_model([[1.1, -0.1], [0.4, 0.6]], [[1, 0], [0, 0]], [1, 0])


def test_family_of_an_ulam_chain_keeps_its_pattern(monkeypatch):
    # no d x d array and no search for the pattern: the family reads
    # model.entries()
    def refuse(self):
        raise AssertionError("the chain was densified")

    model = ulam_model("piecewise-linear", _cos2pi, 64, [0.0, 0.3, 0.65, 1.0])
    rows, cols, P, _ = model.entries()
    monkeypatch.setattr(SparseMatrix, "toarray", refuse)
    fam = build_operator_family(model, 3)
    assert fam.rows is rows and fam.cols is cols
    assert np.array_equal(fam.coeffs[0], P)
    gap = perron_base(fam).gap
    monkeypatch.undo()
    # the chain given as d x d arrays takes the same path by the same rule
    dense = markov_model(*dense_chain(model), model.mu0)
    assert perron_base(dense.operator_family(2)).gap == gap


@pytest.mark.parametrize("d, nnz", [(1, 1), (7, 7), (8, 8), (16, 32), (16, 33), (64, 512)])
def test_one_rule_picks_the_path_of_family_and_raw_matrix(monkeypatch, d, nnz):
    # the sparse path takes at most one nonzero entry in eight of the raw
    # matrix; the family and its Perron base both follow that one rule
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
        perron_base(fam)
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
    fam = markov_model(P, np.zeros((2, 2)), [0.5, 0.5]).operator_family(2)
    with pytest.raises(GapBelowTolerance):
        perron_base(fam)


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
        assert abs(_power_radius(M.__matmul__, d, complex) - true) <= tol * max(1.0, true)


def test_power_radius_zero_matrix():
    assert _power_radius(np.zeros((3, 3)).__matmul__, 3) == 0.0


def test_power_eigenvalue_stochastic():
    m = bundled_model("two_state")
    lam = power_eigenvalue(dense_chain(m)[0])
    assert abs(lam - 1.0) <= 1e-10


def test_eigen_jets_match_finite_differences():
    m = bundled_model("two_state")
    fam = m.operator_family(6)
    base = perron_base(fam)
    jets = eigen_perturbation(fam, base)
    step = 1e-4
    lam = lambda t: power_eigenvalue(dense_family(m, t))
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


def test_norm_decay_scan_refuses_a_non_integer_power():
    # binary powering of 2.5 formed L_t^3
    with pytest.raises(ValidationError, match="^N must be an integer"):
        norm_decay_scan(bundled_model("two_state"), [1.0], 2.5)


@pytest.mark.parametrize("t_grid, N", [([], 2), ([1.0], 0), ([1.0], -3)])
def test_norm_decay_scan_refuses_an_empty_grid_or_a_power_below_one(t_grid, N):
    # a bare ValueError, outside the package's error classes
    with pytest.raises(ValidationError, match="^(empty t grid|N must be at least 1)"):
        norm_decay_scan(bundled_model("two_state"), t_grid, N)


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
    # real and complex matrices, times real and complex vectors on either
    # side; toarray keeps the values' dtype
    model = ulam_model("piecewise-linear", _cos2pi, 64, [0.0, 0.3, 0.65, 1.0])
    fam = model.operator_family(3)
    rng = np.random.default_rng(5)
    x = rng.normal(size=fam.dim)
    z = x + 1j * rng.normal(size=fam.dim)
    phase = np.exp(1j * rng.normal(size=fam.rows.size))
    for m in range(4):
        M = fam.matrix(m)
        assert isinstance(M, SparseMatrix)
        Mc = SparseMatrix(M.values * phase, M.rows, M.cols, M.dim)
        for A in (M, Mc):
            dense = A.toarray()
            assert dense.dtype == A.values.dtype
            for v in (x, z):
                assert np.abs(A @ v - dense @ v).max() <= 1e-14
                assert np.abs(v @ A - v @ dense).max() <= 1e-14


def _zero_entry_chain(d):
    # about half the entries 0, and every row at least one entry
    rng = np.random.default_rng(d)
    P = rng.random((d, d)) * (rng.random((d, d)) < 0.5)
    P[np.arange(d), rng.integers(0, d, size=d)] += 0.01
    P /= P.sum(axis=1, keepdims=True)
    return markov_model(P, rng.normal(size=(d, d)), np.full(d, 1.0 / d))


def _sparse_entry_chain(d):
    # d // 8 random entries in every row: the sparse path
    rng = np.random.default_rng(1000 + d)
    k = max(1, d // 8)
    P = np.zeros((d, d))
    for j in range(d):
        P[j, rng.choice(d, k, replace=False)] = rng.random(k) + 0.01
    P /= P.sum(axis=1, keepdims=True)
    return markov_model(P, rng.normal(size=(d, d)), np.full(d, 1.0 / d))


def _scan_models():
    out = [(name, bundled_model(name)) for name in (
        "two_state", "three_state_lattice", "diophantine_two_state", "bernoulli", "doubling_ulam")]
    out.append(("sparse-16", build_model(sparse_chain_doc())))
    dims = (2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 16, 17, 20, 24, 25, 31, 32, 33, 40, 45, 49, 50)
    out += [(f"zeros-{d}", _zero_entry_chain(d)) for d in dims]
    out += [(f"sparse-zeros-{d}", _sparse_entry_chain(d)) for d in (8, 9, 16, 24, 31, 40, 50)]
    out.append(("piecewise-64", ulam_model("piecewise-linear", _cos2pi, 64, [0.0, 0.3, 0.65, 1.0])))
    return out


def _dense_norm_decay_scan(model, t_grid, N, radii=None):
    # the d x d L_t, its N-th power by matrix_power and power iteration on
    # it; ``radii``, if given, keeps the radius at each t across calls,
    # since it does not depend on N
    radii = {} if radii is None else radii
    out = []
    for t in t_grid:
        Lt = dense_family(model, t)
        power = np.linalg.matrix_power(Lt, N)
        if t not in radii:
            radii[t] = _reference_power_radius(Lt, complex)
        out.append((float(t), float(np.max(np.abs(power).sum(axis=1))), radii[t]))
    return out


@pytest.fixture(scope="module")
def scan_radii():
    # chain name -> {t: reference radius}, shared by the cases of every N
    return {}


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_norm_decay_scan_matches_the_dense_scan(monkeypatch, scan_radii, N):
    # every chain is scanned held as a d x d array, and again on its
    # pattern, whatever its density; the scan as the path rule picks it
    # runs unpatched in the tests below, on dense and on sparse chains.
    # Every other point of the diagnose default grid, every eighth for
    # the 1024-cell chain, whose dense powers are 1024 x 1024 products.
    # Norms are compared on the scale ||P^N||_inf = 1, the modulus of
    # L_t^N, which bounds the rounding of either product: where the norm
    # cancels far below it (bernoulli at t = 9.5, N = 5: 2.0e-6) the two
    # differ by 1.3e-20, 7e-15 of the norm.  Radii are compared relative
    # to themselves.
    grid = np.linspace(0.5, 20.0, 40)
    for name, model in _scan_models():
        t_grid = grid[::8] if model.dim > 100 else grid[::2]
        want = np.array(_dense_norm_decay_scan(model, t_grid, N, scan_radii.setdefault(name, {})))
        for sparse in (False, True):
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_sparse_path", lambda nnz, d: sparse)
                got = np.array(norm_decay_scan(model, t_grid, N))
            assert np.array_equal(got[:, 0], t_grid), (name, sparse)
            assert np.all(np.abs(got[:, 1] - want[:, 1]) <= 1e-15), (name, sparse)
            assert np.all(np.abs(got[:, 2] - want[:, 2]) <= 1e-15 * want[:, 2]), (name, sparse)


def test_dense_scan_powers_by_binary_powering():
    # N = 3 is L (L L): the first power times the square, where
    # np.linalg.matrix_power forms (L L) L
    grid = np.linspace(0.5, 20.0, 7)
    for name, model in _scan_models():
        if model.operator_family(2).sparse:
            continue
        for t, norm, _ in norm_decay_scan(model, grid, 3):
            L = dense_family(model, t)
            assert norm == np.max(np.abs(L @ (L @ L)).sum(axis=1)), name


def test_scan_models_take_both_paths():
    sparse = {name for name, m in _scan_models() if m.operator_family(2).sparse}
    assert sparse == {"doubling_ulam", "sparse-16", "piecewise-64"} | {
        f"sparse-zeros-{d}" for d in (8, 9, 16, 24, 31, 40, 50)}


def test_norm_decay_scan_allocates_no_dense_matrix():
    # one complex L_t of the 4096-cell chain as a d x d array is 256 MiB
    model = ulam_model(g=_cos2pi, cells=4096)
    tracemalloc.start()
    try:
        rows = norm_decay_scan(model, np.linspace(0.5, 20.0, 40), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 40
    assert peak < 16 * 2 ** 20


def _funnel_chain(d, k):
    # every state steps to one of the states 0 .. k-1, so each entry of
    # L_t meets k entries in L_t^2: d * k * k path products, pooled on the
    # d x k pattern of L_t^2
    rng = np.random.default_rng(d + k)
    P = np.zeros((d, d))
    P[:, :k] = rng.random((d, k)) + 0.01
    P /= P.sum(axis=1, keepdims=True)
    return markov_model(P, rng.normal(size=(d, d)), np.full(d, 1.0 / d))


def test_norm_decay_scan_takes_path_products_in_blocks(monkeypatch):
    # d * k * k = d * d = 2**20 path products at N = 2, the most one pattern
    # product takes; held at once they peaked at 66 MiB, in blocks of rows
    # at 20 MiB.  One complex L_t as a d x d array is 16 MiB
    model = _funnel_chain(1024, 32)
    assert model.operator_family(2).sparse
    tracemalloc.start()
    try:
        norm_decay_scan(model, [1.0], 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    # blocks of whole rows pool the same pairs in the same order
    models = [m for name, m in _scan_models() if m.dim < 100 and m.operator_family(2).sparse]
    models.append(_funnel_chain(64, 8))
    grid = np.linspace(0.5, 20.0, 7)
    whole = [norm_decay_scan(m, grid, 5) for m in models]
    monkeypatch.setattr(spectral, "_PRODUCTS", 7)
    assert [norm_decay_scan(m, grid, 5) for m in models] == whole


def test_filled_powers_are_multiplied_densely(monkeypatch):
    # the pattern of L_t^N on the 256-cell doubling chain fills from N = 8
    # on: L_t^8 L_t^8 would take 256**3 path products, and is a d x d product
    model = ulam_model(g=_cos2pi, cells=256)
    products = []
    pattern_product = spectral._pattern_product

    def counted(a, b):
        products.append(np.bincount(b.rows, minlength=b.dim)[a.cols].sum())
        return pattern_product(a, b)

    monkeypatch.setattr(spectral, "_pattern_product", counted)
    t_grid = np.linspace(0.5, 20.0, 5)
    got = np.array(norm_decay_scan(model, t_grid, 16))
    # L^2, L^4 and L^8 on the pattern, the last at exactly d * d products
    assert products == [1024, 4096, 65536] * 5
    want = np.array(_dense_norm_decay_scan(model, t_grid, 16))
    assert np.all(np.abs(got[:, 1] - want[:, 1]) <= 1e-15)
    assert np.all(np.abs(got[:, 2] - want[:, 2]) <= 1e-15 * want[:, 2])


def test_ulam_gap_is_not_rounding_noise():
    # the deflated doubling operator averages pairs of cells, so its power
    # iteration reaches 0 after log2(cells) steps (the dense path read
    # 0.9951 and 0.98075 here)
    for cells in (256, 1024):
        base = perron_base(ulam_model(g=_cos2pi, cells=cells).operator_family(2))
        assert abs(base.gap - 1.0) <= 1e-12
    model = ulam_model("piecewise-linear", _cos2pi, 256, [0.0, 0.3, 0.65, 1.0])
    second = np.sort(np.abs(np.linalg.eigvals(dense_chain(model)[0])))[-2]
    assert abs(perron_base(model.operator_family(2)).gap - (1.0 - second)) <= 1e-9


def test_doubling_neumann_series_ends_after_log2_cells_terms():
    for cells in (64, 256, 1024):
        fam = ulam_model(g=_cos2pi, cells=cells).operator_family(4)
        jets = eigen_perturbation(fam, perron_base(fam))
        assert jets.neumann_terms <= math.log2(cells) + 1


def test_sparse_expansion_allocates_no_dense_matrix():
    fam = bundled_model("doubling_ulam").operator_family(4)
    d = fam.dim
    tracemalloc.start()
    try:
        eigen_perturbation(fam, perron_base(fam))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d * d * 8 / 16


def test_slow_mixing_sparse_chain_falls_back_to_dense_solve():
    # about 37 / gap = 3.4e5 Neumann terms would be needed: the series runs
    # out of its budget, and the bordered systems are solved densely
    model = _lazy_cycle(300)
    second = np.sort(np.abs(np.linalg.eigvals(dense_chain(model)[0])))[-2]
    assert 1e-4 < 1.0 - second < 1.2e-4
    fam = model.operator_family(4)
    assert fam.sparse
    base = perron_base(fam)
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
    P = dense_chain(model)[0]
    rows, cols = np.nonzero(P)
    assert _power_stationary(SparseMatrix(P[rows, cols], rows, cols, 200)) is None
    base = perron_base(model.operator_family(2))
    M = (P - np.eye(200)).T
    M[-1] = 1.0
    b = np.zeros(200)
    b[-1] = 1.0
    assert np.abs(base.left - np.clip(np.linalg.solve(M, b), 0.0, None)).max() <= 1e-14
    assert base.left[0] < 1e-15 and base.left[-1] > 0.3


def test_sparse_gap_guard_on_nearly_disconnected_chain():
    fam = _two_doubling_blocks(64, 1e-10).operator_family(3)
    assert fam.sparse
    with pytest.raises(GapBelowTolerance):
        perron_base(fam)
    # a wider link is a slow chain, not a broken one
    fam = _two_doubling_blocks(64, 1e-3).operator_family(2)
    assert abs(perron_base(fam).gap - 2e-3) <= 1e-12
