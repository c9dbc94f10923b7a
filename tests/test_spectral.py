"""Operator families, Perron data and eigenvalue jets."""

import math

import numpy as np
import pytest

from edgeworth.errors import GapBelowTolerance, NonStochasticModel
from edgeworth.jets import jet_mul
from edgeworth.models import bundled_model, markov_model
from edgeworth.spectral import (
    build_operator_family,
    char_fn,
    eigen_perturbation,
    evaluate_family,
    norm_decay_scan,
    perron_base,
    power_eigenvalue,
    power_radius,
)


def _two_state_jets(order=6):
    m = bundled_model("two_state")
    fam = m.operator_family(order)
    base = perron_base(fam.base_matrix())
    return fam, base, eigen_perturbation(fam, base)


def test_entry_jets_match_exponential():
    m = bundled_model("two_state")
    fam = m.operator_family(8)
    for t in (1e-2, -3e-2):
        direct = evaluate_family(m, t)
        from_jets = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                from_jets[a, b] = fam.entry_jet(a, b).eval(t)
        assert np.abs(direct - from_jets).max() <= 1e-13


def test_non_stochastic_rows_rejected():
    with pytest.raises(NonStochasticModel):
        markov_model([[0.7, 0.2], [0.4, 0.6]], [[1, 0], [0, 0]], [1, 0])
    with pytest.raises(NonStochasticModel):
        markov_model([[1.1, -0.1], [0.4, 0.6]], [[1, 0], [0, 0]], [1, 0])


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
    base = perron_base(fam.base_matrix())
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
    s = jets.mu.order
    d = fam.dim
    for m in range(1, s + 1):
        res = np.zeros(d, dtype=complex)
        for j in range(0, m + 1):
            Lj = fam.matrix_coeff(j)
            vmj = np.array([jets.right_jet[k][m - j] for k in range(d)])
            res += Lj @ vmj
        for j in range(0, m + 1):
            vmj = np.array([jets.right_jet[k][m - j] for k in range(d)])
            res -= jets.mu[j] * vmj
        assert np.abs(res).max() <= 1e-11


def test_left_right_normalization():
    fam, base, jets = _two_state_jets(order=8)
    pairing = None
    for k in range(fam.dim):
        term = jet_mul(jets.left_jet[k], jets.right_jet[k])
        pairing = term if pairing is None else pairing + term
    assert abs(pairing[0] - 1.0) <= 1e-12
    assert np.abs(pairing.coeffs[1:]).max() <= 1e-11


def test_char_fn_matches_mu_z_asymptotics():
    # E exp(itS_N) = z(t) mu(t)^N (1 + O(gap^N)) near t = 0
    m = bundled_model("two_state")
    fam, base, jets = _two_state_jets(order=8)
    N = 64
    for t in (5e-3, -1e-2):
        direct = char_fn(m, t, N)
        mu_t = jets.mu.eval(t)
        z_t = jets.z.eval(t)
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
