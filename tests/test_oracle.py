"""Ground-truth oracles: dynamic programs, enumeration, Monte Carlo."""

import math
import multiprocessing
import os

import mpmath
import numpy as np
import pytest

from edgeworth.errors import (
    OracleUnavailable,
    TableTooLarge,
    TooManyValues,
    ValidationError,
)
from edgeworth import oracle
from edgeworth.models import bundled_model, iid_model, markov_model, ulam_model
from edgeworth.oracle import (
    ExactDistribution,
    FunctionCdf,
    dp_pmf,
    drift,
    enum_distribution,
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


def test_dp_requires_lattice():
    with pytest.raises(OracleUnavailable):
        dp_pmf(bundled_model("diophantine_two_state"), 8)


def test_dp_table_cap():
    with pytest.raises(TableTooLarge):
        dp_pmf(bundled_model("three_state_lattice"), 10**8)


def test_enum_matches_dp_on_lattice():
    m = bundled_model("two_state")
    N = 12
    de = enum_distribution(m, N)
    dd = dp_pmf(m, N)
    assert de.support.size == dd.support.size
    # merged enum values are probability-weighted means, so tiny float
    # noise around the exact lattice points is expected
    assert np.abs(de.support - dd.support).max() <= 1e-12
    assert np.abs(de.pmf - dd.pmf).max() <= 1e-13


def test_enum_golden_support_size():
    m = bundled_model("diophantine_two_state")
    N = 10
    dist = enum_distribution(m, N)
    # path sums are a + b*phi with a + b <= N, so at most (N+1)(N+2)/2 atoms
    assert N < dist.support.size <= (N + 1) * (N + 2) // 2
    assert abs(math.fsum(dist.pmf.tolist()) - 1.0) <= 1e-12


def test_enum_cap():
    with pytest.raises(TooManyValues):
        enum_distribution(bundled_model("diophantine_two_state"), 120)


def test_exact_moments_match_dp_centered():
    for name in ("two_state", "three_state_lattice"):
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


def test_mc_deterministic_and_close_to_dp():
    m = bundled_model("two_state")
    N, trials, seed = 32, 200_000, 99
    a = mc_sample(m, N, trials, seed)
    b = mc_sample(m, N, trials, seed)
    assert np.array_equal(a.support, b.support)
    assert np.array_equal(a.pmf, b.pmf)
    assert a.meta["seed"] == seed and "prng" in a.meta
    # both are step CDFs on the same integer lattice: compare at atoms
    dd = dp_pmf(m, N)
    worst = max(abs(a.cdf(k) - dd.cdf(k)) for k in dd.support)
    assert worst <= 0.012


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
    # (N + 1)**(d*d - 1) at d = 1024 overflows a float
    with pytest.raises(TooManyValues):
        enum_distribution(bundled_model("doubling_ulam"), 4)


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


def test_to_csv_round_trip(tmp_path):
    d = ExactDistribution("lattice", [0.0, 1.0], [0.25, 0.75], 1)
    path = tmp_path / "dist.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        d.to_csv(fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "value,pmf,cdf"
    assert float(lines[1].split(",")[1]) == 0.25
