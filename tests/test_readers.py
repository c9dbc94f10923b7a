"""Every horizon, ladder, order and count of the public functions and
of the command line is read by one integer reader: a bool, a string, a
non-integer or a value below its bound is refused with a
``ValidationError`` whose message starts with the argument's name.
Every real argument is read the same way, and a NaN or an infinity is
refused by name."""

import contextlib
import io
import json
import math
import types

import numpy as np
import pytest

from edgeworth import cli
from edgeworth.errors import ValidationError, _as_reals
from edgeworth.evaluate import (
    TestFunction,
    averaged,
    convergence_study,
    edgeworth_cdf,
    exact_distribution,
    exact_distributions,
    lattice_pmf,
    moddev_ratios,
    weak_global,
    weak_local,
)
from edgeworth.expansion import build_expansion, expansion_for_model
from edgeworth.models import (
    MarkovModel,
    bundled_model,
    diophantine_scan,
    iid_model,
    markov_model,
    pmf_moments,
    ulam_model,
)
from edgeworth.oracle import dp_ladder, dp_pmf, exact_moments, mc_sample
from edgeworth.spectral import (
    SparseMatrix,
    build_operator_family,
    eigen_perturbation,
    norm_decay_scan,
    perron_base,
)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    model = bundled_model("two_state")
    fam = model.operator_family(5)
    return types.SimpleNamespace(
        model=model,
        exp_set=expansion_for_model(model, 3),
        jets=eigen_perturbation(fam, perron_base(fam)),
        f=TestFunction("gaussian-bump", 0.0, 1.0),
        tmp=tmp_path_factory.mktemp("readers"),
    )


def _cli(ctx, command, run):
    """Run ``command`` on two_state with ``run``; re-raise its JSON error."""
    path = ctx.tmp / "config.json"
    path.write_text(json.dumps({"model": {"bundled": "two_state"}, "run": run}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, str(path), "--out", str(ctx.tmp / "out"), "--stamp", "s"])
    payload = json.loads(err.getvalue())
    assert code == 2 and payload["error"] == "ValidationError", payload
    raise ValidationError(payload["message"])


_MC = {"order": 1, "N_list": [8], "oracle": "mc", "seed": 1, "trials": 100}

# (function, argument, the lowest value below its bound, call with a value)
CASES = [
    ("edgeworth_cdf", "N", 0, lambda c, v: edgeworth_cdf(c.exp_set, v, 0.0, r=2)),
    ("edgeworth_cdf", "r", -1, lambda c, v: edgeworth_cdf(c.exp_set, 8, 0.0, r=v)),
    ("lattice_pmf", "N", 0, lambda c, v: lattice_pmf(c.exp_set, v, 0.0, r=2)),
    ("lattice_pmf", "r", -1, lambda c, v: lattice_pmf(c.exp_set, 8, 0.0, r=v)),
    ("weak_global", "N", 0, lambda c, v: weak_global(c.exp_set, c.f, v, r=2)),
    ("weak_global", "r", -1, lambda c, v: weak_global(c.exp_set, c.f, 8, r=v)),
    ("weak_local", "N", 0, lambda c, v: weak_local(c.exp_set, c.f, v, r=2)),
    ("weak_local", "r", -1, lambda c, v: weak_local(c.exp_set, c.f, 8, r=v)),
    ("averaged", "N", 0, lambda c, v: averaged(c.exp_set, c.f, v, 0.5, r=2)),
    ("averaged", "r", -1, lambda c, v: averaged(c.exp_set, c.f, 8, 0.5, r=v)),
    ("convergence_study", "N_list", 0,
     lambda c, v: convergence_study(c.exp_set, c.model, "dp", 1, [v])),
    ("convergence_study", "r", -1,
     lambda c, v: convergence_study(c.exp_set, c.model, "dp", v, [8, 16])),
    ("moddev_ratios", "N_list", 1, lambda c, v: moddev_ratios(c.exp_set, c.model, 0.5, [v])),
    ("exact_distributions", "N_list", 0, lambda c, v: exact_distributions(c.model, [v], "dp")),
    ("exact_distribution", "N", 0, lambda c, v: exact_distribution(c.model, v, "dp")),
    ("dp_ladder", "N_list", 0, lambda c, v: dp_ladder(c.model, [v])),
    ("dp_pmf", "N", 0, lambda c, v: dp_pmf(c.model, v)),
    ("mc_sample", "N", 0, lambda c, v: mc_sample(c.model, v, 100, 1)),
    ("mc_sample", "trials", 0, lambda c, v: mc_sample(c.model, 8, v, 1)),
    ("mc_sample", "seed", -1, lambda c, v: mc_sample(c.model, 8, 100, v)),
    ("exact_moments", "N", 0, lambda c, v: exact_moments(c.model, v, 4)),
    ("exact_moments", "kmax", -1, lambda c, v: exact_moments(c.model, 8, v)),
    ("pmf_moments", "kmax", 0, lambda c, v: pmf_moments([(0.0, 0.5), (1.0, 0.5)], v)),
    ("norm_decay_scan", "N", 0, lambda c, v: norm_decay_scan(c.model, [1.0], v)),
    ("build_operator_family", "order", 1, lambda c, v: build_operator_family(c.model, v)),
    ("IidMomentModel.operator_family", "order", 1,
     lambda c, v: bundled_model("iid_moments").operator_family(v)),
    ("ExpansionSet.A", "k", -1, lambda c, v: c.exp_set.A(v)),
    ("ExpansionSet.R", "p", -1, lambda c, v: c.exp_set.R(v)),
    ("ExpansionSet.P", "p", 0, lambda c, v: c.exp_set.P(v)),
    ("ExpansionSet.weak_local", "p", -1, lambda c, v: c.exp_set.weak_local(v)),
    ("ExpansionSet.a", "k", -1, lambda c, v: c.exp_set.a(v, 0)),
    ("ExpansionSet.a", "j", -1, lambda c, v: c.exp_set.a(4, v)),
    ("expansion_for_model", "r", -1, lambda c, v: expansion_for_model(c.model, v)),
    ("build_expansion", "r", -1, lambda c, v: build_expansion(c.jets, v)),
    ("cli expand", "order", -1, lambda c, v: _cli(c, "expand", {"order": v})),
    ("cli verify", "seed", -1, lambda c, v: _cli(c, "verify", dict(_MC, seed=v))),
    ("cli verify", "trials", 0, lambda c, v: _cli(c, "verify", dict(_MC, trials=v))),
    # lclt reads its ladder through the lattice form of convergence_study
    ("cli lclt", "N_list", 0, lambda c, v: _cli(c, "lclt", {"N_list": [v]})),
    ("cli moddev", "N_list", 1, lambda c, v: _cli(c, "moddev", {"N_list": [v]})),
    ("cli diagnose", "run.N", 0, lambda c, v: _cli(c, "diagnose", {"N": v})),
    ("cli diagnose", "run.t_grid.count", 0,
     lambda c, v: _cli(c, "diagnose", {"t_grid": {"count": v}})),
]


@pytest.mark.parametrize("function, name, value, call", [
    pytest.param(function, name, value, call, id=f"{function}-{name}-{value!r}")
    for function, name, below, call in CASES
    for value in (True, "8", 2.5, below)
])
def test_every_integer_argument_is_refused_by_name(ctx, function, name, value, call):
    with pytest.raises(ValidationError) as info:
        call(ctx, value)
    assert str(info.value).startswith(f"{name} must be "), str(info.value)


# (function, call with a ladder)
LADDERS = [
    ("convergence_study", lambda c, v: convergence_study(c.exp_set, c.model, "dp", 1, v)),
    ("moddev_ratios", lambda c, v: moddev_ratios(c.exp_set, c.model, 0.5, v)),
    # a Monte Carlo ladder ran in any order
    ("exact_distributions", lambda c, v: exact_distributions(c.model, v, "mc", 1, 100)),
    ("dp_ladder", lambda c, v: dp_ladder(c.model, v)),
]


@pytest.mark.parametrize("function, call", LADDERS, ids=[f for f, _ in LADDERS])
@pytest.mark.parametrize("ladder, message", [
    ([], "N_list must hold at least one horizon"),
    ([16, 8], "N_list must be strictly increasing"),
    ([8, 8], "N_list must be strictly increasing"),
    (8, "N_list must be a list of integers, not 8"),
])
def test_every_ladder_is_refused_empty_or_out_of_order(ctx, function, call, ladder, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(ctx, ladder)


# (accessor, call, message) past the top of an order-3 table
PAST_THE_TABLE = [
    ("A", lambda e: e.A(4), "k must be in 0..3, not 4"),
    ("R", lambda e: e.R(4), "p must be in 0..3, not 4"),
    ("P", lambda e: e.P(4), "p must be in 1..3, not 4"),
    # an order-0 table has no P_p; its refusal read "p must be in 1..0, not 1"
    ("P-order-0", lambda e: expansion_for_model(bundled_model("two_state"), 0).P(1),
     "an order-0 expansion has no P_p"),
    ("weak_local", lambda e: e.weak_local(2), "p must be in 0..1, not 2"),
    # moments a_{k,j} up to k = r + 2, with j at most k // 2
    ("a-k", lambda e: e.a(6, 0), "k must be in 0..5, not 6"),
    ("a-j", lambda e: e.a(4, 3), "j must be in 0..2, not 3"),
]


@pytest.mark.parametrize("call, message", [(c, m) for _, c, m in PAST_THE_TABLE],
                         ids=[name for name, _, _ in PAST_THE_TABLE])
def test_expansion_accessors_refuse_an_index_past_the_table(ctx, call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(ctx.exp_set)


def _sparse_pair(P_values, h_values):
    rows, cols = np.array([0, 0, 1]), np.array([0, 1, 0])
    return (SparseMatrix(np.array(P_values, dtype=float), rows, cols, 2),
            SparseMatrix(np.array(h_values, dtype=float), rows, cols, 2))


_DENSE_P, _DENSE_H = [[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]

# (function, argument, call with a value): every real argument
REALS = [
    ("averaged", "x", lambda c, v: averaged(c.exp_set, c.f, 8, v, r=2)),
    ("edgeworth_cdf", "z", lambda c, v: edgeworth_cdf(c.exp_set, 8, [0.0, v], r=2)),
    ("lattice_pmf", "k", lambda c, v: lattice_pmf(c.exp_set, 8, v, r=2)),
    ("norm_decay_scan", "t_grid", lambda c, v: norm_decay_scan(c.model, [1.0, v], 2)),
    ("diophantine_scan", "s_grid", lambda c, v: diophantine_scan(c.model, [v, 1.0])),
    ("iid_model", "moments", lambda c, v: iid_model(moments=[0.0, 1.0, v, 3.0])),
    ("iid_model", "pmf", lambda c, v: iid_model(pmf=[[0.0, 0.5], [v, 0.5]])),
    ("ulam_model", "endpoints",
     lambda c, v: ulam_model("piecewise-linear", g=np.cos, cells=16, endpoints=[0.0, v, 1.0])),
    ("markov_model", "transition",
     lambda c, v: markov_model([[v, 0.5], [0.5, 0.5]], _DENSE_H, [1.0, 0.0])),
    ("markov_model", "observable",
     lambda c, v: markov_model(_DENSE_P, [[1.0, v], [0.0, 1.0]], [1.0, 0.0])),
    ("markov_model", "mu0", lambda c, v: markov_model(_DENSE_P, _DENSE_H, [v, 0.0])),
    ("MarkovModel sparse", "transition",
     lambda c, v: MarkovModel(*_sparse_pair([0.5, v, 1.0], [1.0, 0.0, 2.0]), [1.0, 0.0])),
    ("MarkovModel sparse", "observable",
     lambda c, v: MarkovModel(*_sparse_pair([0.5, 0.5, 1.0], [1.0, v, 2.0]), [1.0, 0.0])),
    ("TestFunction", "center", lambda c, v: TestFunction("gaussian-bump", v, 1.0)),
    ("TestFunction", "width", lambda c, v: TestFunction("gaussian-bump", 0.0, v)),
    ("moddev_ratios", "c", lambda c, v: moddev_ratios(c.exp_set, c.model, v, [64])),
    ("convergence_study", "x",
     lambda c, v: convergence_study(c.exp_set, c.model, "dp", 1, [8, 16], form="averaged", x=v)),
    ("cli diagnose", "run.t_grid.start",
     lambda c, v: _cli(c, "diagnose", {"t_grid": {"start": v}})),
]


@pytest.mark.parametrize("function, name, value, call", [
    pytest.param(function, name, value, call, id=f"{function}-{name}-{value!r}")
    for function, name, call in REALS
    for value in (math.nan, math.inf, -math.inf)
])
def test_every_real_argument_refuses_nan_and_infinities_by_name(ctx, function, name, value, call):
    with pytest.raises(ValidationError) as info:
        call(ctx, value)
    assert str(info.value).startswith(f"{name} "), str(info.value)
    assert "finite" in str(info.value), str(info.value)


def test_a_float_array_is_read_without_a_copy():
    values = np.array([0.5, 1.5])
    assert _as_reals("values", values) is values
