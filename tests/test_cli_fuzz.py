"""Config fuzzing of the command-line exit-code contract.

Every command runs on cheap models with run and model fields that are
well formed, out of range or of the wrong type or shape.  Whatever the
config, the process must end with exit code 0, 2, 3 or 4, and with a
JSON error object on stderr whenever the code is nonzero: never with a
traceback.  Horizons stay at N <= 64 and Monte Carlo at <= 2000 trials.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgeworth import cli

# values of the wrong type or shape for any field
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2000, 2000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-2, 3), max_size=3),
    st.lists(st.lists(st.floats(-2.0, 2.0), max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


def _field(valid):
    # mostly well-formed, so that most configs get past the first check
    return st.integers(0, 4).flatmap(lambda i: _JUNK if i == 2 else valid)


_FUNCTION = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(["gaussian-bump", "compact-bump", "hermite-damped", "box"]),
        "center": st.floats(-3.0, 3.0),
        "width": st.floats(-1.0, 3.0),
        "degree": st.integers(0, 4),
    },
)

_RUN = st.fixed_dictionaries(
    {
        "order": _field(st.integers(0, 3)),
        "N_list": _field(
            st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True).map(sorted)
        ),
    },
    optional={
        "oracle": _field(st.sampled_from(["dp", "enum", "mc", "cf"])),
        "form": _field(
            st.sampled_from(["classical", "lattice", "weak_local", "weak_global", "averaged", "modal"])
        ),
        "seed": _field(st.integers(-3, 10 ** 6)),
        "trials": _field(st.integers(-2, 2000)),
        "function": _field(_FUNCTION),
        "x": _field(st.floats(-3.0, 3.0)),
        "t_grid": _field(
            st.one_of(
                st.lists(st.floats(0.0, 10.0), max_size=4),
                st.fixed_dictionaries(
                    {},
                    optional={
                        "start": st.floats(0.0, 5.0),
                        "stop": st.floats(0.0, 10.0),
                        "count": st.integers(-1, 8),
                    },
                ),
            )
        ),
        "N": _field(st.integers(-1, 8)),
        "c": _field(st.floats(-1.0, 3.0)),
    },
)

_STOCHASTIC = st.sampled_from(
    [[[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]]
)

_BUNDLED = st.sampled_from(["two_state", "bernoulli", "iid_moments", "diophantine_two_state"])


def _sparse_chain(d=16):
    # two nonzeros per row, 8 * 32 <= 16**2: the chain takes the sparse path
    P = [[0.0] * d for _ in range(d)]
    h = [[0.0] * d for _ in range(d)]
    for j in range(d):
        P[j][(j + 1) % d], h[j][(j + 1) % d] = 0.6, 1.0
        P[j][(7 * j + 2) % d], h[j][(7 * j + 2) % d] = 0.4, 0.25 * (j % 3) - 0.5
    return P, h


_SPARSE_P, _SPARSE_H = _sparse_chain()

_MODEL = st.one_of(
    st.fixed_dictionaries({"bundled": _field(_BUNDLED)}),
    st.fixed_dictionaries(
        {"type": st.just("markov"), "transition": _field(st.just(_SPARSE_P))},
        optional={
            "observable": _field(st.just(_SPARSE_H)),
            "mu0": _field(st.sampled_from([[1.0 / 16] * 16, [1.0] + [0.0] * 15])),
        },
    ),
    # 16 cells: the doubling chain takes the sparse path, the three-branch
    # one (62 nonzeros) the dense path
    st.fixed_dictionaries(
        {
            "type": st.just("ulam"),
            "cells": _field(st.just(16)),
            "map": _field(st.sampled_from(["doubling", "piecewise-linear"])),
            "endpoints": _field(st.just([0.0, 0.3, 0.55, 1.0])),
        },
        optional={"g": _field(st.sampled_from(["cos2pi", "identity", [0.1, 1.0, -0.7]]))},
    ),
    st.fixed_dictionaries(
        {"type": st.just("markov")},
        optional={
            "transition": _field(_STOCHASTIC),
            "observable": _field(st.sampled_from([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.5], [2.5, 0.0]]])),
            "mu0": _field(st.sampled_from([[1.0, 0.0], [0.5, 0.5]])),
        },
    ),
    st.fixed_dictionaries(
        {"type": st.just("iid")},
        optional={
            "pmf": _field(st.sampled_from([[[0.0, 0.5], [1.0, 0.5]], [[-1.0, 0.25], [2.0, 0.75]]])),
            "moments": _field(st.sampled_from([[0.0, 1.0, 0.5, 3.0], [1.0, 2.0]])),
        },
    ),
    _JUNK,
)


def _run(command, doc):
    with tempfile.TemporaryDirectory() as out:
        path = f"{out}/config.json"
        with open(path, "w", encoding="utf-8") as fh:
            # the CLI reads with json.load, which accepts NaN and Infinity
            json.dump(doc, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            # a warning would reach stderr ahead of the JSON error
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main([command, path, "--out", out, "--stamp", "fuzz"])
    return code, stderr.getvalue(), [str(w.message) for w in caught]


def _check(command, doc, error=None):
    code, err, caught = _run(command, doc)
    assert code in (0, 2, 3, 4), (code, err)
    if code:
        assert not caught, caught
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
    if error is not None:
        assert code == 2 and payload["error"] == error, (code, err)


_SETTINGS = settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


_COMMANDS = ["expand", "verify", "diagnose", "moments", "lclt", "moddev"]

# a run that every command accepts, for fuzzing the model document
_PLAIN_RUN = {"order": 1, "N_list": [8, 16], "t_grid": [1.0, 2.0], "seed": 1, "trials": 500}


@pytest.mark.parametrize("command", _COMMANDS)
@_SETTINGS
@given(name=_BUNDLED, run=_RUN)
def test_fuzz_run_fields(command, name, run):
    _check(command, {"model": {"bundled": name}, "run": run})


@pytest.mark.parametrize("command", _COMMANDS)
@settings(_SETTINGS, max_examples=100)
@given(model=_MODEL)
def test_fuzz_model_fields(command, model):
    _check(command, {"model": model, "run": _PLAIN_RUN})


@settings(_SETTINGS, max_examples=40)
@given(run=_JUNK)
def test_fuzz_run_field_of_any_type(run):
    _check("verify", {"model": {"bundled": "two_state"}, "run": run})


def test_fuzz_known_cases():
    # configs that once ended in a traceback, or in a numpy warning ahead
    # of the JSON error, kept as fixed cases
    two_state = {"bundled": "two_state"}
    cases = [
        ("verify", {"model": two_state, "run": {"N_list": 5}}),
        ("verify", {"model": two_state, "run": {"N_list": [8, 16], "function": [1]}}),
        ("verify", {"model": two_state,
                    "run": {"N_list": [8, 16], "oracle": "mc", "seed": -1, "trials": 100}}),
        ("verify", {"model": two_state, "run": {"N_list": [8, 16], "seed": math.inf}}),
        ("moddev", {"model": two_state, "run": {"N_list": [8, 16], "c": 1e300}}),
        ("moddev", {"model": two_state, "run": {"N_list": [8], "c": math.inf}}),
        ("diagnose", {"model": two_state, "run": {"N": math.inf}}),
        ("diagnose", {"model": two_state, "run": {"t_grid": [math.nan]}}),
        ("expand", {"model": {"type": "ulam", "cells": math.inf}, "run": {}}),
        ("expand", {"model": {"type": "iid", "pmf": [[1e300, 1.0]]}, "run": {}}),
    ]
    for command, doc in cases:
        _check(command, doc)
    # a NaN probe is refused by name, before any quadrature runs
    run = {"N_list": [8, 16], "x": math.nan, "form": "averaged"}
    _check("verify", {"model": two_state, "run": run}, error="ValidationError")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x", "function.center", "function.width"])
def test_nonfinite_probe_inputs_are_refused_by_name(field, value):
    # refused before any quadrature runs, not after exhausting its budget
    run = {"N_list": [8, 16], "form": "averaged"}
    if field == "x":
        run["x"] = value
    else:
        run["function"] = {"kind": "gaussian-bump", field.split(".")[1]: value}
    _check("verify", {"model": {"bundled": "two_state"}, "run": run}, error="ValidationError")
