"""Command-line driver: configs, artifacts, determinism, exit codes."""

import csv
import dataclasses
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from chains import sparse_chain_doc
from edgeworth import cli, oracle
from edgeworth.expansion import expansion_for_model


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


TWO_STATE = {"model": {"bundled": "two_state"}, "run": {}}

def test_top_level_help_describes_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    # argparse wraps long help lines; compare with whitespace collapsed
    out = " ".join(capsys.readouterr().out.split())
    for name, fn in cli._COMMANDS.items():
        doc = (fn.__doc__ or "").strip()
        assert doc, name
        assert f"{name} {doc}" in out


# the config overrides each command reads; no command takes another
_KEPT_FLAGS = {"expand": {"order"}, "verify": {"order", "seed", "trials"}, "moments": {"order"}}


@pytest.mark.parametrize("flag", ["order", "seed", "trials"])
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys, command, flag):
    cfg = write_config(tmp_path, TWO_STATE)
    out_dir = tmp_path / "out"
    argv = [command, cfg, "--out", str(out_dir), "--stamp", "s", f"--{flag}", "3"]
    if flag in _KEPT_FLAGS.get(command, ()):
        assert getattr(cli._parser().parse_args(argv), flag) == 3
        return
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "ValidationError" and f"--{flag} 3" in payload["message"]
    assert not out_dir.exists()


def _artifact_text(capsys, command, cfg, out_dir, *flags):
    code, out, err = run_cli(capsys, command, cfg, "--out", str(out_dir), "--stamp", "s", *flags)
    assert code in (0, 4) and "Traceback" not in err
    return code, open(out.strip(), encoding="utf-8").read()


@pytest.mark.parametrize("command,run,other,flags", [
    ("expand", {"order": 1}, {"order": 2}, ["--order", "1"]),
    ("moments", {"order": 1}, {"order": 2}, ["--order", "1"]),
    ("verify", {"order": 0, "N_list": [16, 32], "oracle": "mc", "seed": 5, "trials": 700},
     {"order": 2, "N_list": [16, 32], "oracle": "mc", "seed": 1, "trials": 300},
     ["--order", "0", "--seed", "5", "--trials", "700"]),
])
def test_a_kept_flag_reads_as_its_config_scalar(tmp_path, capsys, command, run, other, flags):
    # flags over a config of other values give the artifact of their values
    model = {"bundled": "two_state"}
    want = _artifact_text(capsys, command, write_config(tmp_path, {"model": model, "run": run}),
                          tmp_path / "config")
    got = _artifact_text(
        capsys, command, write_config(tmp_path, {"model": model, "run": other}, "other.json"),
        tmp_path / "flags", *flags)
    assert got == want


# -------------------------------------------------------------------- expand


def test_expand_two_state_report(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"bundled": "two_state"}, "run": {"order": 2}})
    code, out, err = run_cli(
        capsys, "expand", cfg, "--out", str(tmp_path), "--stamp", "s1"
    )
    assert code == 0 and err == ""
    path = out.strip()
    assert os.path.basename(path) == "expand-a45aa1652a71-s1.json"
    report = json.loads(open(path).read())
    assert abs(report["A"] - 0.4) <= 1e-13
    assert abs(report["sigma2"] - 102.0 / 175.0) <= 1e-13
    assert report["order"] == 2
    assert len(report["cdf_polys"]) == 2
    assert len(report["density_polys"]) == 3
    assert report["density_polys"][0] == [1.0]


def test_expand_skewed_iid_first_cdf_polynomial(tmp_path, capsys):
    # centered unit-variance summands with third moment one give
    # P1(x) = (1 - x^2) / 6
    cfg = write_config(
        tmp_path,
        {"model": {"type": "iid", "moments": [0.0, 1.0, 1.0]}, "run": {"order": 1}},
    )
    code, out, _ = run_cli(capsys, "expand", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    report = json.loads(open(out.strip()).read())
    p1 = report["cdf_polys"][0]
    assert len(p1) == 3
    assert abs(p1[0] - 1.0 / 6.0) <= 1e-15
    assert p1[1] == 0.0
    assert abs(p1[2] + 1.0 / 6.0) <= 1e-15


def test_expand_symmetric_iid_vanishing_correction(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"model": {"type": "iid", "moments": [0.0, 1.0, 0.0]}, "run": {"order": 1}},
    )
    code, out, _ = run_cli(capsys, "expand", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    report = json.loads(open(out.strip()).read())
    assert all(c == 0.0 for c in report["cdf_polys"][0])


def test_expand_order_eight_on_nonlattice_chain(tmp_path, capsys):
    # every A_p with p >= 1 has a zero constant term, so P_p exists at the
    # largest order the command accepts
    cfg = write_config(
        tmp_path, {"model": {"bundled": "diophantine_two_state"}, "run": {"order": 8}}
    )
    code, out, err = run_cli(capsys, "expand", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0 and err == ""
    report = json.loads(open(out.strip()).read())
    assert len(report["cdf_polys"]) == 8


def test_expand_byte_identical_reruns(tmp_path, capsys):
    cfg = write_config(tmp_path, TWO_STATE)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code, out1, _ = run_cli(capsys, "expand", cfg, "--out", str(out_a), "--stamp", "x")
    assert code == 0
    code, out2, _ = run_cli(capsys, "expand", cfg, "--out", str(out_b), "--stamp", "x")
    assert code == 0
    a = open(out1.strip(), "rb").read()
    b = open(out2.strip(), "rb").read()
    assert a == b


# the fields that hold real numbers; the others hold integers
_REAL_FIELDS = {"transition", "observable", "mu0", "pmf", "moments", "endpoints", "g",
                "x", "c", "center", "width", "t_grid", "start", "stop"}


def _floated(node, real=False):
    """``node`` with every int in a real field written as a float."""
    if isinstance(node, dict):
        return {k: _floated(v, k in _REAL_FIELDS) for k, v in node.items()}
    if isinstance(node, list):
        return [_floated(v, real) for v in node]
    return float(node) if real and type(node) is int else node


_CHAIN = {"type": "markov", "transition": [[0.5, 0.5], [1, 0]],
          "observable": [[0, 1], [2, 0]], "mu0": [1, 0]}


@pytest.mark.parametrize("command, doc", [
    ("expand", {"model": _CHAIN, "run": {"order": 2}}),
    ("verify", {"model": _CHAIN, "run": {"order": 1, "N_list": [8, 16], "form": "averaged",
                                         "x": 1, "function": {"center": 0, "width": 2}}}),
    ("diagnose", {"model": _CHAIN, "run": {"t_grid": [1, 2, 3]}}),
    ("diagnose", {"model": _CHAIN, "run": {"t_grid": {"start": 1, "stop": 3, "count": 3}}}),
    ("moddev", {"model": _CHAIN, "run": {"N_list": [16, 64], "c": 1}}),
    ("expand", {"model": {"type": "iid", "pmf": [[0, 0.5], [2, 0.25], [3, 0.25]]}, "run": {}}),
    ("moments", {"model": {"type": "iid", "moments": [0, 1, 0, 3]}, "run": {"order": 2}}),
    ("expand", {"model": {"type": "ulam", "cells": 16, "map": "piecewise-linear",
                          "endpoints": [0, 0.25, 1], "g": [0, 1, -1]}, "run": {"order": 1}}),
], ids=["expand-markov", "verify-averaged", "diagnose-list", "diagnose-range", "moddev",
        "expand-pmf", "moments-iid", "expand-ulam"])
def test_integer_valued_numbers_write_the_artifacts_of_their_float_twin(
        tmp_path, capsys, command, doc):
    # a real field reads 1 and 1.0 alike; the artifact names hash the
    # model document, and _json_dumps writes both as "1"
    twin = _floated(doc)
    assert json.dumps(twin) != json.dumps(doc)
    runs = []
    for name, config in (("int", doc), ("float", twin)):
        cfg = write_config(tmp_path, config, name=f"{name}.json")
        out_dir = tmp_path / name
        code, out, err = run_cli(capsys, command, cfg, "--out", str(out_dir), "--stamp", "s")
        assert code in (0, 4), err
        files = sorted(os.listdir(out_dir))
        runs.append((code, files, [(out_dir / f).read_bytes() for f in files]))
    assert runs[0] == runs[1]


def test_expand_order_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"bundled": "two_state"}, "run": {"order": 2}})
    code, out, _ = run_cli(
        capsys, "expand", cfg, "--out", str(tmp_path), "--stamp", "s", "--order", "1"
    )
    assert code == 0
    report = json.loads(open(out.strip()).read())
    assert report["order"] == 1
    assert len(report["cdf_polys"]) == 1


def test_expand_default_stamp_is_utc_token(tmp_path, capsys):
    cfg = write_config(tmp_path, TWO_STATE)
    code, out, _ = run_cli(capsys, "expand", cfg, "--out", str(tmp_path))
    assert code == 0
    name = os.path.basename(out.strip())
    assert re.fullmatch(r"expand-[0-9a-f]{12}-\d{8}T\d{6}Z\.json", name)


# -------------------------------------------------------------------- verify


def verify_config(tmp_path, **run):
    doc = {"model": {"bundled": "two_state"}, "run": dict(run)}
    return write_config(tmp_path, doc)


def test_verify_lattice_ladder_passes(tmp_path, capsys):
    cfg = verify_config(tmp_path, order=1, N_list=[64, 256, 1024], form="lattice")
    code, out, err = run_cli(
        capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s"
    )
    assert code == 0 and err == ""
    rows = read_rows(out.strip())
    assert rows[0] == ["N", "raw_error", "scaled_error"]
    assert [r[0] for r in rows[1:]] == ["64", "256", "1024"]
    scaled = [float(r[2]) for r in rows[1:]]
    assert scaled[0] > scaled[1] > scaled[2]
    for raw, n, s in zip((float(r[1]) for r in rows[1:]), (64, 256, 1024), scaled):
        assert abs(s - raw * math.sqrt(n)) <= 1e-12 * max(1.0, abs(s))


def test_verify_csv_uses_lf_line_endings(tmp_path, capsys):
    cfg = verify_config(tmp_path, order=0, N_list=[64, 256])
    code, out, _ = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    blob = open(out.strip(), "rb").read()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")


def test_verify_verdict_failure_still_writes_csv(tmp_path, capsys):
    # symmetric Bernoulli summands: the first correction vanishes, so the
    # scaled classical error stalls at the lattice floor and the verdict
    # must come back negative
    doc = {
        "model": {"type": "iid", "pmf": [[0.0, 0.5], [1.0, 0.5]]},
        "run": {"order": 1, "N_list": [16, 32], "form": "classical"},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 4
    assert os.path.exists(out.strip())
    payload = json.loads(err)
    assert payload["error"] == "VerdictFailure"
    assert "not strictly decreasing" in payload["message"]


def test_verify_oracle_budget_exhaustion_exits_three(tmp_path, capsys):
    doc = {
        "model": {"bundled": "diophantine_two_state"},
        "run": {"order": 1, "N_list": [8, 3200], "oracle": "dp"},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 3
    assert json.loads(err)["error"] == "TableTooLarge"


def test_verify_mc_beyond_the_trial_budget_exits_three(tmp_path, capsys, monkeypatch):
    # refused before the sample is allocated: 10**10 trials are about 250 GB
    def no_sample(*args, **kwargs):
        raise AssertionError("the sample was allocated")

    monkeypatch.setattr(oracle.mmap, "mmap", no_sample)
    doc = {
        "model": {"bundled": "doubling_ulam"},
        "run": {"order": 1, "N_list": [16, 32], "oracle": "mc",
                "seed": 1, "trials": 10 ** 10},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "OracleInfeasible"
    assert "budget" in payload["message"]


@pytest.mark.parametrize(
    "run, want",
    [({"oracle": "mc", "seed": 1, "trials": 10 ** 10}, (3, "OracleInfeasible")),
     ({"oracle": "dp", "form": "lattice"}, (2, "ValidationError")),
     ({"form": "averaged", "function": {"width": 1e308}}, (2, "ValidationError")),
     ({"form": "weak_global", "function": {"kind": "hermite-damped", "degree": 30}},
      (2, "ValidationError"))],
    ids=["trial-budget", "lattice-form-on-nonlattice-model", "support-overflows",
         "hermite-degree-30"],
)
def test_refused_verify_leaves_no_output_directory(tmp_path, capsys, monkeypatch, run, want):
    # all are refused after the model is built; the directory used to be
    # made before the command ran.  The last two would run the fixed
    # quadrature into NaN or cancellation, so the test function refuses them
    def no_sample(*args, **kwargs):
        raise AssertionError("the sample was allocated")

    monkeypatch.setattr(oracle.mmap, "mmap", no_sample)
    doc = {"model": {"bundled": "diophantine_two_state"},
           "run": {"order": 1, "N_list": [8, 16], **run}}
    cfg = write_config(tmp_path, doc)
    out_dir = tmp_path / "refused" / "out"
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(out_dir), "--stamp", "s")
    assert (code, json.loads(err)["error"]) == want and out == ""
    assert not (tmp_path / "refused").exists()


_HUGE_IID = {"type": "iid", "pmf": [[0, 0.5], [1e308, 0.5]]}


@pytest.mark.parametrize(
    "command, doc, message",
    [("expand", {"model": _HUGE_IID, "run": {}}, "operator family overflows"),
     ("moments", {"model": _HUGE_IID, "run": {}}, "operator family overflows"),
     # a NaN frequency is refused by the reader of run.t_grid, before the scan
     ("diagnose", {"model": {"bundled": "doubling_ulam"}, "run": {"t_grid": [0.5, math.nan]}},
      "run.t_grid holds NaN"),
     # a finite frequency whose scan is not: refused when the artifact is written
     ("diagnose", {"model": {"bundled": "doubling_ulam"}, "run": {"t_grid": [0.5, 1e308]}},
      "cannot serialize a non-finite number")],
    ids=["expand-non-finite", "moments-non-finite", "diagnose-nan-frequency",
         "diagnose-huge-frequency"],
)
def test_refused_artifact_leaves_no_output_directory(tmp_path, capsys, command, doc, message):
    # no refused command leaves its --out directory behind: each artifact
    # used to be opened before it was formatted, and left a truncated file.
    # Only the huge frequency reaches the refusal of a value that cannot be
    # written, once the command has run; the others are refused on reading
    cfg = write_config(tmp_path, doc)
    out_dir = tmp_path / "refused" / "out"
    code, out, err = run_cli(capsys, command, cfg, "--out", str(out_dir), "--stamp", "s")
    payload = json.loads(err)
    assert (code, payload["error"]) == (2, "ValidationError") and out == ""
    assert payload["message"].startswith(message), payload
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("where", ["under-a-file", "empty"])
def test_unwritable_output_directory_exits_two(tmp_path, capsys, where):
    # makedirs under a regular file, or of "", used to end in a traceback
    # with exit 1
    cfg = write_config(tmp_path, TWO_STATE)
    (tmp_path / "file").write_text("", encoding="utf-8")
    out_dir = str(tmp_path / "file" / "x") if where == "under-a-file" else ""
    code, out, err = run_cli(capsys, "expand", cfg, "--out", out_dir, "--stamp", "s")
    assert (code, json.loads(err)["error"]) == (2, "ValidationError") and out == ""
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["config.json", "file"]


def test_unwritable_second_artifact_removes_the_first(tmp_path, capsys):
    # diagnose writes its CSV, then fails to open its JSON path, a directory
    doc = {"model": {"bundled": "two_state"}, "run": {"t_grid": [0.5, 1.0]}}
    cfg = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    json_path = cli._artifact_path(str(out_dir), "diagnose", doc["model"], "s", "json")
    os.makedirs(json_path)
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(out_dir), "--stamp", "s")
    assert (code, json.loads(err)["error"]) == (2, "ValidationError") and out == ""
    assert os.listdir(out_dir) == [os.path.basename(json_path)]


_OVERFLOWING_IID = {"type": "iid", "pmf": [[1.7e308, 0.9], [-1.7e308, 0.1]]}


@pytest.mark.parametrize("command", ["expand", "verify"])
def test_an_operator_family_that_overflows_is_refused_by_name(tmp_path, capsys, command):
    # h**2 / 2 overflows; the jets once gave sigma2 = nan, and the run was
    # refused only when the artifact was written ("cannot serialize")
    doc = {"model": _OVERFLOWING_IID, "run": {"order": 0, "N_list": [1]}}
    cfg = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, command, cfg, "--out", str(out_dir), "--stamp", "s")
    assert (code, json.loads(err)["error"]) == (2, "ValidationError") and out == ""
    assert json.loads(err)["message"].startswith("operator family overflows")
    assert not out_dir.exists()


def test_verify_refuses_a_standardized_support_that_overflows(tmp_path, capsys, monkeypatch):
    # N A = 1.36e308 at N = 1 beside the same law: the lower atom
    # standardizes to -inf.  The family of that law overflows first, so the
    # expansion is a finite one with its drift set to that value
    exp_set = cli.expansion_for_model(cli.models.iid_model(pmf=[[1.0, 0.9], [-1.0, 0.1]]), 0)
    exp_set = dataclasses.replace(exp_set, params=dataclasses.replace(exp_set.params, A=1.36e308))
    monkeypatch.setattr(cli, "expansion_for_model", lambda model, r: exp_set)
    doc = {"model": _OVERFLOWING_IID, "run": {"order": 0, "N_list": [1]}}
    cfg = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(out_dir), "--stamp", "s")
    assert (code, json.loads(err)["error"]) == (2, "ValidationError") and out == ""
    assert "standardized support overflows" in json.loads(err)["message"]
    assert not out_dir.exists()


def test_verify_writes_into_a_new_nested_output_directory(tmp_path, capsys):
    cfg = verify_config(tmp_path, order=0, N_list=[64, 256])
    out_dir = tmp_path / "a" / "b"
    code, out, _ = run_cli(capsys, "verify", cfg, "--out", str(out_dir), "--stamp", "s")
    assert code == 0
    path = out.strip()
    assert os.path.dirname(path) == str(out_dir)
    assert [row[0] for row in read_rows(path)] == ["N", "64", "256"]


def test_verify_mc_on_a_power_of_two_branch_map_exits_three(tmp_path, capsys):
    # float orbits of the x4 map collapse onto 0; the oracle refuses, where
    # its sample would have failed the verdict
    doc = {
        "model": {"type": "ulam", "cells": 64, "map": "piecewise-linear",
                  "endpoints": [0.0, 0.25, 0.5, 0.75, 1.0]},
        "run": {"order": 0, "N_list": [16, 32, 64, 128], "oracle": "mc",
                "seed": 1, "trials": 20000},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "OracleUnavailable"
    assert '"doubling" map kind' in payload["message"]


@pytest.mark.parametrize("oracle", ["dp", "mc"])
def test_verify_lattice_form_on_nonlattice_model_exits_two(tmp_path, capsys, oracle):
    doc = {
        "model": {"bundled": "diophantine_two_state"},
        "run": {"order": 1, "N_list": [8, 16], "oracle": oracle, "form": "lattice",
                "seed": 1, "trials": 1000},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert "lattice model" in payload["message"]


def test_verify_degenerate_variance_exits_two(tmp_path, capsys):
    doc = {
        "model": {
            "type": "markov",
            "transition": [[0.6, 0.4], [0.3, 0.7]],
            "observable": [[5.0, 5.0], [5.0, 5.0]],
        },
        "run": {"order": 1, "N_list": [16, 32]},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2
    assert json.loads(err)["error"] == "DegenerateVariance"


# -------------------------------------------------------------- bad configs


@pytest.mark.parametrize(
    "doc",
    [
        {"run": {}},
        {"model": {"bundled": "five_state"}, "run": {}},
        {"model": {"type": "trellis"}, "run": {}},
        {"model": {"type": "iid"}, "run": {}},
        {"model": {"bundled": ["two_state"]}, "run": {}},
        {"model": {"type": "ulam", "cells": 16, "density": [1, 2]}, "run": {}},
        {"model": {"type": "ulam", "cells": 16, "density": "uniform"}, "run": {}},
        {"model": {"type": "ulam", "cells": 10**9}, "run": {}},
        {"model": {"type": "ulam", "cells": 16, "g": [1, "z"]}, "run": {}},
        {"model": {"type": "ulam", "cells": 16, "g": []}, "run": {}},
        {
            "model": {
                "type": "ulam",
                "cells": 16,
                "map": "piecewise-linear",
                "endpoints": ["a", "b"],
            },
            "run": {},
        },
        {
            "model": {
                "type": "ulam",
                "cells": 16,
                "map": "piecewise-linear",
                "endpoints": [0, 0.3, "x", 1],
            },
            "run": {},
        },
        {
            "model": {"type": "ulam", "cells": 16, "map": "piecewise-linear", "endpoints": 5},
            "run": {},
        },
        {
            "model": {
                "type": "markov",
                "transition": [[0.5, 0.5], [0.5, 0.5]],
                "observable": [[1, "a"], [0, 1]],
            },
            "run": {},
        },
        {
            "model": {
                "type": "markov",
                "transition": [[0.5, 0.5], [0.5, 0.5]],
                "observable": [[1, 0], [0, 1]],
                "mu0": ["a", 1],
            },
            "run": {},
        },
        {"model": {"type": "markov", "transition": 5, "observable": 5}, "run": {}},
        {"model": {"type": "markov", "transition": [], "observable": []}, "run": {}},
        {"model": {"type": "iid", "moments": [1, "x"]}, "run": {}},
        {"model": {"type": "iid", "moments": [[1, 2], [3, 4]]}, "run": {}},
        {"model": {"type": "iid", "pmf": [["a", 0.5], [1, 0.5]]}, "run": {}},
    ],
)
def test_invalid_model_documents_exit_two(tmp_path, capsys, doc):
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "expand", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize(
    "run",
    [
        {"order": 9, "N_list": [16, 32]},
        {"order": 1},
        {"order": 1, "N_list": [32, 16]},
        {"order": 1, "N_list": [16, 32], "oracle": "mc"},
        {"order": 1, "N_list": [16, 32], "oracle": "abacus"},
        # "enum" was a second name for the "dp" dynamic program
        {"order": 1, "N_list": [16, 32], "oracle": "enum"},
    ],
)
def test_invalid_run_documents_exit_two(tmp_path, capsys, run):
    cfg = write_config(tmp_path, {"model": {"bundled": "two_state"}, "run": run})
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize(
    "field, value",
    [("seed", True), ("trials", True), ("seed", 2.9), ("seed", "12"), ("trials", 1e3),
     ("trials", "100")],
    ids=["bool-seed", "bool-trials", "float-seed", "string-seed", "float-trials",
         "string-trials"],
)
def test_mc_seed_and_trials_must_be_integers(tmp_path, capsys, field, value):
    # int() took each of these: "seed": true and "trials": true ran a
    # one-trial sample with seed 1 and exited 4, blaming the expansion
    run = {"order": 1, "N_list": [16, 32], "oracle": "mc", "seed": 1, "trials": 500}
    run[field] = value
    cfg = write_config(tmp_path, {"model": {"bundled": "two_state"}, "run": run})
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert field in payload["message"]


def test_exact_oracle_refuses_a_non_integer_seed(tmp_path, capsys):
    # the seed of an exact oracle is unused, but a malformed one is still refused
    run = {"order": 1, "N_list": [16, 32], "oracle": "dp", "seed": 2.9}
    cfg = write_config(tmp_path, {"model": {"bundled": "two_state"}, "run": run})
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


_WEAK = {"order": 1, "N_list": [16, 32], "form": "weak_global"}


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("verify", {"run": {"order": 1.0, "N_list": [16, 32]}}, "order"),
        ("verify", {"run": {"order": True, "N_list": [16, 32]}}, "order"),
        ("verify", {"run": {"order": 1, "N_list": [16.0, 32]}}, "N_list"),
        ("verify", {"run": {"order": 1, "N_list": [True, 32]}}, "N_list"),
        ("diagnose", {"run": {"N": 2.7}}, "N"),
        ("diagnose", {"run": {"N": True}}, "N"),
        ("diagnose", {"run": {"t_grid": {"count": 8.0}}}, "count"),
        ("diagnose", {"run": {"t_grid": {"count": True}}}, "count"),
        ("expand", {"model": {"type": "ulam", "cells": 16.9}, "run": {}}, "cells"),
        ("verify", {"run": dict(_WEAK, function={"kind": "hermite-damped", "degree": 2.9})},
         "degree"),
        ("verify", {"run": dict(_WEAK, function={"kind": "hermite-damped", "degree": True})},
         "degree"),
        ("verify", {"run": dict(_WEAK, function={"kind": "hermite-damped", "degree": -1})},
         "degree"),
    ],
)
def test_integer_fields_must_be_integers_in_range(tmp_path, capsys, command, doc, field):
    # int() took the floats and bools and ran with the truncated value;
    # numpy refused the negative Hermite degree with a traceback
    cfg = write_config(tmp_path, {"model": {"bundled": "two_state"}, **doc})
    code, out, err = run_cli(capsys, command, cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert field in payload["message"]


def test_importing_the_package_does_not_load_openssl(tmp_path):
    # hashlib maps libcrypto; the CLI names its artifacts with CPython's own
    # SHA-256, so neither importing the package nor running any command on
    # an exact oracle loads it (numpy.random does, for a Monte Carlo run)
    import hashlib
    import subprocess
    import sys

    import edgeworth

    src = os.path.dirname(os.path.dirname(os.path.abspath(edgeworth.__file__)))
    runs = [
        ("expand", {"model": {"bundled": "two_state"}, "run": {"order": 2}}),
        ("moments", {"model": {"bundled": "iid_moments"}, "run": {"order": 2}}),
        ("verify", {"model": {"bundled": "two_state"},
                    "run": {"order": 1, "form": "lattice", "N_list": [16, 64]}}),
        ("diagnose", {"model": {"bundled": "diophantine_two_state"},
                      "run": {"t_grid": {"count": 8}}}),
        ("lclt", {"model": {"bundled": "three_state_lattice"},
                  "run": {"order": 2, "N_list": [64, 256]}}),
        ("moddev", {"model": {"bundled": "two_state"}, "run": {"order": 2, "N_list": [256]}}),
    ]
    argv = []
    for i, (command, doc) in enumerate(runs):
        cfg = write_config(tmp_path, doc, name=f"{command}.json")
        argv.append([command, cfg, "--out", str(tmp_path / "out"), "--stamp", str(i)])
    code = (
        "import contextlib, io, json, sys, edgeworth, edgeworth.cli, edgeworth.evaluate\n"
        "def loaded():\n"
        "    return sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules)\n"
        "on_import, out = loaded(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    codes = [edgeworth.cli.main(a) for a in json.loads(sys.argv[1])]\n"
        "print(json.dumps([on_import, codes, out.getvalue().split(), loaded()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], capture_output=True,
                          text=True, env=env, check=True, timeout=120)
    loaded_on_import, codes, paths, loaded_after_runs = json.loads(done.stdout)
    assert loaded_on_import == [] and loaded_after_runs == []
    assert codes == [0] * len(runs)
    # one artifact per command, two for diagnose, each named by the
    # SHA-256 of its canonical model JSON
    assert len(paths) == len(runs) + 1
    for path in paths:
        command, digest, stamp = os.path.basename(path).split(".")[0].split("-")
        doc = runs[int(stamp)][1]["model"]
        assert command == runs[int(stamp)][0]
        assert digest == hashlib.sha256(cli._json_dumps(doc).encode()).hexdigest()[:12]


def test_importing_the_package_does_not_load_numpy_polynomial():
    # the quadrature nodes come from numpy.polynomial on the first integral;
    # numpy 1.x imports the module with numpy itself, so compare with that
    import subprocess
    import sys

    import edgeworth

    src = os.path.dirname(os.path.dirname(os.path.abspath(edgeworth.__file__)))
    code = ("import sys, numpy; before = 'numpy.polynomial' in sys.modules; "
            "import edgeworth, edgeworth.cli, edgeworth.evaluate; "
            "print(before == ('numpy.polynomial' in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert done.stdout.strip() == "True"


def test_commands_do_not_load_numpy_ma(tmp_path):
    # np.unique and np.union1d import numpy.ma to ask whether a float
    # array is masked; the sorted distinct values come from
    # oracle._distinct instead.  numpy 1.x imports numpy.ma with numpy
    # itself, so compare with that
    import subprocess
    import sys

    import edgeworth

    src = os.path.dirname(os.path.dirname(os.path.abspath(edgeworth.__file__)))
    runs = [
        ("verify", {"model": {"bundled": "two_state"},
                    "run": {"order": 1, "form": "lattice", "oracle": "dp", "N_list": [16, 64]}}),
        ("expand", {"model": {"bundled": "doubling_ulam"}, "run": {"order": 2}}),
        ("verify", {"model": {"bundled": "doubling_ulam"},
                    "run": {"order": 0, "form": "classical", "oracle": "mc",
                            "N_list": [16, 32], "trials": 20000, "seed": 1}}),
    ]
    argv = []
    for i, (command, doc) in enumerate(runs):
        cfg = write_config(tmp_path, doc, name=f"{command}{i}.json")
        argv.append([command, cfg, "--out", str(tmp_path / "out"), "--stamp", str(i)])
    code = (
        "import contextlib, io, json, sys, numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "import edgeworth.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [edgeworth.cli.main(a) for a in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, before == ('numpy.ma' in sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], capture_output=True,
                          text=True, env=env, check=True, timeout=120)
    codes, unchanged = json.loads(done.stdout)
    assert codes == [0] * len(runs)
    assert unchanged


def test_unreadable_config_exits_two(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "expand", str(tmp_path / "missing.json"), "--out", str(tmp_path)
    )
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "expand", str(bad), "--out", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize(
    "command, doc",
    [
        (
            "verify",
            {
                "model": {"bundled": "two_state"},
                "run": {
                    "order": 1,
                    "N_list": [16, 32],
                    "form": "averaged",
                    "function": {"kind": "gaussian-bump", "width": "wide"},
                },
            },
        ),
        ("diagnose", {"model": {"bundled": "two_state"}, "run": {"t_grid": {"count": -3}}}),
        ("diagnose", {"model": {"bundled": "two_state"}, "run": {"t_grid": {"count": 0}}}),
        ("diagnose", {"model": {"bundled": "two_state"}, "run": {"N": "many"}}),
        ("diagnose", {"model": {"bundled": "two_state"}, "run": {"N": 0}}),
        (
            "expand",
            {
                "model": {
                    "type": "markov",
                    "transition": [[0.5, 0.5], [1.0]],
                    "observable": [[0.0, 1.0], [1.0, 0.0]],
                },
                "run": {},
            },
        ),
        ("expand", {"model": {"type": "ulam", "cells": "many"}, "run": {}}),
        ("expand", {"model": {"type": "iid", "pmf": [[0.0, 0.5, 1.0]]}, "run": {}}),
        # refused before np.linspace asks for 8 GB, or a listed grid is read
        ("diagnose", {"model": {"bundled": "two_state"}, "run": {"t_grid": {"count": 10 ** 9}}}),
        ("diagnose", {"model": {"bundled": "two_state"},
                      "run": {"t_grid": [1.0] * (cli._MAX_T_GRID + 1)}}),
    ],
)
def test_non_numeric_config_values_exit_two(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, command, cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_observable_exits_two(tmp_path, capsys, bad):
    doc = {
        "model": {
            "type": "markov",
            "transition": [[0.5, 0.5], [0.5, 0.5]],
            "observable": [[0.0, bad], [1.0, 0.0]],
        },
        "run": {},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "expand", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


def test_verify_enum_on_ulam_exits_three(tmp_path, capsys):
    doc = {
        "model": {"bundled": "doubling_ulam"},
        "run": {"order": 1, "N_list": [4, 8], "oracle": "dp", "form": "classical"},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 3
    assert json.loads(err)["error"] == "TableTooLarge"


def test_verify_dp_on_jet_only_model_exits_three(tmp_path, capsys):
    doc = {
        "model": {"bundled": "iid_moments"},
        "run": {"order": 1, "N_list": [16, 32], "oracle": "dp"},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 3
    assert json.loads(err)["error"] == "OracleUnavailable"


# ------------------------------------------------------------------ diagnose


def test_diagnose_two_state_report(tmp_path, capsys):
    doc = {
        "model": {"bundled": "two_state"},
        "run": {"t_grid": [1.0, 6.283185307179586]},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0 and err == ""
    csv_path, json_path = out.strip().splitlines()
    rows = read_rows(csv_path)
    assert rows[0] == ["t", "char_distance", "norm_power", "radius"]
    assert len(rows) == 3
    report = json.loads(open(json_path).read())
    assert abs(report["gap"] - 0.7) <= 1e-9
    assert report["lattice_span"] == 1.0
    assert report["diophantine"] is None
    # unit radius at t = 2 pi is the lattice signature, not a defect
    assert float(rows[2][3]) >= 1.0 - 1e-9
    assert "radius-one-lattice-consistent" in report["flags"]


def test_diagnose_flags_unit_radius_off_the_lattice_frequencies(tmp_path, capsys):
    # three_state_lattice has span 1 but a hidden mod-2 periodicity, so its
    # radius is also 1 at t = pi, which is no multiple of 2 pi / span
    doc = {
        "model": {"bundled": "three_state_lattice"},
        "run": {"t_grid": [0.5, 1.0, math.pi, 2.0 * math.pi]},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    csv_path, json_path = out.strip().splitlines()
    assert float(read_rows(csv_path)[3][3]) >= 1.0 - 1e-9
    report = json.loads(open(json_path).read())
    assert report["flags"] == ["radius-one-lattice-consistent", "radius-one-off-lattice"]
    # without t = pi only the lattice-consistent flag remains
    doc["run"]["t_grid"] = [0.5, 1.0, 2.0 * math.pi]
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "t")
    report = json.loads(open(out.strip().splitlines()[1]).read())
    assert report["flags"] == ["radius-one-lattice-consistent"]


def test_diagnose_identity_like_chain_completes_with_flag(tmp_path, capsys):
    near = 1.0 - 1e-10
    doc = {
        "model": {
            "type": "markov",
            "transition": [[near, 1e-10], [1e-10, near]],
            "observable": [[0.0, 1.0], [1.0, 0.0]],
        },
        "run": {"t_grid": [1.0]},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    report = json.loads(open(out.strip().splitlines()[1]).read())
    assert report["gap"] is None
    assert "gap-below-tolerance" in report["flags"]


def test_diagnose_reducible_chain_completes_with_flag(tmp_path, capsys):
    doc = {
        "model": {
            "type": "markov",
            "transition": [[1.0, 0.0], [0.0, 1.0]],
            "observable": [[0.0, 1.0], [1.0, 0.0]],
        },
        "run": {"t_grid": [1.0]},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    report = json.loads(open(out.strip().splitlines()[1]).read())
    assert report["gap"] is None
    assert "stationary-not-unique" in report["flags"]


def test_diagnose_records_a_resonant_observable_in_the_report(tmp_path, capsys):
    # S_N = 0 on this chain: d(s) vanishes, which the report flags, and
    # stderr, kept for JSON errors, stays empty on the successful run
    doc = {
        "model": {
            "type": "markov",
            "transition": [[1.0, 0.0], [0.0, 1.0]],
            "observable": [[0.0, 1.0], [1.0, 0.0]],
        },
        "run": {"t_grid": [1.0, 2.5]},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    assert err == ""
    report = json.loads(open(out.strip().splitlines()[1]).read())
    assert "resonant-observable" in report["flags"]
    assert report["diophantine"] == {"K": 0.0, "beta": 0.0, "residual": 0.0}
    # a non-resonant chain carries no such flag
    code, out, err = run_cli(capsys, "diagnose", write_config(tmp_path, {
        "model": {"bundled": "diophantine_two_state"}, "run": {"t_grid": [1.0, 2.5]}}),
        "--out", str(tmp_path), "--stamp", "s")
    assert code == 0 and err == ""
    report = json.loads(open(out.strip().splitlines()[1]).read())
    assert "resonant-observable" not in report["flags"]


def test_diagnose_ulam_gap_is_exact(tmp_path, capsys):
    # the sparse deflated iteration of the doubling chain reaches 0 after
    # log2(cells) steps; the dense power iteration read rounding noise
    doc = {"model": {"type": "ulam", "cells": 256}, "run": {"t_grid": [1.0]}}
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    report = json.loads(open(out.strip().splitlines()[1]).read())
    assert abs(report["gap"] - 1.0) <= 1e-12


def _two_doubling_blocks_doc(eps):
    # 128 states, 3 nonzeros per row (the sparse path): two doubling blocks
    # joined by jumps of probability eps to the mirror state, gap 2 eps
    half, d = 64, 128
    j = np.arange(half)
    P = np.zeros((d, d))
    h = np.zeros((d, d))
    for blk in (0, half):
        for t in (0, 1):
            P[blk + j, blk + (2 * j + t) % half] += (1.0 - eps) / 2.0
            h[blk + j, blk + (2 * j + t) % half] = t + j / half
        P[blk + j, (blk + half) % d + j] += eps
    return {"type": "markov", "transition": P.tolist(), "observable": h.tolist()}


def test_sparse_nearly_disconnected_chain_is_refused_by_name(tmp_path, capsys):
    model = _two_doubling_blocks_doc(1e-10)
    cfg = write_config(tmp_path, {"model": model, "run": {"order": 1}})
    code, out, err = run_cli(capsys, "expand", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "GapBelowTolerance"
    cfg = write_config(tmp_path, {"model": model, "run": {"t_grid": [1.0]}})
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    report = json.loads(open(out.strip().splitlines()[1]).read())
    assert report["gap"] is None and "gap-below-tolerance" in report["flags"]


@pytest.mark.parametrize("model", [
    {"type": "ulam", "map": "piecewise-linear", "endpoints": [0.0, 0.3, 0.7, 1.0], "cells": 64},
    sparse_chain_doc(),
])
def test_diagnose_never_forms_the_transition_matrix(tmp_path, capsys, monkeypatch, model):
    # the chain is stored on its nonzeros; a d x d array of them with unit
    # row sums is the transition matrix, which diagnose must not form.  This
    # sees it only when formed through SparseMatrix.toarray, not by scatter
    # into a zero array; the next test bounds the memory of all of diagnose
    toarray = cli.spectral.SparseMatrix.toarray

    def refuse_stochastic(self):
        sums = np.bincount(self.rows, weights=self.values, minlength=self.dim)
        if np.allclose(sums, 1.0):
            raise AssertionError("diagnose formed the d x d transition matrix")
        return toarray(self)

    monkeypatch.setattr(cli.spectral.SparseMatrix, "toarray", refuse_stochastic)
    cfg = write_config(tmp_path, {"model": model, "run": {"t_grid": [1.0, 2.5], "N": 3}})
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0 and err == ""
    report = json.loads(open(out.strip().splitlines()[1]).read())
    assert report["gap"] > 0.0


def test_diagnose_of_a_lattice_chain_allocates_no_dense_matrix(tmp_path, capsys):
    # one d x d array of the 4096-cell chain is 128 MiB; all of diagnose
    # peaked at 2.1 MiB.  The chain is a lattice one (h = 2 on every entry),
    # so the resonance scan does not run; the next test bounds diagnose on
    # a non-lattice chain at the cap
    model = {"type": "ulam", "cells": 4096, "g": [2.0]}
    cfg = write_config(tmp_path, {"model": model, "run": {}})
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert json.loads(open(out.strip().splitlines()[1]).read())["lattice_span"] == 2.0
    assert peak < 16 * 2 ** 20


def test_diagnose_of_a_nonlattice_chain_at_the_cap_allocates_no_dense_matrix(tmp_path, capsys):
    # the resonance scan read the rewards as a d x d array, with sorted
    # copies of it: diagnose peaked at 530 MiB; it now reads them
    # from the entries, one middle state at a time, and peaked at 3.3 MiB
    model = {"type": "ulam", "cells": 4096}
    cfg = write_config(tmp_path, {"model": model, "run": {}})
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    report = json.loads(open(out.strip().splitlines()[1]).read())
    assert report["lattice_span"] is None and report["diophantine"] is not None
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("doc", [
    {"model": {"bundled": "doubling_ulam"}, "run": {}},
    {"model": sparse_chain_doc(), "run": {"N": 2}},
])
def test_diagnose_flags_a_norm_without_contraction(tmp_path, capsys, doc):
    # every target of L_t^2 is reached by one path, so ||L_t^2|| is 1 up to
    # rounding where d(t) > 0, and the fitted theta was rounding (-8.9e-16
    # on doubling_ulam, -4.7e-14 on the 16-state chain)
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0 and err == ""
    csv_path, json_path = out.strip().splitlines()
    rows = [[float(x) for x in r] for r in read_rows(csv_path)[1:]]
    assert any(dist > 0.0 and norm >= 1.0 - 1e-12 for _, dist, norm, _ in rows)
    report = json.loads(open(json_path).read())
    assert report["theta_fit"] is None
    # (at N = 6 the 16-state chain contracts: see its golden report)
    assert report["flags"] == ["norm-not-contracting"]


def test_diagnose_jet_only_model_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"bundled": "iid_moments"}, "run": {}})
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"
    assert "finite-state chain" in json.loads(err)["message"]


def test_diagnose_nonlattice_fits_frequency_lower_bound(tmp_path, capsys):
    doc = {
        "model": {"bundled": "diophantine_two_state"},
        "run": {"t_grid": {"start": 0.5, "stop": 5.0, "count": 10}},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    csv_path, json_path = out.strip().splitlines()
    report = json.loads(open(json_path).read())
    assert report["lattice_span"] is None
    assert report["diophantine"]["K"] > 0.0
    assert report["diophantine"]["beta"] >= 0.0
    assert report["theta_fit"] > 0.0
    rows = read_rows(csv_path)
    assert any(float(r[1]) > 0.0 for r in rows[1:])


# ----------------------------------------------------- moments, lclt, moddev


def test_moments_reports_variance_coefficient(tmp_path, capsys):
    doc = {
        "model": {"type": "iid", "pmf": [[0.0, 0.5], [1.0, 0.5]]},
        "run": {"order": 2},
    }
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_cli(capsys, "moments", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    rows = read_rows(out.strip())
    assert rows[0] == ["k", "j", "coefficient"]
    table = {(int(r[0]), int(r[1])): float(r[2]) for r in rows[1:]}
    assert abs(table[(2, 1)] - 0.25) <= 1e-12


def test_lclt_errors_shrink(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"model": {"bundled": "two_state"}, "run": {"order": 2, "N_list": [64, 256]}},
    )
    code, out, _ = run_cli(capsys, "lclt", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    rows = read_rows(out.strip())
    assert rows[0] == ["N", "sup_error"]
    errs = [float(r[1]) for r in rows[1:]]
    assert errs[1] < errs[0]


_LCLT_CHAIN = {"type": "markov", "transition": [[0.7, 0.3], [0.4, 0.6]],
               "observable": [[0, 1], [2, 1]]}


def test_lclt_reads_lattice_points_with_no_mass(tmp_path, capsys):
    # S_1 takes only 0, 1 and 2.  The sup over the support atoms missed the
    # estimate at k = -1, where the exact mass is 0, and read 0.0438770...
    rows = {}
    for span, rewards in ((1.0, [[0, 1], [2, 1]]), (0.5, [[0, 0.5], [1, 0.5]])):
        model = dict(_LCLT_CHAIN, observable=rewards)
        assert cli.build_model(model).lattice_span == span
        cfg = write_config(tmp_path, {"model": model, "run": {"N_list": [1, 2, 4]}})
        code, out, _ = run_cli(capsys, "lclt", cfg, "--out", str(tmp_path / str(span)),
                               "--stamp", "s")
        assert code == 0
        rows[span] = [float(row[1]) for row in read_rows(out.strip())[1:]]
    params = expansion_for_model(cli.build_model(_LCLT_CHAIN), 0).params
    want = (math.exp(-(1.0 + params.A) ** 2 / (2.0 * params.sigma2))
            / math.sqrt(2.0 * math.pi * params.sigma2))
    assert abs(rows[1.0][0] - want) <= 1e-15
    # halved rewards halve the span; the column is in density units, so doubles
    assert rows[0.5] == [2.0 * err for err in rows[1.0]]


def test_lclt_requires_lattice_model(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "model": {"bundled": "diophantine_two_state"},
            "run": {"order": 2, "N_list": [16, 32]},
        },
    )
    code, out, err = run_cli(capsys, "lclt", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 3
    assert json.loads(err)["error"] == "OracleUnavailable"


def test_moddev_table(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "model": {"bundled": "two_state"},
            "run": {"order": 2, "N_list": [256], "c": 0.5},
        },
    )
    code, out, _ = run_cli(capsys, "moddev", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    rows = read_rows(out.strip())
    assert rows[0] == ["N", "x", "exact_tail", "normal_tail", "ratio", "corollary_tail"]
    n, x, exact, normal, ratio, corollary = rows[1]
    assert n == "256"
    want = 1.0 / math.sqrt(2.0 * math.pi * 0.5) / math.sqrt(256 ** 0.5 * math.log(256))
    assert abs(float(corollary) - want) <= 1e-15
    assert abs(float(ratio) - float(exact) / float(normal)) <= 1e-12


def test_moddev_far_tails_are_positive(tmp_path, capsys):
    # at c = 20 both tails are below 1e-25; read as 1 minus a CDF they
    # were rounding residue (-2.2e-16 at N = 256) and 0.0, and the ratio
    # inf ended the run with exit 2
    cfg = write_config(tmp_path, {"model": {"bundled": "three_state_lattice"},
                                  "run": {"N_list": [256, 1024], "c": 20}})
    code, out, err = run_cli(capsys, "moddev", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0 and err == ""
    rows = read_rows(out.strip())[1:]
    assert [row[0] for row in rows] == ["256", "1024"]
    for row in rows:
        exact, normal = float(row[2]), float(row[3])
        assert 0.0 < exact < 1e-25 and 0.0 < normal < 1e-25


@pytest.mark.parametrize("command", ["lclt", "moddev", "verify"])
def test_dp_ladders_run_one_sweep(tmp_path, capsys, monkeypatch, command):
    calls = []
    real = oracle.dp_ladder
    monkeypatch.setattr(oracle, "dp_ladder", lambda m, ns: calls.append(list(ns)) or real(m, ns))
    cfg = write_config(
        tmp_path,
        {"model": {"bundled": "two_state"},
         "run": {"order": 2, "N_list": [64, 128, 256], "form": "lattice"}},
    )
    code, out, _ = run_cli(capsys, command, cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 0
    assert calls == [[64, 128, 256]]


# ------------------------------------------------------------ golden outputs

# Artifacts written with ``--stamp golden``.  The three CSVs come from
# the parent of the change that flushes sub-normal band edges in
# ``oracle.dp_pmf`` (commit e49b8a2), so they pin the CLI output from
# before that change.  The three ``expand`` JSONs come from commit
# 7fce148, the last one to hold dense chains as d x d arrays and their
# families in a (order+1, d, d) layout, so they pin the expansion from
# before every chain and family was stored on its nonzeros.  The four
# ``diagnose`` files come from commit 38d9c28, whose ``perron_base`` still
# took a d x d transition matrix, so they pin the diagnostics from before
# it took the operator family.  The norm scan of a sparse chain then moved
# from d x d matrix powers onto the chain's pattern, and the sparse-chain
# CSV was rewritten, in norm_power and radius by at most 1 ulp.  A
# command that writes a CSV and a JSON is compared on the file of the
# golden file's extension.
_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data")
_DIAGNOSE_DIOPHANTINE = ("diagnose", {"model": {"bundled": "diophantine_two_state"}, "run": {}})
_DIAGNOSE_SPARSE = ("diagnose", {
    "model": sparse_chain_doc(),
    "run": {"t_grid": {"start": 0.5, "stop": 10.0, "count": 12}, "N": 6},
})
_GOLDEN = {
    "diagnose-diophantine_two_state.csv": _DIAGNOSE_DIOPHANTINE,
    "diagnose-diophantine_two_state.json": _DIAGNOSE_DIOPHANTINE,
    "diagnose-sparse_chain.csv": _DIAGNOSE_SPARSE,
    "diagnose-sparse_chain.json": _DIAGNOSE_SPARSE,
    "expand-doubling_ulam.json": ("expand", {
        "model": {"bundled": "doubling_ulam"}, "run": {"order": 2},
    }),
    "expand-diophantine_two_state.json": ("expand", {
        "model": {"bundled": "diophantine_two_state"}, "run": {"order": 3},
    }),
    "expand-iid_moments.json": ("expand", {
        "model": {"bundled": "iid_moments"}, "run": {"order": 4},
    }),
    "verify-two_state-lattice.csv": ("verify", {
        "model": {"bundled": "two_state"},
        "run": {"order": 2, "form": "lattice", "oracle": "dp", "N_list": [1024, 4096, 16384]},
    }),
    "lclt-three_state_lattice.csv": ("lclt", {
        "model": {"bundled": "three_state_lattice"},
        "run": {"order": 2, "N_list": [1024, 4096]},
    }),
    "moddev-three_state_lattice.csv": ("moddev", {
        "model": {"bundled": "three_state_lattice"},
        "run": {"order": 2, "N_list": [1024, 4096]},
    }),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_artifact_byte_identical(tmp_path, capsys, name):
    command, doc = _GOLDEN[name]
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, command, cfg, "--out", str(tmp_path), "--stamp", "golden")
    assert code == 0 and err == ""
    path, = (p for p in out.splitlines() if p.endswith(os.path.splitext(name)[1]))
    with open(path, "rb") as got, open(os.path.join(_GOLDEN_DIR, name), "rb") as want:
        assert got.read() == want.read()
