"""Command-line driver: configs, artifacts, determinism, exit codes."""

import csv
import json
import math
import os
import re

import numpy as np
import pytest

from edgeworth import cli


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
        "run": {"order": 1, "N_list": [8, 3200], "oracle": "enum"},
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 3
    assert json.loads(err)["error"] == "TableTooLarge"


@pytest.mark.parametrize("oracle", ["dp", "enum", "mc"])
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
    ],
)
def test_invalid_run_documents_exit_two(tmp_path, capsys, run):
    cfg = write_config(tmp_path, {"model": {"bundled": "two_state"}, "run": run})
    code, out, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


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
        "run": {"order": 1, "N_list": [4, 8], "oracle": "enum", "form": "classical"},
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


def test_diagnose_jet_only_model_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"bundled": "iid_moments"}, "run": {}})
    code, out, err = run_cli(capsys, "diagnose", cfg, "--out", str(tmp_path), "--stamp", "s")
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


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


# ------------------------------------------------------------ golden outputs

# Artifacts written with ``--stamp golden``.  The three CSVs come from
# the parent of the change that flushes sub-normal band edges in
# ``oracle.dp_pmf`` (commit e49b8a2), so they pin the CLI output from
# before that change.  The three ``expand`` JSONs come from commit
# 7fce148, the last one to hold dense chains as d x d arrays and their
# families in a (order+1, d, d) layout, so they pin the expansion from
# before every chain and family was stored on its nonzeros.
_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data")
_GOLDEN = {
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
    with open(out.strip(), "rb") as got, open(os.path.join(_GOLDEN_DIR, name), "rb") as want:
        assert got.read() == want.read()
