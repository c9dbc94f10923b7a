"""Command-line front end.

Runs expansions, convergence studies and diagnostics from a JSON config
describing the model and the run parameters, and writes deterministic
CSV/JSON artifacts.  Exit codes: 0 success, 2 invalid input, 3 exact
oracle infeasible, 4 convergence verdict failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import evaluate, models, oracle, spectral
from .errors import (
    EdgeworthError,
    GapBelowTolerance,
    OracleInfeasible,
    OracleUnavailable,
    SingularStationarySolve,
    ValidationError,
)
from .expansion import expansion_for_model

_MAX_ORDER = 8


def _fmt_float(x):
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("cannot serialize a non-finite number")
    return format(x, ".17g")


def _json_dumps(obj, indent=0):
    """Serialize with sorted keys and shortest-roundtrip floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_json_dumps(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [f"{inner}{_json_dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


@contextlib.contextmanager
def _reading(name):
    """Report a config value that does not convert as invalid input."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"invalid {name}: {exc}") from None


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ValidationError('config must be an object with a "model" entry')
    run = cfg.get("run", {})
    if not isinstance(run, dict):
        raise ValidationError('"run" must be an object')
    return cfg["model"], run


def _g_from_doc(doc):
    if doc is None or doc == "cos2pi":
        return lambda x: np.cos(2.0 * np.pi * x)
    if doc == "identity":
        return lambda x: np.asarray(x, dtype=float)
    if isinstance(doc, (list, tuple)) and doc:
        coeffs = [float(c) for c in doc]
        return lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)
    raise ValidationError(f"unknown observable spec {doc!r}")


def build_model(doc):
    """Construct a model from its JSON description."""
    if not isinstance(doc, dict):
        raise ValidationError('"model" must be an object')
    if "bundled" in doc:
        return models.bundled_model(doc["bundled"])
    kind = doc.get("type")
    if kind == "markov":
        for key in ("transition", "observable"):
            if key not in doc:
                raise ValidationError(f'markov model needs "{key}"')
        with _reading("model.transition"):
            P = np.asarray(doc["transition"], dtype=float)
        if P.ndim != 2 or P.shape[0] == 0:
            raise ValidationError("model.transition must be a nonempty matrix")
        with _reading("model.observable"):
            h = np.asarray(doc["observable"], dtype=float)
        mu0 = doc.get("mu0")
        if mu0 is None:
            mu0 = np.full(P.shape[0], 1.0 / P.shape[0])
        with _reading("model.mu0"):
            mu0 = np.asarray(mu0, dtype=float)
        return models.markov_model(P, h, mu0)
    if kind == "iid":
        if ("pmf" in doc) == ("moments" in doc):
            raise ValidationError('iid model needs exactly one of "pmf" and "moments"')
        if "pmf" in doc:
            with _reading("model.pmf"):
                pmf = [(float(v), float(p)) for v, p in doc["pmf"]]
            return models.iid_model(pmf=pmf)
        with _reading("model.moments"):
            moments = np.asarray(doc["moments"], dtype=float)
        return models.iid_model(moments=moments)
    if kind == "ulam":
        if "density" in doc:
            raise ValidationError(
                'ulam model takes no "density"; its initial distribution is uniform'
            )
        with _reading("model.cells"):
            cells = int(doc.get("cells", 1024))
        endpoints = doc.get("endpoints")
        if endpoints is not None:
            with _reading("model.endpoints"):
                endpoints = [float(e) for e in endpoints]
        with _reading("model.g"):
            g = _g_from_doc(doc.get("g"))
        return models.ulam_model(
            map_kind=doc.get("map", "doubling"),
            g=g,
            cells=cells,
            endpoints=endpoints,
        )
    raise ValidationError(f"unknown model type {kind!r}")


def _order_from(run, args):
    r = args.order if args.order is not None else run.get("order", 2)
    if not isinstance(r, int) or isinstance(r, bool) or not 0 <= r <= _MAX_ORDER:
        raise ValidationError(f"order must be an integer in 0..{_MAX_ORDER}")
    return r


def _n_list_from(run):
    raw = run.get("N_list")
    if not isinstance(raw, list) or not raw:
        raise ValidationError('"N_list" is required and must be a nonempty list')
    n_list = []
    for n in raw:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValidationError("N_list entries must be positive integers")
        n_list.append(n)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValidationError("N_list must be strictly increasing")
    return n_list


def _oracle_from(run, args):
    kind = run.get("oracle", "dp")
    if kind not in ("dp", "enum", "mc"):
        raise ValidationError(f"unknown oracle kind {kind!r}")
    seed = args.seed if args.seed is not None else run.get("seed")
    trials = args.trials if args.trials is not None else run.get("trials", 10 ** 5)
    if kind == "mc":
        if seed is None:
            raise ValidationError("Monte Carlo runs require a seed")
        if not isinstance(trials, int) or trials < 1:
            raise ValidationError("trials must be a positive integer")
    with _reading("run.seed / run.trials"):
        seed, trials = (0 if seed is None else int(seed)), int(trials)
    if kind == "mc" and seed < 0:
        raise ValidationError("the Monte Carlo seed must be a nonnegative integer")
    return kind, seed, trials


def _function_from(run):
    doc = run.get("function")
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ValidationError('"run.function" must be an object')
    with _reading("run.function"):
        return evaluate.TestFunction(
            kind=doc.get("kind", "gaussian-bump"),
            center=float(doc.get("center", 0.0)),
            width=float(doc.get("width", 1.0)),
            degree=int(doc.get("degree", 0)),
        )


def _t_grid_from(run):
    doc = run.get("t_grid")
    if doc is None:
        return np.linspace(0.5, 20.0, 40)
    with _reading("run.t_grid"):
        if isinstance(doc, dict):
            return np.linspace(
                float(doc.get("start", 0.5)),
                float(doc.get("stop", 20.0)),
                int(doc.get("count", 40)),
            )
        return np.asarray([float(t) for t in doc])


def _artifact_path(out_dir, command, model_doc, stamp, ext):
    digest = hashlib.sha256(_json_dumps(model_doc).encode("utf-8")).hexdigest()[:12]
    return os.path.join(out_dir, f"{command}-{digest}-{stamp}.{ext}")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [_fmt_float(v) if isinstance(v, (float, np.floating)) else str(v) for v in row]
            )


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_json_dumps(obj) + "\n")


def _poly_list(poly):
    return [float(c) for c in poly.coeffs]


def cmd_expand(model, model_doc, run, args):
    """Write the correction polynomials and moment coefficients as JSON."""
    r = _order_from(run, args)
    exp_set = expansion_for_model(model, r)
    kmax = max(k for k, _ in exp_set.moment_coeffs) if exp_set.moment_coeffs else 0
    report = {
        "A": exp_set.params.A,
        "sigma2": exp_set.params.sigma2,
        "order": exp_set.r,
        "frequency_polys": [_poly_list(exp_set.A(k)) for k in range(r + 1)],
        "density_polys": [_poly_list(exp_set.R(p)) for p in range(r + 1)],
        "cdf_polys": [_poly_list(exp_set.P(p)) for p in range(1, r + 1)],
        "weak_local_polys": [_poly_list(exp_set.weak_local(p)) for p in range(r // 2 + 1)],
        "moment_coefficients": [
            [k, j, exp_set.a(k, j)]
            for k in range(1, kmax + 1)
            for j in range(k // 2 + 1)
            if (k, j) in exp_set.moment_coeffs
        ],
    }
    path = _artifact_path(args.out, "expand", model_doc, args.stamp, "json")
    _write_json(path, report)
    print(path)
    return 0


def cmd_verify(model, model_doc, run, args):
    """Check the expansion against an oracle over N_list; CSV of errors."""
    r = _order_from(run, args)
    n_list = _n_list_from(run)
    kind, seed, trials = _oracle_from(run, args)
    form = run.get("form", "classical")
    f = _function_from(run)
    with _reading("run.x"):
        x = None if run.get("x") is None else float(run["x"])
    exp_set = expansion_for_model(model, r)
    report = evaluate.convergence_study(
        exp_set, model, kind, r, n_list, form=form, f=f, x=x, seed=seed, trials=trials
    )
    path = _artifact_path(args.out, "verify", model_doc, args.stamp, "csv")
    _write_csv(path, ["N", "raw_error", "scaled_error"], report.rows())
    print(path)
    if not report.decreasing:
        raise VerdictFailure(
            f"scaled {form} error is not strictly decreasing over {n_list}"
        )
    return 0


def cmd_diagnose(model, model_doc, run, args):
    """Scan spectral gap, norm decay and resonance distance; CSV and JSON."""
    if not isinstance(model, models.MarkovModel):
        raise ValidationError("diagnose needs a finite-state chain or map model")
    t_grid = _t_grid_from(run)
    with _reading("run.N"):
        n_power = int(run.get("N", 2))
    if n_power < 1 or t_grid.size == 0:
        raise ValidationError("run.N must be at least 1 and run.t_grid nonempty")
    flags = []
    try:
        gap = spectral.perron_base(model.transition).gap
    except GapBelowTolerance:
        # diagnostics always complete; a vanishing gap is a finding
        gap = None
        flags.append("gap-below-tolerance")
    except SingularStationarySolve:
        gap = None
        flags.append("stationary-not-unique")
    t, nrm, rad = np.array(spectral.norm_decay_scan(model, t_grid, n_power)).T
    if model.lattice_span is None:
        # the resonance warning becomes a flag of the report (see main)
        scan = models.diophantine_scan(model.observable, t_grid)
        if scan.resonant:
            flags.append("resonant-observable")
        dist = scan.d
        dio = {"K": scan.K, "beta": scan.beta, "residual": scan.residual}
    else:
        dist = np.zeros(t_grid.size)
        dio = None
    pos = dist > 0
    theta = float(np.min((1.0 - nrm[pos]) / (dist[pos] * dist[pos]), initial=math.inf))
    unit = rad >= 1.0 - 1e-9
    if model.lattice_span is None:
        on_lattice = t == 0.0  # every law has unit radius at t = 0
    else:
        k = t * model.lattice_span / (2.0 * math.pi)
        on_lattice = np.abs(k - np.rint(k)) <= 1e-9
    if model.lattice_span is not None and np.any(unit & on_lattice):
        # unit radius at multiples of 2 pi / span is expected, not a defect
        flags.append("radius-one-lattice-consistent")
    if np.any(unit & ~on_lattice):
        flags.append("radius-one-off-lattice")
    report = {
        "gap": gap,
        "lattice_span": model.lattice_span,
        "power": n_power,
        "theta_fit": None if math.isinf(theta) else theta,
        "diophantine": dio,
        "flags": flags,
    }
    csv_path = _artifact_path(args.out, "diagnose", model_doc, args.stamp, "csv")
    _write_csv(csv_path, ["t", "char_distance", "norm_power", "radius"], zip(t, dist, nrm, rad))
    json_path = _artifact_path(args.out, "diagnose", model_doc, args.stamp, "json")
    _write_json(json_path, report)
    print(csv_path)
    print(json_path)
    return 0


def cmd_moments(model, model_doc, run, args):
    """Write the moment coefficients a_{k,j} as CSV."""
    r = _order_from(run, args)
    exp_set = expansion_for_model(model, r)
    rows = [
        (k, j, exp_set.a(k, j))
        for (k, j) in sorted(exp_set.moment_coeffs)
    ]
    path = _artifact_path(args.out, "moments", model_doc, args.stamp, "csv")
    _write_csv(path, ["k", "j", "coefficient"], rows)
    print(path)
    return 0


def cmd_lclt(model, model_doc, run, args):
    """Compare the local limit expansion with exact lattice atoms; CSV."""
    r = _order_from(run, args)
    n_list = _n_list_from(run)
    span = model.lattice_span
    if span is None:
        raise OracleUnavailable("the local limit comparison needs a lattice model")
    exp_set = expansion_for_model(model, r)
    rows = []
    for n in n_list:
        dist = evaluate.exact_distribution(model, n, "dp")
        est = evaluate.lclt_estimate(exp_set, dist.support - n * exp_set.params.A, n)
        err = float(np.max(np.abs(math.sqrt(n) * dist.pmf / span - est)))
        rows.append((n, err))
    path = _artifact_path(args.out, "lclt", model_doc, args.stamp, "csv")
    _write_csv(path, ["N", "sup_error"], rows)
    print(path)
    return 0


def cmd_moddev(model, model_doc, run, args):
    """Compare moderate-deviation tails with the exact tail; CSV."""
    r = _order_from(run, args)
    n_list = _n_list_from(run)
    with _reading("run.c"):
        c = float(run.get("c", 0.5))
    exp_set = expansion_for_model(model, r)
    rows = []
    for n in n_list:
        res = evaluate.moddev_ratio(exp_set, model, c, n)
        rows.append((n, res.x, res.exact_tail, res.normal_tail, res.ratio, res.corollary_tail))
    path = _artifact_path(args.out, "moddev", model_doc, args.stamp, "csv")
    _write_csv(
        path,
        ["N", "x", "exact_tail", "normal_tail", "ratio", "corollary_tail"],
        rows,
    )
    print(path)
    return 0


class VerdictFailure(Exception):
    """A convergence verdict came out negative (exit code 4)."""


_COMMANDS = {
    "expand": cmd_expand,
    "verify": cmd_verify,
    "diagnose": cmd_diagnose,
    "moments": cmd_moments,
    "lclt": cmd_lclt,
    "moddev": cmd_moddev,
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="edgeworth",
        description="Edgeworth expansions for Markov-dependent sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("config", help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--stamp",
            default=None,
            help="timestamp token for artifact names (default: current UTC time)",
        )
        p.add_argument("--order", type=int, default=None, help="expansion order override")
        p.add_argument("--seed", type=int, default=None, help="Monte Carlo seed override")
        p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials override")
    return parser


def _emit_error(kind, message):
    sys.stderr.write(_json_dumps({"error": kind, "message": str(message)}) + "\n")


def main(argv=None):
    """Entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    if args.stamp is None:
        args.stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    try:
        # stderr carries only the JSON error: numpy and warnings stay
        # silent, a non-finite result is refused when the artifact is
        # written, and diagnose reports a resonance as a flag
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model_doc, run = _load_config(args.config)
            model = build_model(model_doc)
            os.makedirs(args.out, exist_ok=True)
            return _COMMANDS[args.command](model, model_doc, run, args)
    except VerdictFailure as exc:
        _emit_error("VerdictFailure", exc)
        return 4
    except OracleInfeasible as exc:
        _emit_error(type(exc).__name__, exc)
        return 3
    except EdgeworthError as exc:
        _emit_error(type(exc).__name__, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
