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
import io
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
    _as_index,
    _as_real,
    _as_reals,
)
from .expansion import expansion_for_model

_MAX_ORDER = 8
# frequencies in a diagnose grid: a larger count or list is refused before
# any array is formed
_MAX_T_GRID = 10 ** 4
# a norm ||L_t^N|| at or above 1 - this, at a frequency with d(t) > 0, is
# no contraction: it is 1 up to rounding when every target is reached by
# one path, and no contraction constant can be fitted to it
_CONTRACTION_TOL = 1e-12


def _fmt_float(x):
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("cannot serialize a non-finite number")
    return format(x, ".17g")


def _json_dumps(obj, indent=0):
    """Serialize with sorted keys and floats written to 17 significant
    digits (``.17g``): they round-trip, but are not the shortest form
    (``0.1`` is written ``0.10000000000000001``)."""
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
    if isinstance(doc, list) and doc:
        coeffs = _as_reals("model.g", doc)
        if coeffs.ndim == 1:
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
        return models.markov_model(doc["transition"], doc["observable"], doc.get("mu0"))
    if kind == "iid":
        return models.iid_model(pmf=doc.get("pmf"), moments=doc.get("moments"))
    if kind == "ulam":
        if "density" in doc:
            raise ValidationError(
                'ulam model takes no "density"; its initial distribution is uniform'
            )
        return models.ulam_model(
            map_kind=doc.get("map", "doubling"),
            g=_g_from_doc(doc.get("g")),
            cells=doc.get("cells", 1024),
            endpoints=doc.get("endpoints"),
        )
    raise ValidationError(f"unknown model type {kind!r}")


def _order_from(run, args):
    r = args.order if args.order is not None else run.get("order", 2)
    return _as_index("order", r, 0, _MAX_ORDER)


def _n_list_from(run):
    raw = run.get("N_list")
    if not isinstance(raw, list) or not raw:
        raise ValidationError('"N_list" is required and must be a nonempty list')
    return raw  # its entries are read by the library function that takes them


def _oracle_from(run, args):
    kind = run.get("oracle", "dp")  # the library refuses an unknown kind
    seed = args.seed if args.seed is not None else run.get("seed")
    trials = args.trials if args.trials is not None else run.get("trials", 10 ** 5)
    if kind == "mc" and seed is None:
        raise ValidationError("Monte Carlo runs require a seed")
    # an exact oracle leaves both unused, but a malformed one is refused
    mc = kind == "mc"
    if seed is not None:
        seed = _as_index("seed", seed, 0 if mc else None)
    trials = _as_index("trials", trials, 1 if mc else None)
    return kind, 0 if seed is None else seed, trials


def _function_from(run):
    doc = run.get("function")
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ValidationError('"run.function" must be an object')
    return evaluate.TestFunction(
        kind=doc.get("kind", "gaussian-bump"),
        center=doc.get("center", 0.0),
        width=doc.get("width", 1.0),
        degree=doc.get("degree", 0),
    )


def _t_grid_from(run):
    doc = run.get("t_grid")
    if doc is None:
        return np.linspace(0.5, 20.0, 40)
    if isinstance(doc, dict):
        return np.linspace(
            _as_real("run.t_grid.start", doc.get("start", 0.5)),
            _as_real("run.t_grid.stop", doc.get("stop", 20.0)),
            _as_index("run.t_grid.count", doc.get("count", 40), 1, _MAX_T_GRID),
        )
    if isinstance(doc, list) and len(doc) > _MAX_T_GRID:
        raise ValidationError(
            f"run.t_grid must list at most {_MAX_T_GRID} frequencies, not {len(doc)}")
    grid = _as_reals("run.t_grid", doc)
    if grid.ndim != 1:
        raise ValidationError("run.t_grid must be a list or an object")
    return grid


def _artifact_path(out_dir, command, model_doc, stamp, ext):
    # CPython's own SHA-256, the one hashlib falls back to: hashlib maps
    # OpenSSL's libcrypto, 3.6 MiB of resident memory, for one digest
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from _sha256 import sha256

    digest = sha256(_json_dumps(model_doc).encode("utf-8")).hexdigest()[:12]
    return os.path.join(out_dir, f"{command}-{digest}-{stamp}.{ext}")


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_fmt_float(v) if isinstance(v, (float, np.floating)) else str(v) for v in row]
        )
    return buf.getvalue()


def _write_artifacts(*artifacts):
    """Write and print each ``(path, text)`` pair.

    Every text is formatted before the first file is opened, and the
    directory is made with the first artifact, so a run refused before
    this call, a non-finite value included, leaves nothing behind.  A
    file that cannot be made or written is refused as invalid input,
    and the files this call already opened are removed first.
    """
    written = []
    try:
        for path, text in artifacts:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                written.append(path)
                fh.write(text)
    except OSError as exc:
        for done in written:
            with contextlib.suppress(OSError):
                os.remove(done)
        raise ValidationError(f"cannot write {path!r}: {exc}") from None
    for path, _ in artifacts:
        print(path)


def _poly_list(poly):
    return [float(c) for c in poly.coeffs]


def cmd_expand(model, model_doc, run, args):
    """Write the correction polynomials and moment coefficients as JSON."""
    r = _order_from(run, args)
    exp_set = expansion_for_model(model, r)
    report = {
        "A": exp_set.params.A,
        "sigma2": exp_set.params.sigma2,
        "order": exp_set.r,
        "frequency_polys": [_poly_list(exp_set.A(k)) for k in range(r + 1)],
        "density_polys": [_poly_list(exp_set.R(p)) for p in range(r + 1)],
        "cdf_polys": [_poly_list(exp_set.P(p)) for p in range(1, r + 1)],
        "weak_local_polys": [_poly_list(exp_set.weak_local(p)) for p in range(r // 2 + 1)],
        "moment_coefficients": [
            [k, j, a] for (k, j), a in sorted(exp_set.moment_coeffs.items()) if k >= 1
        ],
    }
    _write_artifacts((_artifact_path(args.out, "expand", model_doc, args.stamp, "json"),
                      _json_dumps(report) + "\n"))
    return 0


def cmd_verify(model, model_doc, run, args):
    """Check the expansion against an oracle over N_list; CSV of errors."""
    r = _order_from(run, args)
    n_list = _n_list_from(run)
    kind, seed, trials = _oracle_from(run, args)
    form = run.get("form", "classical")
    f = _function_from(run)
    exp_set = expansion_for_model(model, r)
    report = evaluate.convergence_study(
        exp_set, model, kind, r, n_list, form=form, f=f, x=run.get("x"), seed=seed, trials=trials
    )
    _write_artifacts((_artifact_path(args.out, "verify", model_doc, args.stamp, "csv"),
                      _csv_text(["N", "raw_error", "scaled_error"], report.rows())))
    if not report.decreasing:
        raise VerdictFailure(
            f"scaled {form} error is not strictly decreasing over {report.N_list}"
        )
    return 0


def cmd_diagnose(model, model_doc, run, args):
    """Scan spectral gap, norm decay and resonance distance; CSV and JSON."""
    t_grid = _t_grid_from(run)
    n_power = _as_index("run.N", run.get("N", 2), 1)
    if t_grid.size == 0:
        raise ValidationError("run.t_grid must be nonempty")
    flags = []
    try:
        gap = spectral.perron_base(model.operator_family(2)).gap
    except GapBelowTolerance:
        # diagnostics always complete; a vanishing gap is a finding
        gap = None
        flags.append("gap-below-tolerance")
    except SingularStationarySolve:
        gap = None
        flags.append("stationary-not-unique")
    if model.lattice_span is None:
        # first, so a moment model (never a lattice one) or a chain over the
        # scan's budget fails before the norm scan; its warning is a flag (see main)
        scan = models.diophantine_scan(model, t_grid)
        if scan.resonant:
            flags.append("resonant-observable")
        dist = scan.d
        dio = {"K": scan.K, "beta": scan.beta, "residual": scan.residual}
    else:
        dist = np.zeros(t_grid.size)
        dio = None
    t, nrm, rad = np.array(spectral.norm_decay_scan(model, t_grid, n_power)).T
    pos = dist > 0
    if np.any(nrm[pos] >= 1.0 - _CONTRACTION_TOL):
        theta = math.inf
        flags.append("norm-not-contracting")
    else:
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
    _write_artifacts(
        (_artifact_path(args.out, "diagnose", model_doc, args.stamp, "csv"),
         _csv_text(["t", "char_distance", "norm_power", "radius"], zip(t, dist, nrm, rad))),
        (_artifact_path(args.out, "diagnose", model_doc, args.stamp, "json"),
         _json_dumps(report) + "\n"),
    )
    return 0


def cmd_moments(model, model_doc, run, args):
    """Write the moment coefficients a_{k,j} as CSV."""
    r = _order_from(run, args)
    exp_set = expansion_for_model(model, r)
    rows = [(k, j, a) for (k, j), a in sorted(exp_set.moment_coeffs.items())]
    _write_artifacts((_artifact_path(args.out, "moments", model_doc, args.stamp, "csv"),
                      _csv_text(["k", "j", "coefficient"], rows)))
    return 0


def cmd_lclt(model, model_doc, run, args):
    """Compare the local limit expansion with exact lattice atoms; CSV."""
    n_list = _n_list_from(run)
    span = model.lattice_span
    if span is None:
        raise OracleUnavailable("the local limit comparison needs a lattice model")
    exp_set = expansion_for_model(model, 0)  # reads only A and sigma2
    # the lattice form at order 0, in density units: divided by the span
    report = evaluate.convergence_study(exp_set, model, "dp", 0, n_list, form="lattice")
    rows = [(n, err / span) for n, err in zip(report.N_list, report.raw)]
    _write_artifacts((_artifact_path(args.out, "lclt", model_doc, args.stamp, "csv"),
                      _csv_text(["N", "sup_error"], rows)))
    return 0


def cmd_moddev(model, model_doc, run, args):
    """Compare moderate-deviation tails with the exact tail; CSV."""
    n_list = _n_list_from(run)
    exp_set = expansion_for_model(model, 0)  # reads only A and sigma2
    results = evaluate.moddev_ratios(exp_set, model, run.get("c", 0.5), n_list)
    rows = [(n, res.x, res.exact_tail, res.normal_tail, res.ratio, res.corollary_tail)
            for n, res in zip(n_list, results)]
    _write_artifacts((
        _artifact_path(args.out, "moddev", model_doc, args.stamp, "csv"),
        _csv_text(["N", "x", "exact_tail", "normal_tail", "ratio", "corollary_tail"], rows),
    ))
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

# the config scalars each command reads and takes a flag for; no other flag
_FLAGS = {"expand": ("order",), "verify": ("order", "seed", "trials"), "moments": ("order",)}


class _ArgumentParser(argparse.ArgumentParser):
    """Refuses bad command-line arguments with :class:`ValidationError`
    (exit 2 with a JSON error), not with argparse's usage text."""

    def error(self, message):
        raise ValidationError(message)


def _parser():
    parser = _ArgumentParser(
        prog="edgeworth",
        description="Edgeworth expansions for Markov-dependent sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("config", help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--stamp", help="artifact name timestamp token (default: current UTC time)")
        for flag in _FLAGS.get(name, ()):
            p.add_argument(f"--{flag}", type=int, help=f"run.{flag} override")
    return parser


def _emit_error(kind, message):
    sys.stderr.write(_json_dumps({"error": kind, "message": str(message)}) + "\n")


def main(argv=None):
    """Entry point; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
        if args.stamp is None:
            args.stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        # stderr carries only the JSON error: numpy and warnings stay
        # silent, a non-finite result is refused when the artifact is
        # written, and diagnose reports a resonance as a flag
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model_doc, run = _load_config(args.config)
            model = build_model(model_doc)
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
