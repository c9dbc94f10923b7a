"""The three benchmark workloads, one per hot layer of the pipeline.

Each workload has three parts:

* ``prepare(seed, workdir)`` builds the inputs (config files, parameters)
  from the benchmark seed.  It is part of the measured set-up time.
* ``run(inputs, rec)`` is one cold pass from the model document to the
  outputs, through the program's own entry points: ``cli.main``,
  ``expansion.expansion_for_model`` and ``evaluate.convergence_study``.
* ``check(outputs, inputs, ref)`` compares the outputs with the reference
  values of ``reference.json`` and returns ``(label, ok, detail)`` rows.

``lattice_verify`` also has ``replay``, which repeats the CLI ladder
serially through the library so that the traced run can split the CLI
call into layers.

With tracing on, ``_traced_calls`` swaps the public functions that the
program reaches through its modules (``spectral.build_operator_family``,
``oracle.dp_pmf`` and so on) for wrappers that time each call in a span
``<layer>.<call>`` and add the computed counters.  The program itself is
not changed, and traced and untraced passes run the same code path.
The CLI call stays one span: its thread pool would interleave spans.

No pass reuses a distribution from an earlier pass: every
``convergence_study`` gets a fresh ``cache`` dict of its own pass.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import io
import itertools
import json
import os

import numpy as np

from edgeworth import cli, evaluate, expansion, models, oracle, spectral

DEFAULT_SEED = 20260814

# Tolerances (see README.md, "Output checks").  DP and Monte Carlo errors
# are exact up to rounding.
EXACT_ATOL = 1e-12
RTOL = 1e-9
KS_PIN_ATOL = 1e-9
CLOSED_FORM_ATOL = 1e-6
KS_LIMIT = 0.01


def _cos2pi(x):
    return np.cos(2.0 * np.pi * x)


def _dp_cells(model, n):
    """Active-window and allocated cells of ``dp_pmf`` at horizon ``n``.

    At step s the window holds s * range + 1 sums per state, while every
    step allocates the full final width n * range + 1.
    """
    v = np.rint(model.observable / model.lattice_span).astype(np.int64)
    rng = max(int(v.max()), 0) - min(int(v.min()), 0)
    d = model.dim
    active = d * (n + rng * n * (n - 1) // 2)
    allocated = n * d * (n * rng + 1)
    return active, allocated


def _family_counters(a, result):
    return {"spectral.family_mib": a["model"].dim ** 2 * (a["order"] + 1) * 16 / 2 ** 20}


def _dp_counters(a, result):
    active, allocated = _dp_cells(a["model"], a["N"])
    return {"oracle.dp_cells": active, "oracle.dp_alloc_cells": allocated}


# (module, public function, span, computed counters from the bound
# arguments and the result, or None)
_TRACED = (
    (spectral, "build_operator_family", "spectral.family", _family_counters),
    (spectral, "perron_base", "spectral.perron", None),
    (spectral, "eigen_perturbation", "spectral.perturb", None),
    (expansion, "build_expansion", "expansion.build", None),
    (oracle, "dp_pmf", "oracle.dp", _dp_counters),
    (oracle, "mc_sample", "oracle.mc",
     lambda a, result: {"oracle.mc_steps": a["trials"] * a["N"]}),
    (oracle, "kolmogorov_distance", "oracle.ks",
     lambda a, result: {"oracle.ks_probes": np.size(a["probes"])}),
)


def _wrap(rec, fn, span, counters):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(span):
            result = fn(*args, **kwargs)
        if counters is not None:
            for name, value in counters(sig.bind(*args, **kwargs).arguments, result).items():
                rec.count(name, value)
        return result

    return traced


@contextlib.contextmanager
def _traced_calls(rec):
    """While tracing, time the program's calls into the functions of ``_TRACED``."""
    if not rec.traced:
        yield
        return
    saved = []
    try:
        for module, name, span, counters in _TRACED:
            fn = getattr(module, name)
            saved.append((module, name, fn))
            setattr(module, name, _wrap(rec, fn, span, counters))
        yield
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def _build(rec, builder, *args, **kwargs):
    with rec.span("models.build"):
        model = builder(*args, **kwargs)
    rec.count("models.dim", model.dim)
    return model


def _expand(model, r, rec):
    with rec.span("expansion.for_model"):
        return expansion.expansion_for_model(model, r)


def _study(exp_set, model, kind, r, n_list, form, rec, cache, seed=0, trials=10 ** 5):
    """``convergence_study``; oracle calls it makes nest in its span."""
    with rec.span(f"evaluate.{form}"):
        rep = evaluate.convergence_study(exp_set, model, kind, r, n_list, form=form,
                                         seed=seed, trials=trials, cache=cache)
    if rec.traced:  # cache hits: the distributions this study was given
        rec.count("evaluate.atoms", sum(
            evaluate.exact_distribution(model, n, kind, seed, trials, cache).support.size
            for n in n_list))
    return rep


def _close(got, want, atol, rtol=RTOL):
    return abs(got - want) <= atol + rtol * abs(want)


def _ladder_checks(label, scaled, decreasing, ref, atol_raw, n_list, r):
    """Verdict plus one check per scaled error against the reference."""
    rows = [(f"{label}.decreasing", bool(decreasing), f"scaled {scaled}")]
    for n, got, want in zip(n_list, scaled, ref):
        atol = atol_raw * n ** (r / 2.0)
        rows.append((f"{label}.scaled[N={n}]", _close(got, want, atol),
                     f"{float(got)!r} vs reference {want!r} (atol {atol:.1e}, rtol {RTOL:.0e})"))
    return rows


# --- lattice_verify: oracle.dp through the CLI -----------------------------

LATTICE_N = [1024, 4096, 16384]
LATTICE_ORDER = 2


def lattice_prepare(seed, workdir):
    cfg = {
        "model": {"bundled": "two_state"},
        "run": {"order": LATTICE_ORDER, "form": "lattice", "oracle": "dp",
                "N_list": LATTICE_N},
    }
    path = os.path.join(workdir, "lattice_verify.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return {"config": path, "out": os.path.join(workdir, "out"), "stamp": f"seed{seed}"}


def lattice_run(inputs, rec):
    argv = ["verify", inputs["config"], "--out", inputs["out"], "--stamp", inputs["stamp"]]
    printed = io.StringIO()
    with rec.span("cli.verify"), contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    path = printed.getvalue().strip()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rec.count("cli.artifact_bytes", os.path.getsize(path))
    return {"code": code, "N": [int(r["N"]) for r in rows],
            "scaled": [float(r["scaled_error"]) for r in rows]}


def lattice_replay(inputs, rec):
    """The ``verify`` ladder replayed serially through the library."""
    with _traced_calls(rec):
        model = _build(rec, models.bundled_model, "two_state")
        exp_set = _expand(model, LATTICE_ORDER, rec)
        _study(exp_set, model, "dp", LATTICE_ORDER, LATTICE_N, "lattice", rec, {})


def lattice_check(out, inputs, ref):
    scaled = out["scaled"]
    rows = [("cli.exit_code", out["code"] == 0, f"exit {out['code']}"),
            ("csv.N", out["N"] == LATTICE_N, f"N {out['N']}")]
    decreasing = all(b < a for a, b in zip(scaled, scaled[1:]))
    rows += _ladder_checks("lattice", scaled, decreasing, ref["scaled"],
                           EXACT_ATOL, LATTICE_N, LATTICE_ORDER)
    return rows


# --- ulam_mc: oracle.mc on the criterion-12 pipeline ------------------------

MC_CELLS = 1024
MC_N = 512
MC_TRIALS = 10 ** 6


def mc_prepare(seed, workdir):
    return {"seed": int(seed)}


def mc_run(inputs, rec):
    with _traced_calls(rec):
        model = _build(rec, models.ulam_model, "doubling", g=_cos2pi, cells=MC_CELLS)
        exp_set = _expand(model, 1, rec)
        rep = _study(exp_set, model, "mc", 1, [MC_N], "classical", rec, {},
                     seed=inputs["seed"], trials=MC_TRIALS)
    params = exp_set.params
    return {"A": params.A, "sigma2": params.sigma2, "ks": rep.raw[0]}


def mc_check(out, inputs, ref):
    rows = [
        ("params.A", abs(out["A"]) <= CLOSED_FORM_ATOL, f"A = {out['A']!r}"),
        ("params.sigma2", abs(out["sigma2"] - 0.5) <= CLOSED_FORM_ATOL,
         f"sigma2 = {out['sigma2']!r}"),
        ("ks.limit", out["ks"] <= KS_LIMIT, f"KS {out['ks']!r} <= {KS_LIMIT}"),
    ]
    if inputs["seed"] == DEFAULT_SEED:
        rows.append(("ks.pinned", abs(out["ks"] - ref["ks_default_seed"]) <= KS_PIN_ATOL,
                     f"KS {out['ks']!r} vs {ref['ks_default_seed']!r}"))
    return rows


# --- ulam_spectral: the dense spectral path, no oracle ----------------------

SPECTRAL_CELLS = 2048
SPECTRAL_ORDER = 2
P1_CLOSED_FORM = (0.25, 0.0, -0.5)  # P_1(z) = 1/4 - z^2/2 for cos(2 pi x), x -> 2x


def spectral_prepare(seed, workdir):
    return {}


def spectral_run(inputs, rec):
    with _traced_calls(rec):
        model = _build(rec, models.ulam_model, "doubling", g=_cos2pi, cells=SPECTRAL_CELLS)
        exp_set = _expand(model, SPECTRAL_ORDER, rec)
    return {"A": exp_set.params.A, "sigma2": exp_set.params.sigma2,
            "P1": [float(c) for c in exp_set.P(1).coeffs]}


def spectral_check(out, inputs, ref):
    rows = [
        ("params.A", abs(out["A"]) <= CLOSED_FORM_ATOL, f"A = {out['A']!r}"),
        ("params.sigma2", abs(out["sigma2"] - 0.5) <= CLOSED_FORM_ATOL,
         f"sigma2 = {out['sigma2']!r}"),
    ]
    p1 = itertools.zip_longest(out["P1"], P1_CLOSED_FORM, fillvalue=0.0)
    for i, (got, w) in enumerate(p1):
        rows.append((f"P1[{i}]", abs(got - w) <= CLOSED_FORM_ATOL, f"{got!r} vs {w!r}"))
    return rows


WORKLOADS = {
    "lattice_verify": {"prepare": lattice_prepare, "run": lattice_run,
                       "check": lattice_check, "replay": lattice_replay},
    "ulam_mc": {"prepare": mc_prepare, "run": mc_run, "check": mc_check},
    "ulam_spectral": {"prepare": spectral_prepare, "run": spectral_run,
                      "check": spectral_check},
}


def reference_outputs(name, out):
    """The part of a pass's outputs that ``reference.json`` pins."""
    if name == "lattice_verify":
        return {"scaled": out["scaled"]}
    if name == "ulam_mc":
        return {"ks_default_seed": out["ks"]}
    return {}
