"""Layered benchmark of edgeworth: time to a verified convergence verdict.

Run from the root of a source checkout:

    python3 bench/run.py --workload lattice_verify --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the current directory.  One
invocation runs one workload in this process, so that its peak memory is
its own.  Set-up (importing ``edgeworth`` and writing the workload's
inputs) is measured in this process and in fresh interpreters, a few
before the first pass and a few after each pass, so that the samples
span the run.  Cold passes run back to back until the next one would end
after ``--seconds``; at least one pass always runs.  Every pass checks
its outputs against ``bench/reference.json``.

``wall_s``, ``cpu_s`` and ``setup_s`` are medians over the run.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics of the
traced passes are printed.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it summarises samples, self times and the
machine.  Spans of a traced run are written once, at the end, to
``.bench_out/trace-<workload>-seed<seed>.json``.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 21  # at least this many set-up samples per run
SETUP_PER_PASS = 4  # fresh-interpreter set-up samples before the first pass and after each
SUBPROCESS_TIMEOUT_S = 60


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: one set-up sample in a fresh interpreter
    p.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(workload, seed, workdir):
    """Import the program and write the inputs; returns (module, inputs, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402  (imports edgeworth)

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(workdir, exist_ok=True)
    inputs = workloads.WORKLOADS[workload]["prepare"](seed, workdir)
    elapsed = time.perf_counter() - t0
    import edgeworth

    if not os.path.abspath(edgeworth.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"edgeworth imported from {edgeworth.__file__}, not from {SRC}")
    return workloads, inputs, elapsed


def _setup_samples(args, workdir, count):
    """``count`` set-up times, each measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--setup-only", workdir]
    out = []
    for _ in range(count):
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _one_pass(spec, inputs, ref, rec, tally):
    """Run and check one pass; returns (wall, cpu) seconds."""
    t0, c0 = time.perf_counter(), _cpu_seconds()
    try:
        with rec.span("pass"):
            out = spec["run"](inputs, rec)
            rows = spec["check"](out, inputs, ref)
    except Exception as exc:  # a raising pass is one failed check
        traceback.print_exc()
        rows = [("pass.exception", False, f"{type(exc).__name__}: {exc}")]
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
    tally["attempted"] += len(rows)
    for label, ok, detail in rows:
        if not ok:
            tally["failed"] += 1
            tally["failures"].append(f"{label}: {detail}")
    return wall, cpu


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def _machine():
    """Provenance of the measurement, read without changing anything."""
    import numpy as np

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "EDGEWORTH_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            level, kind, size = (_read(os.path.join(base, idx, name))
                                 for name in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    info["caches"] = caches
    return info


def _layer_metrics(rec, trace_overhead):
    """Per-layer metrics of one traced pass."""
    t = rec.total
    own = rec.self_total  # evaluate spans hold the oracle calls they make
    c = rec.counters.get

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    dp_s, mc_s = t("oracle.dp"), t("oracle.mc")
    study = ("evaluate.classical", "evaluate.lattice")
    cli_verify = t("cli.verify")
    m = {
        "oracle.dp_s": (dp_s, "s"),
        "oracle.dp_cells": (c("oracle.dp_cells", 0), "count"),
        "oracle.dp_cells_per_s": (rate(c("oracle.dp_cells", 0), dp_s), "1/s"),
        "oracle.dp_window_frac": (rate(c("oracle.dp_cells", 0),
                                       c("oracle.dp_alloc_cells", 0)), "ratio"),
        "oracle.mc_s": (mc_s, "s"),
        "oracle.mc_steps": (c("oracle.mc_steps", 0), "count"),
        "oracle.mc_steps_per_s": (rate(c("oracle.mc_steps", 0), mc_s), "1/s"),
        "oracle.ks_s": (t("oracle.ks"), "s"),
        "oracle.ks_probes": (c("oracle.ks_probes", 0), "count"),
        "spectral.family_s": (t("spectral.family"), "s"),
        "spectral.perron_s": (t("spectral.perron"), "s"),
        "spectral.perturb_s": (t("spectral.perturb"), "s"),
        "spectral.family_mib": (c("spectral.family_mib", 0), "MiB"),
        "models.build_s": (t("models.build"), "s"),
        "models.dim": (c("models.dim", 0), "count"),
        "expansion.build_s": (t("expansion.build"), "s"),
        "evaluate.study_s": (sum(own(name) for name in study), "s"),
        "evaluate.classical_s": (own("evaluate.classical"), "s"),
        "evaluate.lattice_s": (own("evaluate.lattice"), "s"),
        "evaluate.atoms": (c("evaluate.atoms", 0), "count"),
        "cli.verify_s": (cli_verify, "s"),
        "cli.overhead_s": (cli_verify - t("replay") if cli_verify else 0.0, "s"),
        "cli.artifact_bytes": (c("cli.artifact_bytes", 0), "B"),
        "trace.overhead_s": (trace_overhead, "s"),
    }
    for layer, n in rec.errors.items():
        m[f"{layer}.errors"] = (n, "count")
    return m


def _result(correct, tally, metrics):
    return {"correct": correct, "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "edgeworth", "__init__.py")):
        sys.stderr.write(f"no edgeworth sources under {SRC}; run from a source checkout\n")
        return 2
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    if args.setup_only:
        _, _, elapsed = _setup(args.workload, args.seed, args.setup_only)
        print(json.dumps({"setup_s": elapsed}))
        return 0
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir):
    wl, inputs, own_setup = _setup(args.workload, args.seed, workdir)
    setup_dir = f"{workdir}-setup"
    setups = [own_setup] + _setup_samples(args, setup_dir, SETUP_PER_PASS)
    from spans import NullRecorder, Recorder

    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)[args.workload]
    spec = wl.WORKLOADS[args.workload]
    tally = {"attempted": 0, "failed": 0, "failures": []}
    walls, cpus, recorders, traced_walls = [], [], [], []
    origin = time.perf_counter()
    deadline = origin + args.seconds
    while True:
        t0 = time.perf_counter()
        wall, cpu = _one_pass(spec, inputs, ref, NullRecorder(), tally)
        walls.append(wall)
        cpus.append(cpu)
        if args.trace:
            rec = Recorder(args.workload)
            _one_pass(spec, inputs, ref, rec, tally)
            traced_walls.append(rec.total("pass"))
            if "replay" in spec:
                with rec.span("replay"):
                    spec["replay"](inputs, rec)
            recorders.append(rec)
        setups += _setup_samples(args, setup_dir, SETUP_PER_PASS)
        step = time.perf_counter() - t0
        if tally["failed"] or time.perf_counter() + step > deadline:
            break
    setups += _setup_samples(args, setup_dir, SETUP_SAMPLES - len(setups))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    summary = {"workload": args.workload, "seed": args.seed, "passes": len(walls),
               "wall_s": walls, "cpu_s": cpus, "setup_s": setups,
               "failures": tally["failures"], "machine": _machine()}
    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        per_pass = [_layer_metrics(rec, overhead) for rec in recorders]
        metrics = {k: (statistics.median(p[k][0] for p in per_pass), per_pass[0][k][1])
                   for k in per_pass[0]}
        metrics["fail_frac"] = (tally["failed"] / tally["attempted"], "ratio")
        summary["traced_passes"] = len(recorders)
        summary["self_s"] = [rec.self_times() for rec in recorders]
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary,
                       "passes": [{"spans": rec.to_json(origin),
                                   "computed_counters": rec.counters}
                                  for rec in recorders]},
                      fh, indent=1)
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    correct = tally["failed"] == 0
    print(json.dumps(summary))
    print(json.dumps(_result(correct, tally, metrics)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
