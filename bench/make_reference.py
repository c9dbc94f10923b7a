"""Write bench/reference.json from one pass of every workload.

Run from the root of a source checkout, on the commit whose outputs are
to be pinned:

    python3 bench/make_reference.py

The Monte Carlo workload runs at the default seed, the only seed whose
Kolmogorov distance is pinned; every other pinned value is deterministic.
"""

import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), BENCH_DIR]

import workloads  # noqa: E402
from spans import NullRecorder  # noqa: E402


def main():
    ref = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
        for name, spec in workloads.WORKLOADS.items():
            inputs = spec["prepare"](workloads.DEFAULT_SEED, workdir)
            out = spec["run"](inputs, NullRecorder())
            ref[name] = workloads.reference_outputs(name, out)
            print(name, json.dumps(ref[name]))
    path = os.path.join(BENCH_DIR, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
