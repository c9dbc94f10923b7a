"""Spectral diagnostics behind the expansion's validity assumptions.

The expansion machinery rests on a spectral gap at t = 0, a contracting
twisted operator away from resonances, and (for non-lattice rewards) a
quantitative non-resonance bound.  This script prints all three
diagnostics for a lattice chain and the Diophantine chain side by side.
"""

import numpy as np

from edgeworth import (
    bundled_model,
    diophantine_scan,
    norm_decay_scan,
    perron_base,
)


def show(model, name, grid):
    base = perron_base(model.operator_family(2))
    print(f"{name}")
    print(f"  spectral gap at t = 0: {base.gap:.6f}")
    print(f"  lattice span: {model.lattice_span}")
    rows = norm_decay_scan(model, grid, 2)
    worst = max(rad for _, _, rad in rows)
    print(f"  max spectral-radius estimate on the grid: {worst:.8f}")
    if model.lattice_span is None:
        scan = diophantine_scan(model, grid)
        theta = min(
            (1.0 - nrm) / (d * d)
            for (_, nrm, _), d in zip(rows, scan.d)
            if d > 0
        )
        print(f"  d(s) lower envelope: K = {scan.K:.4f}, beta = {scan.beta:.4f}")
        print(f"  contraction constant theta = {theta:.3e} "
              f"in ||L_t^2|| <= 1 - theta d(t)^2")
    print()


def main():
    grid = np.round(np.arange(0.5, 40.0 + 1e-9, 0.1), 10)
    show(bundled_model("two_state"), "2-state integer chain", grid)
    show(bundled_model("diophantine_two_state"), "Diophantine chain", grid)
    print("note: the integer chain shows radius 1 at t = 2 pi k; those are")
    print("the lattice resonances where the pmf form replaces the CDF form")


if __name__ == "__main__":
    main()
