"""Classical CDF expansion for a chain with incommensurable rewards.

The bundled Diophantine chain pays the golden ratio in one state, so
S_N lives on no lattice and the classical (Kolmogorov-distance) form of
the expansion applies.  Exact laws come from the exact dynamic program
over reward counts (the "dp" oracle); the order-1 error times sqrt(N)
should fall along the ladder.
"""

import numpy as np

from edgeworth import (
    bundled_model,
    convergence_study,
    diophantine_scan,
    expansion_for_model,
)


def main():
    model = bundled_model("diophantine_two_state")
    exp_set = expansion_for_model(model, 1)

    print("reward-difference resonance scan")
    grid = np.linspace(0.5, 30.0, 60)
    scan = diophantine_scan(model, grid)
    print(f"  fitted lower envelope d(s) >= K/s^beta with K = {scan.K:.4f}, "
          f"beta = {scan.beta:.4f} (residual {scan.residual:.2e})")
    print(f"  smallest distance on the grid: {scan.d.min():.4f}")
    print()

    rep = convergence_study(
        exp_set, model, "dp", 1, [8, 10, 12, 14, 16, 18], form="classical"
    )
    print("order-1 Kolmogorov error against exact CDFs")
    print("     N      raw error      x sqrt(N)")
    for n, raw, scaled in rep.rows():
        print(f"  {n:>6}   {raw:.6e}   {scaled:.6f}")
    verdict = "decreasing" if rep.failure is None else "NOT decreasing"
    print(f"  scaled column {verdict}")


if __name__ == "__main__":
    main()
