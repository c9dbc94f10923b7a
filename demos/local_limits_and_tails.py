"""Local limit density and moderate-deviation tails on the lattice chain.

Two refinements beyond the bulk CLT: the local estimate
sqrt(N) P(S_N = k) ~ normal density at (k - NA) / sqrt(N), the lattice
pmf at order 0, whose sup error must shrink with N, and the tail ratio
at the moderate-deviation point x = sqrt(c sigma2 ln N), which must
approach one while both tails themselves vanish.
"""

from edgeworth import (
    bundled_model,
    convergence_study,
    expansion_for_model,
    moddev_ratios,
)


def main():
    model = bundled_model("two_state")
    exp_set = expansion_for_model(model, 2)

    print("local limit: sup_k |sqrt(N) P(S_N = k) - density estimate|")
    # the lattice form at order 0; the chain's span is 1
    report = convergence_study(exp_set, model, "dp", 0, [64, 256, 1024], form="lattice")
    for N, sup in zip(report.N_list, report.raw):
        print(f"  N = {N:>5}: {sup:.6e}")
    print()

    print("moderate deviations at c = 0.5")
    print("     N       x        exact tail     normal tail    ratio")
    horizons = (256, 1024, 4096)
    for N, res in zip(horizons, moddev_ratios(exp_set, model, 0.5, horizons)):
        print(
            f"  {N:>6}   {res.x:.4f}   {res.exact_tail:.6e}  "
            f"{res.normal_tail:.6e}  {res.ratio:.4f}"
        )
    print()
    res = moddev_ratios(exp_set, model, 1.0, [4096])[0]
    print(f"closed-form tail prediction at c = 1, N = 4096: "
          f"{res.corollary_tail:.6e} (exact {res.exact_tail:.6e})")


if __name__ == "__main__":
    main()
