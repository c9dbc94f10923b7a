"""Lattice pmf convergence ladder against the exact dynamic program.

For the 2-state integer chain the exact law of S_N is computable by
dynamic programming, so the pmf-form expansion error
e_r(N) = sup_k |sqrt(N) P(S_N = k) - approximation| is measurable
directly.  The scaled column e_r(N) * N^(r/2) must fall as N grows:
each extra order buys one more factor sqrt(N) of decay.
"""

from edgeworth import bundled_model, convergence_study, expansion_for_model


def main():
    model = bundled_model("two_state")
    exp_set = expansion_for_model(model, 2)
    cache = {}
    ladder = [64, 256, 1024, 4096]

    for r in (0, 1, 2):
        rep = convergence_study(
            exp_set, model, "dp", r, ladder, form="lattice", cache=cache
        )
        print(f"order r = {r}")
        print("     N      raw error      x N^(r/2)")
        for n, raw, scaled in rep.rows():
            print(f"  {n:>6}   {raw:.6e}   {scaled:.6e}")
        verdict = "decreasing" if rep.failure is None else "NOT decreasing"
        print(f"  scaled column {verdict}")
        print()


if __name__ == "__main__":
    main()
