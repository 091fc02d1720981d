"""Coercivity of the weighted quadratic forms.

For the form built from order-l Dunkl derivatives against the
exponential weight eta_s, coercivity means
    -b_{s,eps}(f, f) + C s^{2l} ||f||_{H_s}^2 >= alpha ||f||_{V_{l,s}}^2
with alpha > 0.  The protocol calibrates (alpha, C) on half of a
polynomial-Gaussian family, with C at its cap and alpha the largest rate
the calibration rows allow (a closed form), and then demands the
inequality, with 5% slack, on the held-out half.  This script prints the raw form
values for one function and the calibrated constants across orders,
scales, and the eps-perturbed variant.
"""

from dunkllab import (BilinearFormSpec, WeightedContext, form_a_s, gaussian,
                      rank1, run_check, sobolev_norm_V, weighted_norm)


def main() -> None:
    ctx = WeightedContext(rank1(0.5))
    f = gaussian(1, 0.5)

    print("== raw ingredients at s = 1, l = 1 ==")
    spec = BilinearFormSpec(ell=1, s=1.0, eps=0.0, directions=((1.0,),))
    a = form_a_s(ctx, spec, f, f)
    h = weighted_norm(ctx, f, 1.0) ** 2
    v = sobolev_norm_V(ctx, spec, f) ** 2
    print(f"-a_s(f, f)          = {-a:.6f}   (positive at this scale; "
          "see the s-sweep below)")
    print(f"||f||_{{H_s}}^2       = {h:.6f}")
    print(f"||f||_{{V_{{l,s}}}}^2     = {v:.6f}")

    print("\n== calibrated coercivity constants ==")
    print(f"{'l':>2} {'eps':>5} {'alpha':>8} {'C':>8} {'held-out ratio':>15}")
    for ell in (1, 2):
        for eps in (0.0, 0.1):
            rep = run_check(ctx, "garding",
                            {"ell": ell, "eps": eps, "directions": [[1.0]],
                             "s_set": [0.5, 1.0, 2.0]})
            print(f"{ell:>2} {eps:>5.2f} {rep.fitted['alpha']:>8.4f} "
                  f"{rep.fitted['C_alpha']:>8.4f} "
                  f"{rep.fitted['holdout_ratio']:>15.4f}")
    print("\nalpha > 0 with held-out ratio <= 1 means the lower bound "
          "survives\non functions the calibration never saw")

    print("\n== the s^{2l} scaling matters ==")
    for s in (0.5, 1.0, 2.0):
        spec = BilinearFormSpec(ell=1, s=s, eps=0.0, directions=((1.0,),))
        a = -form_a_s(ctx, spec, f, f)
        h = weighted_norm(ctx, f, s) ** 2
        print(f"s = {s:3.1f}: -a_s(f, f) = {a:9.4f}   "
              f"s^2 ||f||_{{H_s}}^2 = {s**2 * h:9.4f}")


if __name__ == "__main__":
    main()
