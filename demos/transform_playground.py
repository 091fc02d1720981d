"""The Dunkl transform as a deformed Fourier transform.

Shows the standard Gaussian as a fixed point of the transform, norm
preservation on a battery of polynomial Gaussians, the derivative-to-
multiplier rule for the Dunkl operator, and convolution reproducing the
classical Gaussian convolution identity at zero multiplicity.
"""

import numpy as np

from dunkllab import (WeightedContext, apply_dunkl, dunkl_convolve,
                      dunkl_transform, gaussian, hermite_family,
                      monomial_gauss, plancherel_defect, rank1)


def main() -> None:
    print("== Gaussian fixed point ==")
    for k in (0.0, 0.5, 1.0):
        ctx = WeightedContext(rank1(k))
        tf = dunkl_transform(ctx, gaussian(1, 0.5))
        xi = ctx.freq_grid.points()[:, 0]
        err = float(np.max(np.abs(tf.values - np.exp(-0.5 * xi**2))))
        print(f"k = {k:3.1f}: sup |F[exp(-x^2/2)] - exp(-xi^2/2)| = {err:.2e}")

    print("\n== norm preservation (Plancherel) ==")
    ctx = WeightedContext(rank1(0.75))
    defects = [plancherel_defect(ctx, f) for f in hermite_family(3)]
    print(f"k = 0.75, {len(defects)} polynomial Gaussians: "
          f"worst relative norm defect {max(defects):.2e}")

    print("\n== derivative becomes a multiplier ==")
    ctx = WeightedContext(rank1(0.8))
    f = monomial_gauss([2], [0.5])
    lhs = dunkl_transform(ctx, apply_dunkl(ctx.system, [1.0], f)).values
    rhs = 1j * ctx.freq_grid.points()[:, 0] * dunkl_transform(ctx, f).values
    print(f"k = 0.8: sup |F[T f] - (i xi) F[f]| = "
          f"{float(np.max(np.abs(lhs - rhs))):.2e}")

    print("\n== convolution, classical limit ==")
    ctx = WeightedContext(rank1(0.0))
    conv = dunkl_convolve(ctx, gaussian(1, 0.5), gaussian(1, 0.5))
    x = ctx.grid.points()[:, 0]
    exact = np.sqrt(np.pi) * np.exp(-0.25 * x**2)
    err = float(np.max(np.abs(conv.values - exact)))
    print("k = 0: exp(-x^2/2) * exp(-x^2/2) = sqrt(pi) exp(-x^2/4), "
          f"sup error {err:.2e}")


if __name__ == "__main__":
    main()
