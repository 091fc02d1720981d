"""Heat kernels: spectral construction versus Bessel closed form.

The order-one kernel built by inverting exp(-t |xi|^2) through the Dunkl
transform must agree with the closed-form heat kernel written in terms
of exponentially scaled Bessel functions.  This script compares the two
on three systems, then uses the closed form to illustrate unit mass,
positivity, symmetry, and the semigroup property.
"""

import numpy as np

from dunkllab import (KernelSpec, WeightedContext, dunkl_convolve,
                      evaluate_q, heat_kernel, heat_kernel_two_point,
                      product_z2, q_on_grid, rank1)


def main() -> None:
    print("== spectral kernel vs closed form ==")
    rng = np.random.default_rng(5)
    for name, system in [("rank-one k=0", rank1(0.0)),
                         ("rank-one k=1", rank1(1.0)),
                         ("Z2 x Z2 k=(0.5, 0.5)", product_z2([0.5, 0.5]))]:
        ctx = WeightedContext(system)
        pts = rng.uniform(-3.0, 3.0, size=(25, ctx.dim))
        q = evaluate_q(ctx, KernelSpec.heat(ctx.dim), pts)
        h = heat_kernel(ctx, pts, 1.0)
        print(f"{name:>22}: sup difference {np.max(np.abs(q - h)):.2e}")

    ctx = WeightedContext(rank1(0.75))
    print("\n== unit mass ==")
    grid_pts = ctx.grid.points()
    for x0 in (0.0, 1.0, 3.0):
        vals = heat_kernel_two_point(ctx, x0, grid_pts, 1.0)
        mass = float(ctx.grid.integrate(vals.reshape(ctx.grid.shape)))
        print(f"int h_1({x0:g}, y) dw(y) = {mass:.12f}")

    print("\n== positivity and symmetry ==")
    xs = rng.uniform(-3, 3, size=(200, 1))
    ys = rng.uniform(-3, 3, size=(200, 1))
    h_xy = heat_kernel_two_point(ctx, xs, ys, 0.7)
    h_yx = heat_kernel_two_point(ctx, ys, xs, 0.7)
    print(f"min h_0.7(x, y) over 200 random pairs: {np.min(h_xy):.3e} > 0")
    print(f"sup |h(x, y) - h(y, x)|: {np.max(np.abs(h_xy - h_yx)):.2e}")

    print("\n== semigroup: h_0.5 * h_0.5 = h_1 ==")
    spec = KernelSpec.heat(1)
    half = q_on_grid(ctx, KernelSpec(spec.directions, spec.ell, spec.eps, 0.5))
    conv = dunkl_convolve(ctx, half, half)
    direct = q_on_grid(ctx, spec)
    print(f"sup |(h_0.5 * h_0.5) - h_1| = "
          f"{float(np.max(np.abs(conv.values - direct.values))):.2e}")


if __name__ == "__main__":
    main()
