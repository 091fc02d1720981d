"""Dunkl translation: classical limit, orbit supports, and contraction.

The translation tau_x acts on the transform side through the kernel
E(i xi, x).  At zero multiplicity it reduces to the ordinary shift
f(x + .).  At positive multiplicity a translated radial function spreads
over the reflection orbit of the shift: its support is controlled by the
orbit distance, not the Euclidean one, and its weighted L^1 norm is
conserved.
"""

import numpy as np

from dunkllab import (WeightedContext, dunkl_translate, gaussian,
                      orbit_distance_pairwise, radial_bump, rank1)


def bump_context(k: float) -> WeightedContext:
    return WeightedContext(rank1(k)).with_grids(
        box=6.0, n_half=240, freq_box=20.0, freq_n_half=400)


def main() -> None:
    print("== classical limit: shift by 1 at k = 0 ==")
    ctx = WeightedContext(rank1(0.0))
    f = gaussian(1, 0.5)
    moved = dunkl_translate(ctx, f, [1.0])
    x = ctx.grid.points()[:, 0]
    err = float(np.max(np.abs(moved.values - np.exp(-0.5 * (x + 1.0) ** 2))))
    print(f"sup |tau_1 f - f(1 + .)| = {err:.2e}")

    print("\n== orbit-shaped support at k = 0.5 ==")
    bctx = bump_context(0.5)
    bump = radial_bump(1, 1.0)
    shift = np.array([2.5])
    moved = dunkl_translate(bctx, bump, shift)
    x = bctx.grid.points()[:, 0]
    # the classical limit of tau_x f is f(x + .), so the main copy of a
    # bump translated by +2.5 sits around -2.5; the reflection couples in
    # a small component around +2.5
    for lo, hi, label in [(-3.5, -1.5, "main copy around -2.5"),
                          (-1.0, 1.0, "gap between the orbit points"),
                          (1.5, 3.5, "reflected component around +2.5")]:
        sel = (x >= lo) & (x <= hi)
        peak = float(np.max(np.abs(moved.values[sel])))
        print(f"  max |tau_2.5 f| on [{lo:4.1f}, {hi:4.1f}]: {peak:.3e}   "
              f"({label})")

    pts = bctx.grid.points()
    dist = orbit_distance_pairwise(bctx.group, pts, shift)
    outside = dist > 1.0 + 0.05
    print(f"  max |tau_2.5 f| at orbit distance > radius: "
          f"{float(np.max(np.abs(moved.values[outside]))):.2e}")

    print("\n== weighted L^1 conservation ==")
    bump_vals = bump(pts).reshape(bctx.grid.shape)
    l1_before = float(bctx.grid.integrate(np.abs(bump_vals)))
    l1_after = float(bctx.grid.integrate(np.abs(moved.values)))
    print(f"||f||_L1(dw) = {l1_before:.9f}")
    print(f"||tau_2.5 f||_L1(dw) = {l1_after:.9f}")
    print(f"ratio = {l1_after / l1_before:.9f}")

    print("\n== translation is Lipschitz in the shift ==")
    ctx = WeightedContext(rank1(0.5))
    base = dunkl_translate(ctx, gaussian(1, 0.5), [0.0])
    for r in (0.05, 0.2, 0.8):
        moved = dunkl_translate(ctx, gaussian(1, 0.5), [r])
        sup = float(np.max(np.abs(moved.values - base.values)))
        print(f"shift {r:4.2f}: sup |tau_r f - f| = {sup:.4f}   "
              f"ratio to shift {sup / r:.4f}")


if __name__ == "__main__":
    main()
