"""Tour of reflection groups and their weighted measures.

Walks through the supported systems (rank-one and its sign-change product
in dimension 2), showing the reflection group sizes, the Gaussian
normalization constant against its Gamma-function closed form, and how
weighted ball volumes scale with the homogeneous dimension.
"""

import numpy as np
from scipy.special import gamma

from dunkllab import (ReflectionGroup, WeightedContext, ball_volume,
                      product_z2, rank1)


def closed_form_rank1_constant(k: float) -> float:
    # int exp(-x^2/2) |sqrt(2) x|^{2k} dx = 2^{2k + 1/2} Gamma(k + 1/2)
    return 2.0 ** (2 * k + 0.5) * gamma(k + 0.5)


def main() -> None:
    print("== reflection groups ==")
    for name, system in [("rank-one", rank1(0.5)),
                         ("Z2 x Z2 product", product_z2([0.5, 1.0]))]:
        group = ReflectionGroup(system.dim)
        print(f"{name:>16}: {2 * system.dim} roots, group order "
              f"{len(group.matrices)}, homogeneous dimension "
              f"{system.homogeneous_dim:g}")

    print("\n== Gaussian normalization constant ==")
    for k in (0.0, 0.5, 1.0, 2.0):
        ctx = WeightedContext(rank1(k))
        exact = closed_form_rank1_constant(k)
        print(f"k = {k:3.1f}: quadrature {ctx.c_k:.12f}   "
              f"closed form {exact:.12f}   "
              f"difference {abs(ctx.c_k - exact):.2e}")

    print("\n== weighted ball volumes ==")
    system = rank1(1.0)
    print("rank-one, k = 1 (weight 2 x^2, homogeneous dimension 3):")
    for r in (1.0, 2.0, 4.0):
        vol = ball_volume(system, np.zeros(1), r)
        print(f"  w(B(0, {r:g})) = {vol:10.4f}   ratio to r^3: "
              f"{vol / r**3:.6f}")
    print("doubling at a point away from the walls:")
    x = np.array([3.0])
    for r in (0.5, 1.0, 2.0):
        print(f"  w(B(3, {r:g})) = {ball_volume(system, x, r):10.4f}")


if __name__ == "__main__":
    main()
