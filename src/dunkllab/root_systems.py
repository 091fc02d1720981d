"""Product root systems, their sign-flip groups, and the orbit distance.

dunkllab supports the rank-1 system {+-sqrt(2)} and its coordinate
products in dimension 1 or 2: the roots are +-sqrt(2) e_j, and axis j
carries one multiplicity k_j >= 0 (Rosler, *Dunkl operators: theory and
applications*, LNM 1817).  ``RootSystemSpec`` stores those per-axis
multiplicities and is the one place that checks this scope; every other
module takes a spec as given.  No root vector is stored: each rule that
sums over roots is written per axis, with k_j.

The reflection in +-sqrt(2) e_j flips the sign of x_j, so the reflection
group G is the 2^N sign flips and the orbit distance
d(x, y) = min over g in G of |g(x) - y| is sqrt(sum_d (|x_d| - |y_d|)^2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidRootSystemError

MAX_DIM = 2


@dataclass(frozen=True)
class RootSystemSpec:
    """A coordinate-product root system with multiplicity ks[j] on axis j.

    ks : (dim,) array of nonnegative reals, 1 <= dim <= 2
    """

    ks: np.ndarray

    def __post_init__(self):
        ks = np.array(self.ks, dtype=float, ndmin=1)
        if ks.ndim != 1 or not 1 <= ks.size <= MAX_DIM:
            raise InvalidRootSystemError(
                f"product systems have 1 to {MAX_DIM} axes; got "
                f"multiplicities of shape {ks.shape}")
        if not np.all(ks >= 0):
            raise InvalidRootSystemError("multiplicities must be nonnegative")
        ks.flags.writeable = False
        object.__setattr__(self, "ks", ks)

    @property
    def dim(self) -> int:
        return self.ks.size

    @property
    def homogeneous_dim(self) -> float:
        """dim + the sum of k over the roots: k_j for each of +-sqrt(2) e_j."""
        return self.dim + float(np.sum(np.repeat(self.ks, 2)))


@dataclass(frozen=True)
class ReflectionGroup:
    """The 2^dim sign flips diag(s), s in {1, -1}^dim."""

    dim: int

    @property
    def order(self) -> int:
        return 2 ** self.dim

    @cached_property
    def matrices(self) -> np.ndarray:
        """(order, dim, dim), +1 before -1 axis by axis: diag(1, 1),
        diag(1, -1), diag(-1, 1), diag(-1, -1) in dim 2."""
        signs = itertools.product((1.0, -1.0), repeat=self.dim)
        return np.array([np.diag(s) for s in signs])


def as_points(x, dim: int) -> np.ndarray:
    """``x`` as an (M, dim) float batch, by the package's one shape rule: an
    (M, dim) array is M points, returned as it is; a vector of dim numbers
    is one point; in rank 1 a scalar or an (M,) vector is M points.  Any
    other shape raises ValueError."""
    pts = np.asarray(x, dtype=float)
    if dim == 1 and pts.ndim <= 1:
        return pts.reshape(-1, 1)
    if pts.ndim == 1 and pts.size == dim:
        return pts.reshape(1, dim)
    if pts.ndim == 2 and pts.shape[1] == dim:
        return pts
    raise ValueError(f"points of R^{dim} need shape (M, {dim}) or ({dim},); "
                     f"got shape {pts.shape}")


def as_point(x, dim: int) -> np.ndarray:
    """The one point of R^dim that ``as_points`` must find in x, as (dim,)."""
    pts = as_points(x, dim)
    if len(pts) != 1:
        raise ValueError(f"need one point of R^{dim}; got shape {np.shape(x)}")
    return pts[0]


def orbit_distance(group: ReflectionGroup, x: np.ndarray, y: np.ndarray) -> float:
    """d(x, y) = min over g in G of |g(x) - y|, over every image."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    images = group.matrices @ x
    return float(np.min(np.linalg.norm(images - y, axis=1)))


def orbit_distance_pairwise(group: ReflectionGroup, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Orbit distances for each pair of points of xs and ys (``as_points``).

    The minimum over the sign flips is taken axis by axis, in closed form:
        d(x, y)^2 = sum_d (|x_d| - |y_d|)^2,
    which is bit-identical to the minimum over all |G| images.
    """
    diff = np.abs(as_points(xs, group.dim)) - np.abs(as_points(ys, group.dim))
    return np.sqrt(np.add.reduce(diff * diff, axis=1))


def rank1(k: float) -> RootSystemSpec:
    """The rank-1 system {+-sqrt(2)} in R^1 with multiplicity k."""
    return RootSystemSpec(ks=[k])


def product_z2(ks) -> RootSystemSpec:
    """Coordinate product of rank-1 systems: roots +-sqrt(2) e_j, multiplicity k_j."""
    return RootSystemSpec(ks=ks)
