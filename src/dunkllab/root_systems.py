"""Normalized root systems, reflection groups, and the orbit distance.

A root system here is a finite set R of nonzero vectors in R^N, all normalized
to squared length 2, closed under every reflection it induces, together with a
reflection-invariant multiplicity k >= 0 on R.  The reflection in a root a is

    sigma_a(x) = x - 2 <x,a> a / |a|^2 ,

and the group G generated by these reflections is required to be finite.

Transform-grade machinery elsewhere in the package is restricted to the rank-1
system {+-sqrt(2)} and its coordinate products (sign-flip groups); generic
systems (e.g. dihedral) are supported for group generation, weighted measure
and orbit-distance work only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GroupExplosionError, InvalidRootSystemError

ROOT_NORM_TOL = 1e-12
MATCH_TOL = 1e-9
MAX_GROUP_ORDER = 10_000


def reflect(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Reflect point(s) x in the hyperplane orthogonal to alpha."""
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    scale = 2.0 / np.dot(alpha, alpha)
    return x - scale * np.outer(x @ alpha, alpha).reshape(x.shape)


def reflection_matrix(alpha: np.ndarray) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.size
    return np.eye(n) - 2.0 * np.outer(alpha, alpha) / np.dot(alpha, alpha)


@dataclass(frozen=True)
class RootSystemSpec:
    """A normalized root system with multiplicities.

    roots : (n_roots, dim) array, each row of squared norm 2
    multiplicity : (n_roots,) array of nonnegative reals, constant on G-orbits
    """

    roots: np.ndarray
    multiplicity: np.ndarray

    def __post_init__(self):
        roots = np.atleast_2d(np.asarray(self.roots, dtype=float))
        mult = np.broadcast_to(
            np.asarray(self.multiplicity, dtype=float), (roots.shape[0],)
        ).copy()
        if np.any(mult < 0):
            raise InvalidRootSystemError("multiplicities must be nonnegative")
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "multiplicity", mult)

    @property
    def dim(self) -> int:
        return self.roots.shape[1]

    @property
    def sum_multiplicity(self) -> float:
        """Sum of k(a) over all roots; the homogeneous dimension is dim + this."""
        return float(np.sum(self.multiplicity))

    @property
    def homogeneous_dim(self) -> float:
        return self.dim + self.sum_multiplicity

    def is_product(self) -> bool:
        """True if every root is +-sqrt(2) e_j for some coordinate axis j."""
        axes = np.abs(self.roots) > MATCH_TOL
        return bool(np.all(axes.sum(axis=1) == 1))

    def axis_multiplicities(self) -> np.ndarray:
        """Per-coordinate multiplicity k_j for product systems.

        Each axis j carries the pair {+-sqrt(2) e_j}; both roots share one
        multiplicity value k_j (enforced by validation).  Axes without roots
        get k_j = 0.
        """
        if not self.is_product():
            raise InvalidRootSystemError("not a coordinate-product root system")
        ks = np.zeros(self.dim)
        for root, k in zip(self.roots, self.multiplicity):
            j = int(np.argmax(np.abs(root)))
            ks[j] = k
        return ks


@dataclass(frozen=True)
class ReflectionGroup:
    """A finite reflection group stored as dense orthogonal matrices."""

    matrices: np.ndarray  # (order, dim, dim)

    @property
    def order(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @cached_property
    def flipped_axes(self) -> np.ndarray | None:
        """For a sign-flip product group, the axes some element flips.

        That is a group of diagonal +-1 matrices holding every combination
        of flips on those axes; any other group gives None.
        """
        eye = np.eye(self.dim, dtype=bool)
        diag = self.matrices[:, eye]
        if np.any(self.matrices[:, ~eye] != 0.0) or np.any(np.abs(diag) != 1.0):
            return None
        flips = np.any(diag == -1.0, axis=0)
        return flips if self.order == 2 ** int(flips.sum()) else None

    def orbit(self, x: np.ndarray) -> np.ndarray:
        """All images g(x), deduplicated."""
        x = np.asarray(x, dtype=float)
        images = self.matrices @ x
        keys = {tuple(np.round(im, 9)) for im in images}
        return np.array(sorted(keys))


def _matrix_key(m: np.ndarray) -> bytes:
    # adding 0.0 maps -0.0 to +0.0 so both share one byte pattern
    return (np.round(m, 9) + 0.0).tobytes()


def generate_group(spec: RootSystemSpec, max_order: int = MAX_GROUP_ORDER) -> ReflectionGroup:
    """Close the set of root reflections under multiplication.

    Raises GroupExplosionError if more than max_order distinct elements appear
    (the configured bound treats that as an infinite group).
    """
    dim = spec.dim
    gens = [reflection_matrix(a) for a in spec.roots]
    eye = np.eye(dim)
    seen = {_matrix_key(eye): eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = g @ m
                key = _matrix_key(prod)
                if key not in seen:
                    seen[key] = prod
                    nxt.append(prod)
                    if len(seen) > max_order:
                        raise GroupExplosionError(
                            f"reflection group exceeds order bound {max_order}; "
                            "the generated group is infinite or the bound is too small"
                        )
        frontier = nxt
    mats = np.array(sorted(seen.values(), key=_matrix_key))
    return ReflectionGroup(matrices=mats)


def orbit_distance(group: ReflectionGroup, x: np.ndarray, y: np.ndarray) -> float:
    """d(x, y) = min over g in G of |g(x) - y|."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    images = group.matrices @ x
    return float(np.min(np.linalg.norm(images - y, axis=1)))


def orbit_distance_pairwise(group: ReflectionGroup, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Orbit distances for batches xs (m, dim) and ys (m, dim), elementwise.

    On a sign-flip product group (every element diagonal) the minimum over
    G is taken axis by axis, in closed form:
        d(x, y)^2 = sum_d (|x_d| - |y_d|)^2 over the flipped axes
                    + sum_d (x_d - y_d)^2 over the others,
    which is bit-identical to the minimum over all |G| images.  Other
    groups form every image g(x).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    flips = group.flipped_axes
    if flips is not None:
        diff = np.where(flips, np.abs(xs) - np.abs(ys), xs - ys)
        return np.sqrt(np.add.reduce(diff * diff, axis=1))
    images = np.einsum("gij,mj->mgi", group.matrices, xs)
    return np.min(np.linalg.norm(images - ys[:, None, :], axis=2), axis=1)


def validate(spec: RootSystemSpec, max_order: int = MAX_GROUP_ORDER) -> list[str]:
    """Check the structural requirements; violations are returned as data."""
    problems: list[str] = []
    roots = spec.roots
    mult = spec.multiplicity

    norms2 = np.sum(roots**2, axis=1)
    bad = np.where(np.abs(norms2 - 2.0) > ROOT_NORM_TOL)[0]
    for i in bad:
        problems.append(f"root {i} has squared norm {norms2[i]!r}, expected 2")

    if np.any(mult < 0):
        problems.append("negative multiplicity")

    # closure of R under each of its reflections, and multiplicity invariance
    def find_root(v: np.ndarray) -> int:
        d = np.linalg.norm(roots - v, axis=1)
        j = int(np.argmin(d))
        return j if d[j] <= MATCH_TOL else -1

    closed = True
    for a in roots:
        for i, b in enumerate(roots):
            img = b - (2.0 * np.dot(b, a) / np.dot(a, a)) * a
            j = find_root(img)
            if j < 0:
                problems.append(
                    f"reflection in root {np.round(a, 6)} maps root {i} outside R"
                )
                closed = False
            elif abs(mult[j] - mult[i]) > MATCH_TOL:
                problems.append(
                    f"multiplicity not reflection-invariant: roots {i} -> {j}"
                )

    if closed and not bad.size:
        try:
            generate_group(spec, max_order=max_order)
        except GroupExplosionError:
            problems.append(f"generated group exceeds order bound {max_order}")
    return problems


def rank1(k: float) -> RootSystemSpec:
    """The rank-1 system {+-sqrt(2)} in R^1 with multiplicity k."""
    s = np.sqrt(2.0)
    return RootSystemSpec(roots=np.array([[s], [-s]]), multiplicity=np.array([k, k]))


def product_z2(ks) -> RootSystemSpec:
    """Coordinate product of rank-1 systems: roots +-sqrt(2) e_j, multiplicity k_j."""
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    dim = ks.size
    s = np.sqrt(2.0)
    roots = []
    mult = []
    for j, k in enumerate(ks):
        e = np.zeros(dim)
        e[j] = s
        roots.extend([e, -e])
        mult.extend([k, k])
    return RootSystemSpec(roots=np.array(roots), multiplicity=np.array(mult))


def dihedral(m: int, k: float) -> RootSystemSpec:
    """Dihedral system I2(m): 2m roots at angles pi/m apart in R^2.

    Constant multiplicity (sufficient for the measure/distance work these
    systems are scoped to).
    """
    if m < 2:
        raise InvalidRootSystemError("dihedral systems need m >= 2")
    s = np.sqrt(2.0)
    angles = np.arange(2 * m) * np.pi / m
    roots = s * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return RootSystemSpec(roots=roots, multiplicity=np.full(2 * m, float(k)))
