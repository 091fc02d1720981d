"""Quadrature grids for the reflection-invariant weight |x|^{2k} per axis.

Each axis carries a rule on [-R, R] built from a Gauss-Jacobi rule on (0, R]
with the density 2^k |x|^{2k} folded into the weights, mirrored to the negative
half.  Splitting at the origin keeps the rule spectrally accurate for smooth
integrands times the (possibly kinked) density, and no node ever lands on a
reflection hyperplane.  For k = 0 the rule is plain Gauss-Legendre per half.

This module also holds the package's one accuracy guard.  ``check_refined``
accepts a value only if it stays put, by ``relative_move``, on the grid refined
by ``REFINE_FACTOR`` (node counts from ``refined_n_half``); ``check_shell``
rejects an integrand whose |values| dw mass is not finite, or whose outer
boundary shell carries more than ``SHELL_TOL`` of that mass.

``integrate`` and the shell check write weight x integrand into one
C-ordered buffer and sum it, the same bits as
``np.sum(weight_tensor() * values)``; ``integrate_shell_checked`` takes
both numbers of a real integrand from one such buffer.  A grid whose
float64 array fits in one block (``TensorGrid.row_blocks`` is a single
slice, ``BLOCK_BYTES`` a block: 1-D grids, and 2-D grids up to 724^2)
forms its weight tensor and its shell mask once and keeps both,
read-only, for its lifetime.  A larger grid holds neither: its weights
reach the integrand one block of rows at a time, so what stays grid-sized
is the one buffer, and the weight tensor is never formed whole.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import AccuracyError, DomainTooSmallError

REFINE_FACTOR = 1.5
SHELL_FRACTION = 0.05
SHELL_TOL = 1e-10
#: bytes of one block of the package's blocked grid loops: weight rows here,
#: the transform's operands and results in ``transform``.  Small next to a
#: grid-sized array, and large enough that a 240^2 grid of float64 is one
#: block.
BLOCK_BYTES = 4 * 2**20
#: guards the first forming of a grid's held arrays (``TensorGrid._held``)
_HELD_LOCK = threading.Lock()


def block_slices(n: int, row_bytes: int) -> list[slice]:
    """Slices over range(n), each about ``BLOCK_BYTES`` of rows of
    ``row_bytes``.  The widths are even (at least 2): mirrored node counts
    are even, so no block is a single row or column, which numpy would hand
    to gemv instead of gemm in a blocked matrix product."""
    step = max(2, BLOCK_BYTES // row_bytes // 2 * 2)
    return [slice(i, i + step) for i in range(0, n, step)]


def refined_n_half(n_half: int) -> int:
    """Nodes per half-axis of the refined grid: ``REFINE_FACTOR`` times
    ``n_half``, rounded up.  Every refinement in the package uses this."""
    return int(np.ceil(n_half * REFINE_FACTOR))


@lru_cache(maxsize=256)
def _jacobi_cached(n_half: int, two_k: float):
    return roots_jacobi(n_half, 0.0, two_k)


@dataclass(frozen=True)
class AxisRule:
    """Nodes/weights on [-R, R] with the density 2^k |x|^{2k} folded in."""

    nodes: np.ndarray
    weights: np.ndarray
    k: float
    half_width: float
    n_half: int

    @classmethod
    def build(cls, k: float, half_width: float, n_half: int) -> "AxisRule":
        t, w = _jacobi_cached(n_half, 2.0 * k)
        x = half_width * (t + 1.0) / 2.0
        w = w * (half_width / 2.0) ** (2.0 * k + 1.0) * 2.0**k
        nodes = np.concatenate([-x[::-1], x])
        weights = np.concatenate([w[::-1], w])
        return cls(nodes=nodes, weights=weights, k=k, half_width=half_width, n_half=n_half)

    @property
    def size(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class TensorGrid:
    """Tensor product of per-axis rules; weight of the full measure included."""

    axes: tuple[AxisRule, ...]

    @classmethod
    def build(cls, ks, half_widths, n_halves) -> "TensorGrid":
        ks = np.atleast_1d(np.asarray(ks, dtype=float))
        half_widths = np.broadcast_to(np.asarray(half_widths, dtype=float), ks.shape)
        n_halves = np.broadcast_to(np.asarray(n_halves, dtype=int), ks.shape)
        axes = tuple(
            AxisRule.build(k, hw, int(nh))
            for k, hw, nh in zip(ks, half_widths, n_halves)
        )
        return cls(axes=axes)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def geometry(self) -> tuple:
        """(k, half-width, n_half) per axis: what the grid is built from."""
        return tuple((ax.k, ax.half_width, ax.n_half) for ax in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def axis_nodes(self, d: int) -> np.ndarray:
        return self.axes[d].nodes

    def points(self) -> np.ndarray:
        """All grid points as an (size, dim) array (C order over axes)."""
        mesh = np.meshgrid(*[ax.nodes for ax in self.axes], indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def outer_sum(self, fn) -> np.ndarray:
        """sum_d fn(d, x_d) on the grid, in its shape, built from the axis
        nodes by ``np.add.outer`` in axis order.  For dim <= 2 this equals
        the row sums of fn over the columns of ``points()`` bit for bit,
        without forming ``points()``."""
        total = fn(0, self.axes[0].nodes)
        for d in range(1, self.dim):
            total = np.add.outer(total, fn(d, self.axes[d].nodes))
        return total

    def row_blocks(self) -> list[slice]:
        """``block_slices`` over the rows (leading-axis indices) of a
        float64 array on the grid."""
        n = self.shape[0]
        return block_slices(n, 8 * (self.size // n))

    def _held(self, name: str, compute) -> np.ndarray:
        """``compute()``; on a one-block grid formed once, made read-only
        and kept with the grid, so threads sharing the grid share the one
        array."""
        held = self.__dict__.get(name)
        if held is not None:
            return held
        if len(self.row_blocks()) > 1:
            return compute()
        with _HELD_LOCK:
            held = self.__dict__.get(name)
            if held is None:
                held = compute()
                held.flags.writeable = False
                # the dataclass is frozen; the held arrays are not fields
                self.__dict__[name] = held
        return held

    def weight_tensor(self) -> np.ndarray:
        """The weights of all nodes in the grid's shape; held with a
        one-block grid."""
        return self._held("_weights", lambda: self.weight_rows(slice(None)))

    def weight_rows(self, rows: slice) -> np.ndarray:
        """``weight_tensor()[rows]`` with its bits, formed on its own."""
        block = self.axes[0].weights[rows]
        for ax in self.axes[1:]:
            block = np.multiply.outer(block, ax.weights)
        return block

    def weighted(self, values: np.ndarray, out: np.ndarray,
                 first=None) -> np.ndarray:
        """``out = weight_tensor() * first(values)`` bit for bit, for values
        in the grid's shape and an elementwise ufunc ``first`` (none by
        default), one block of rows at a time: the held weight tensor on a
        one-block grid, else its rows formed per block.  ``out`` may be
        ``values``."""
        blocks = self.row_blocks()
        for rows in blocks:
            v = values[rows] if first is None else first(values[rows],
                                                         out=out[rows])
            # a block of weight rows lives for its product only
            np.multiply(self.weight_tensor() if len(blocks) == 1
                        else self.weight_rows(rows), v, out=out[rows])
        return out

    def refined(self) -> "TensorGrid":
        axes = tuple(
            AxisRule.build(ax.k, ax.half_width, refined_n_half(ax.n_half))
            for ax in self.axes
        )
        return TensorGrid(axes=axes)

    def integrate(self, values: np.ndarray) -> float | complex:
        """Integrate values sampled on the grid (tensor shape or flat):
        ``np.sum(weight_tensor() * values)`` bit for bit, the product
        formed in row blocks into one C-ordered buffer."""
        v = np.asarray(values).reshape(self.shape)
        out = np.empty(self.shape,
                       dtype=np.result_type(self.axes[0].weights, v))
        return np.sum(self.weighted(v, out))

    def shell_mask(self) -> np.ndarray:
        """Boolean tensor marking the outer boundary shell (per-axis outer
        ``SHELL_FRACTION`` of the half-width); held with a one-block grid."""
        return self._held("_shell", self._shell_mask)

    def _shell_mask(self) -> np.ndarray:
        masks = []
        for ax in self.axes:
            cut = ax.half_width * (1.0 - SHELL_FRACTION)
            masks.append(np.abs(ax.nodes) > cut)
        m = masks[0]
        for mm in masks[1:]:
            m = np.logical_or.outer(m, mm)
        return m


def _abs_mass(grid: TensorGrid, values: np.ndarray) -> np.ndarray:
    """|values| dw per node, in one C-ordered buffer: the bits of
    ``weight_tensor() * np.abs(values)``."""
    return grid.weighted(np.asarray(values).reshape(grid.shape),
                         np.empty(grid.shape), first=np.abs)


def _shell_share(grid: TensorGrid, mass: np.ndarray) -> tuple[float, float]:
    """(share of the per-node ``mass`` on the outer shell, its sum)."""
    total = float(np.sum(mass))
    if total == 0.0:
        return 0.0, total
    return float(np.sum(mass[grid.shell_mask()])) / total, total


def boundary_shell_fraction(grid: TensorGrid, values: np.ndarray) -> float:
    """|integrand| mass carried by the outer shell, relative to the total."""
    return _shell_share(grid, _abs_mass(grid, values))[0]


def _checked_mass(grid: TensorGrid, mass: np.ndarray, what: str) -> float:
    """The sum of the per-node ``mass``, which must be finite (else
    AccuracyError) and carry at most ``SHELL_TOL`` of itself on the boundary
    shell (else, a NaN share included, DomainTooSmallError)."""
    frac, total = _shell_share(grid, mass)
    if not np.isfinite(total):
        raise AccuracyError(
            f"{what} is not finite: its |values| dw mass is {total}")
    if not frac <= SHELL_TOL:
        raise DomainTooSmallError(
            f"{what}: boundary shell carries {frac:.3e} of the mass "
            f"(> {SHELL_TOL:.1e}); enlarge the grid box"
        )
    return total


def check_shell(grid: TensorGrid, values: np.ndarray,
                what: str = "integrand") -> float:
    """Raise DomainTooSmallError if the boundary shell carries more than
    ``SHELL_TOL`` of the |values| dw mass, or AccuracyError if that mass is
    not finite; else return the mass, which equals
    ``grid.integrate(np.abs(values))`` bit for bit."""
    return _checked_mass(grid, _abs_mass(grid, values), what)


def integrate_shell_checked(grid: TensorGrid, values: np.ndarray,
                            what: str = "integrand") -> tuple[float, float]:
    """(``grid.integrate(values)``, ``check_shell(grid, values, what)``)
    of a real integrand, bit for bit, from one weighted float64
    buffer.  The weights are positive, so |fl(w v)| = fl(w |v|): the
    products sum to the integral and their absolute values to the mass.  A
    complex integrand cannot be cast to the buffer: TypeError."""
    buf = grid.weighted(np.asarray(values).reshape(grid.shape),
                        np.empty(grid.shape))
    integral = float(np.sum(buf))
    return integral, _checked_mass(grid, np.abs(buf, out=buf), what)


def relative_move(value, reference, floor: float = 1e-300) -> float:
    """sup |value - reference| / max(sup |reference|, floor), for scalars or
    arrays alike."""
    move = float(np.max(np.abs(np.subtract(value, reference))))
    return move / max(float(np.max(np.abs(reference))), floor)


def check_refined(base, fine, tol: float, what: str, floor: float = 1e-300):
    """Return ``fine``, the value on the refined grid, if it moved from
    ``base`` by at most ``tol`` relative to max(sup |fine|, floor); else (a
    NaN move included) raise AccuracyError."""
    move = relative_move(base, fine, floor)
    if not move <= tol:
        raise AccuracyError(
            f"{what} unstable under refinement: relative move {move:.3e} "
            f"(> {tol:.1e}); increase resolution"
        )
    return fine
