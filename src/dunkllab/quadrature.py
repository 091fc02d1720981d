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

Every whole-grid total of real values has the bits of ``np.sum`` of the
C-ordered float64 array (``TensorGrid.row_sum``): ``integrate`` sums
weight x integrand, and the shell check sums |integrand| dw.  numpy's
pairwise tree is followed down to leaves of at most ``BLOCK_BYTES``
(``pairwise_sum``), each formed from its rows of weights and integrand
alone, so a grid larger than one block forms no array of its size.  The
shell check's boundary-shell mass rides the total's leaves: each leaf adds
its shell values as it goes, so that mass keeps ``np.sum``'s bits only on
a grid of one leaf.  A grid whose float64 array fits in one block
(``TensorGrid.row_blocks`` is a single slice: 1-D grids, and 2-D grids up
to 724^2) forms its weights and its shell mask once and keeps both,
read-only, for its lifetime; a larger grid holds neither.
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
#: bytes of one block of the package's blocked grid loops: weight rows and
#: the leaves of ``pairwise_sum`` here, the transform's operands and results
#: in ``transform``.  Small next to a
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


def pairwise_sum(n: int, leaf, lo: int = 0) -> np.float64:
    """``np.sum`` of a C-ordered float64 sequence of n values, bit for bit,
    from ``leaf(lo, hi)``: its values lo..hi-1 as one array.

    numpy sums a contiguous array along a fixed pairwise tree (Higham,
    SIAM J. Sci. Comput. 14, 1993): above 128 values it splits n at n/2
    rounded down to a multiple of 8.  The same splits are taken here, down
    to leaves of at most ``BLOCK_BYTES`` of values, each summed by
    ``np.sum``, so only one leaf is alive at a time.  ``lo`` is where the
    sequence starts in ``leaf``'s indices."""
    if n <= max(BLOCK_BYTES // 8, 128):
        return np.sum(np.ravel(leaf(lo, lo + n)))
    half = n // 2 // 8 * 8
    return pairwise_sum(half, leaf, lo) + pairwise_sum(n - half, leaf,
                                                       lo + half)


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

    def outer_sum(self, fn, rows: slice = slice(None)) -> np.ndarray:
        """sum_d fn(d, x_d) on the grid, in its shape, built from the axis
        nodes by ``np.add.outer`` in axis order; on the given ``rows``
        (leading-axis indices) only, if given.  For dim <= 2 this equals
        the row sums of fn over the columns of ``points()`` bit for bit,
        without forming ``points()``."""
        total = fn(0, self.axes[0].nodes[rows])
        for d in range(1, self.dim):
            total = np.add.outer(total, fn(d, self.axes[d].nodes))
        return total

    def row_blocks(self) -> list[slice]:
        """``block_slices`` over the rows (leading-axis indices) of a
        float64 array on the grid."""
        n = self.shape[0]
        return block_slices(n, 8 * (self.size // n))

    def _held(self, name: str, form, rows: slice):
        """``form(rows)``.  On a one-block grid it is cut from ``form()``
        of all rows, formed once, made read-only and kept with the grid, so
        threads sharing the grid share the one array; a larger grid forms
        each on its own and keeps nothing."""
        held = self.__dict__.get(name)
        if held is None:
            if len(self.row_blocks()) > 1:
                return form(rows)
            with _HELD_LOCK:
                held = self.__dict__.get(name)
                if held is None:
                    held = form(slice(None))
                    held.flags.writeable = False
                    # the dataclass is frozen; the held arrays are not fields
                    self.__dict__[name] = held
        return held if rows == slice(None) else held[rows]

    def weight_rows(self, rows: slice = slice(None)) -> np.ndarray:
        """The weights of the nodes on ``rows`` (leading-axis indices, all
        by default) in the grid's shape; held with a one-block grid."""
        return self._held("_weights", self._weight_rows, rows)

    def _weight_rows(self, rows: slice) -> np.ndarray:
        block = self.axes[0].weights[rows]
        for ax in self.axes[1:]:
            block = np.multiply.outer(block, ax.weights)
        return block

    def refined(self) -> "TensorGrid":
        axes = tuple(
            AxisRule.build(ax.k, ax.half_width, refined_n_half(ax.n_half))
            for ax in self.axes
        )
        return TensorGrid(axes=axes)

    def integrate(self, values: np.ndarray) -> float | complex:
        """Integrate values sampled on the grid (tensor shape or flat):
        ``np.sum(weight_rows() * values)`` bit for bit.  A real integral
        is a ``row_sum``; a complex one sums one C-ordered buffer of the
        products, formed in row blocks."""
        v = np.asarray(values).reshape(self.shape)
        if not np.iscomplexobj(v):
            return self.row_sum(lambda rows: _weighted_rows(self, v, rows))
        out = np.empty(self.shape, dtype=complex)
        for rows in self.row_blocks():
            np.multiply(self.weight_rows(rows), v[rows], out=out[rows])
        return np.sum(out)

    def row_sum(self, rows_of, shell: bool = False):
        """``np.sum(a)`` bit for bit, for the float64 array ``a`` in the
        grid's shape whose ``rows`` (leading-axis indices) ``rows_of(rows)``
        forms; with ``shell``, (that sum, the sum of ``a`` on
        ``shell_rows()``).

        Each leaf of ``pairwise_sum`` forms the rows it covers by one
        ``rows_of``, so ``a`` is never whole on a grid of more than one
        block, and adds its shell values to the shell's sum as it goes.
        That sum is ``np.sum(a[shell_rows()])`` bit for bit on a one-leaf
        grid; on a larger one it is the leaves' sums added in order."""
        width = self.size // self.shape[0]
        shell_sums = []

        def leaf(lo: int, hi: int) -> np.ndarray:
            top = lo // width
            rows = slice(top, -(-hi // width))
            cut = slice(lo - top * width, hi - top * width)
            a = np.ravel(rows_of(rows))[cut]
            if shell:
                shell_sums.append(
                    np.sum(a[np.ravel(self.shell_rows(rows))[cut]]))
            return a

        total = pairwise_sum(self.size, leaf)
        return (total, sum(shell_sums)) if shell else total

    def shell_rows(self, rows: slice = slice(None)) -> np.ndarray:
        """Boolean array on ``rows`` (all by default) marking the outer
        boundary shell: per axis, the outer ``SHELL_FRACTION`` of the
        half-width.  Held with a one-block grid."""
        return self._held("_shell", self._shell_rows, rows)

    def _shell_rows(self, rows: slice) -> np.ndarray:
        masks = [np.abs(ax.nodes) > ax.half_width * (1.0 - SHELL_FRACTION)
                 for ax in self.axes]
        block = masks[0][rows]
        for mask in masks[1:]:
            block = np.logical_or.outer(block, mask)
        return block


def _weighted_rows(grid: TensorGrid, values: np.ndarray, rows: slice,
                   first=None) -> np.ndarray:
    """``weight_rows(rows) * first(values[rows])`` bit for bit, for values
    in the grid's shape and an elementwise ufunc ``first`` (none by
    default): a new float64 array, the weights multiplied in place."""
    v = values[rows]
    out = np.empty(v.shape)
    if first is None:
        return np.multiply(grid.weight_rows(rows), v, out=out)
    first(v, out=out)
    out *= grid.weight_rows(rows)
    return out


def _abs_mass(grid: TensorGrid, values: np.ndarray):
    """The rows of |values| dw per node, ``weight_rows() * np.abs(values)``
    bit for bit."""
    v = np.asarray(values).reshape(grid.shape)
    return lambda rows: _weighted_rows(grid, v, rows, np.abs)


def _shell_share(grid: TensorGrid, mass) -> tuple[float, float]:
    """(share of the per-node mass on the outer shell, its sum), for the
    mass whose rows ``mass`` forms."""
    total, shell = map(float, grid.row_sum(mass, shell=True))
    return (0.0 if total == 0.0 else shell / total), total


def boundary_shell_fraction(grid: TensorGrid, values: np.ndarray) -> float:
    """|integrand| mass carried by the outer shell, relative to the total."""
    return _shell_share(grid, _abs_mass(grid, values))[0]


def guard_shell(share: float, what: str, tol: float = SHELL_TOL,
                remedy: str | None = None) -> None:
    """DomainTooSmallError advising ``remedy`` (by default a larger box)
    unless ``share``, the boundary shell's share of a mass, is at most
    ``tol`` (a NaN share included)."""
    if not share <= tol:
        raise DomainTooSmallError(
            f"{what}: boundary shell carries {share:.3e} of the mass "
            f"(> {tol:.1e}); {remedy or 'enlarge the grid box'}")


def _checked_mass(grid: TensorGrid, mass, what: str,
                  remedy: str | None = None) -> float:
    """The sum of the per-node mass whose rows ``mass`` forms, which must be
    finite (else AccuracyError) and carry at most ``SHELL_TOL`` of itself
    on the boundary shell (else ``guard_shell``'s error)."""
    frac, total = _shell_share(grid, mass)
    if not np.isfinite(total):
        raise AccuracyError(
            f"{what} is not finite: its |values| dw mass is {total}")
    guard_shell(frac, what, remedy=remedy)
    return total


def check_shell(grid: TensorGrid, values: np.ndarray,
                what: str = "integrand", remedy: str | None = None) -> float:
    """Raise DomainTooSmallError, advising ``remedy``, if the boundary shell
    carries more than ``SHELL_TOL`` of the |values| dw mass, or
    AccuracyError if that mass is not finite; else return the mass, which
    equals ``grid.integrate(np.abs(values))`` bit for bit."""
    return _checked_mass(grid, _abs_mass(grid, values), what, remedy)


def integrate_shell_checked(grid: TensorGrid, values: np.ndarray,
                            what: str = "integrand") -> tuple[float, float]:
    """(``grid.integrate(values)``, ``check_shell(grid, values, what)``)
    of a real integrand, bit for bit; a complex one: TypeError.  The
    weights are positive, so |fl(w v)| = fl(w |v|): on a one-block grid
    both come from one buffer of the products, the integral from its sum
    and the mass from its absolute values."""
    if np.iscomplexobj(values):
        raise TypeError("integrate_shell_checked takes a real integrand")
    v = np.asarray(values).reshape(grid.shape)
    if len(grid.row_blocks()) > 1:
        return float(grid.integrate(v)), check_shell(grid, v, what)
    buf = _weighted_rows(grid, v, slice(None))
    integral = float(np.sum(buf))
    return integral, _checked_mass(grid, np.abs(buf, out=buf).__getitem__,
                                   what)


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
