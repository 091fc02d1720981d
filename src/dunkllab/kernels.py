"""Semigroup kernels q_t^(eps) and h_t, Dunkl translation, two-point kernels.

The generator symbol is sym(xi) = sum_j <zeta_j, xi>^{2l} - eps |xi|^2 and

    q_t^(eps)      = c_k^{-1} F^{-1}(exp(-t sym))
    h_t(x)         = c_k^{-1} (2t)^{-N_h/2} exp(-|x|^2/(4t))        (N_h homogeneous)
    q_t(x, y)      = tau_x q_t(-y)
                   = c_k^{-2} int E(i xi, x) E(-i xi, y) e^{-t sym(xi)} dw(xi)
    h_t(x, y)      = c_k^{-1} (2t)^{-N_h/2} e^{-(|x|^2+|y|^2)/(4t)}
                       E(x/sqrt(2t), y/sqrt(2t))                    (closed form)

Direct quadrature covers t in [0.25, 4]; outside, homogeneity rescales to
t = 1 first:  q_t^(eps)(x) = t^{-N_h/(2l)} q_1^(eps')(t^{-1/(2l)} x) with
eps' = eps t^{(l-1)/l}.

On the grid, q_t and tau_x f are the real part of a grid inverse, whose
imaginary residue ``transform.inverse_dunkl_transform`` checks; the point
evaluators check theirs with the same guard (``_real_part_checked``).

The structural identity checks (``kernel-*``) are entered in the one
registry (``checks.CHECKS``) next to their bodies, with their declared
parameters; ``runner.run_check`` is the one way to run a registered kind.
Their criteria are module constants (``MASS_TOL`` ... ``LAPLACIAN_TOL``),
read when a check runs and recorded in its report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dunkl_kernel import kernel_imag_outer, kernel_real_scaled
from .checks import (GRID_SCHEMA, POINTS_SCHEMA, SPEC, Derived, Param,
                     grid_params, integer, number, numbers, register)
from .errors import (AccuracyError, CapabilityError, DomainTooSmallError,
                     SymbolError)
from .functions import (GridSampled, PolyGauss, gaussian, monomial_gauss,
                        sample)
from .measure import WeightedContext
from .operators import apply_dunkl_iterated, dunkl_laplacian
from .quadrature import TensorGrid
from .root_systems import as_point, as_points
from .report import VerificationReport, grid_metadata
from .transform import (_real_part_checked, dunkl_convolve, dunkl_transform,
                        inverse_at_points, inverse_dunkl_transform,
                        point_sums, spectrum_of)

T_DIRECT_MIN = 0.25
T_DIRECT_MAX = 4.0
#: symbol exponential must be below this on the frequency-box boundary shell.
SYMBOL_BOUNDARY_TOL = 1e-15
#: target for sizing frequency boxes from the symbol decay.
SYMBOL_SIZING_TOL = 1e-18


def spanning_directions(directions) -> tuple:
    """The directions as a tuple of J rows of floats; SymbolError unless
    each is nonzero and together they span R^dim (``KernelSpec``,
    ``BilinearFormSpec``)."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if np.min(np.linalg.norm(dirs, axis=1)) == 0.0:
        raise SymbolError("directions must be nonzero")
    if np.linalg.matrix_rank(dirs) < dirs.shape[1]:
        raise SymbolError("directions must span the ambient space")
    return tuple(map(tuple, dirs))


def _check_time(t: float) -> None:
    """SymbolError unless the time t of a kernel is positive."""
    if t <= 0:
        raise SymbolError("time t must be positive")


@dataclass(frozen=True)
class KernelSpec:
    """Directions zeta_j, order l, perturbation eps, time t of q_t^(eps);
    building one is the one gate of an operator and its time (SymbolError),
    which needs a ``freq_box_for`` box in (0, inf), kept as ``symbol_box``."""

    directions: tuple
    ell: int
    eps: float = 0.0
    t: float = 1.0
    symbol_box: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ell not in (1, 2, 3):
            raise SymbolError("kernel order l must be 1, 2 or 3")
        _check_time(self.t)
        if self.eps < 0:
            raise SymbolError("eps must be nonnegative")
        # a |zeta|^2 past float64 leaves a box of 0
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "directions",
                               spanning_directions(self.directions))
            box = freq_box_for(self)
        if not 0.0 < box < np.inf:
            raise SymbolError(
                f"the symbol's frequency box is {box:g}, so no grid holds "
                "exp(-t sym)", key="directions" if box == 0.0 else None)
        object.__setattr__(self, "symbol_box", box)

    @classmethod
    def heat(cls, dim: int, t: float = 1.0) -> "KernelSpec":
        """Axis directions with l=1 and eps=0: symbol |xi|^2, kernel h_t."""
        return cls(directions=tuple(tuple(row) for row in np.eye(dim)),
                   ell=1, eps=0.0, t=t)

    @classmethod
    def from_config(cls, cfg: dict, dim: int) -> "KernelSpec":
        """The kernel of a config's ``kernel`` section, or of a check's
        ``params.spec`` (same shape); directions default to the axes."""
        dirs = cfg.get("directions") or np.eye(dim)
        return cls(directions=tuple(tuple(map(float, z)) for z in dirs),
                   ell=int(cfg.get("ell", 1)), eps=float(cfg.get("eps", 0.0)),
                   t=float(cfg.get("t", 1.0)))

    def to_dict(self) -> dict:
        """The JSON shape read by ``from_config``."""
        return {"directions": [list(z) for z in self.directions],
                "ell": self.ell, "eps": self.eps, "t": self.t}

    @property
    def dim(self) -> int:
        return len(self.directions[0])

    def direction_arrays(self) -> list[np.ndarray]:
        return [np.asarray(z, dtype=float) for z in self.directions]

    def symbol(self, xi) -> np.ndarray:
        """sym at the frequencies ``xi`` (``as_points``), one value each."""
        xi = as_points(xi, self.dim)
        total = np.zeros(len(xi))
        for z in self.direction_arrays():
            total += (xi @ z) ** (2 * self.ell)
        if self.eps:
            total -= self.eps * np.sum(xi**2, axis=1)
        return total

    def min_direction_coefficient(self) -> float:
        """min over unit xi of sum_j <zeta_j, xi>^{2l} (without the eps term)."""
        if self.dim == 1:
            return float(sum(abs(z[0]) ** (2 * self.ell)
                             for z in self.direction_arrays()))
        if self.dim == 2:
            ang = np.linspace(0.0, np.pi, 4096, endpoint=False)
            u = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            vals = np.zeros(len(u))
            for z in self.direction_arrays():
                vals += (u @ z) ** (2 * self.ell)
            return float(vals.min())
        raise NotImplementedError("symbol analysis implemented for dim <= 2")


def freq_box_for(spec: KernelSpec) -> float:
    """Radius B with exp(-t sym) < SYMBOL_SIZING_TOL outside the box
    |xi|_inf <= B; SymbolError when sym is not positive (l = 1 only)."""
    level = np.log(1.0 / SYMBOL_SIZING_TOL) / spec.t
    cmin = spec.min_direction_coefficient()
    if spec.ell == 1:
        gram = sum(np.outer(z, z) for z in spec.direction_arrays())
        lam_min = float(np.linalg.eigvalsh(gram)[0])
        if spec.eps >= lam_min:
            raise SymbolError(
                f"symbol positivity violated: for l=1 need eps < lambda_min"
                f"(sum zeta zeta^T) = {lam_min:.6g}; got eps={spec.eps}")
        if spec.eps > 0:
            # quadratic symbol with its eps-reduced smallest eigenvalue
            return float(np.sqrt(level / (lam_min - spec.eps)))
    b = (level / cmin) ** (1.0 / (2 * spec.ell))
    for _ in range(8):
        b = ((level + spec.eps * b * b) / cmin) ** (1.0 / (2 * spec.ell))
    return float(b)


def _unit_time_spec(spec: KernelSpec) -> KernelSpec:
    """The unit-time spec of the homogeneity law q_t(x) =
    t^{-N_h/(2l)} q_1^{unit}(t^{-1/(2l)} x), with eps' = eps t^{(l-1)/l}."""
    t, ell = spec.t, spec.ell
    return replace(spec, eps=spec.eps * t ** ((ell - 1.0) / ell), t=1.0)


def integrated_spec(spec: KernelSpec) -> KernelSpec:
    """The spec the point evaluators integrate: spec itself for t in
    [T_DIRECT_MIN, T_DIRECT_MAX] (the one window test), else at unit time."""
    if T_DIRECT_MIN <= spec.t <= T_DIRECT_MAX:
        return spec
    return _unit_time_spec(spec)


def finite_power(base: float, exponent: float, what: str, at: str) -> float:
    """base ** exponent, the amplitude of a homogeneity law; AccuracyError
    "<what> overflows at <at>" unless it is a finite float."""
    try:
        value = base ** exponent
    except OverflowError:
        value = np.inf
    if not np.isfinite(value):
        raise AccuracyError(f"{what} overflows at {at}")
    return value


def _symbol_exp_on(spec: KernelSpec, grid: TensorGrid) -> np.ndarray:
    """exp(-t sym) on the frequency grid, which must hold its decay: below
    ``SYMBOL_BOUNDARY_TOL`` on a nonempty boundary shell, and above it
    somewhere, or every node underflowed and each identity holds as 0 = 0."""
    vals = np.exp(-spec.t * sample(spec.symbol, grid))
    peak = float(np.max(vals))
    box = max(ax.half_width for ax in grid.axes)
    if not peak > SYMBOL_BOUNDARY_TOL:
        raise AccuracyError(
            f"symbol exponential is at most {peak:.3g} at every node of the "
            f"frequency grid: freq_box {box:.3g} leaves no node where q_t's "
            f"spectrum lives; lower freq_box to about {spec.symbol_box:.3g}"
            " or raise freq_n_half")
    shell = vals[grid.shell_mask()]
    if not shell.size:
        raise DomainTooSmallError(
            f"no node of the frequency grid lies on its boundary shell at "
            f"freq_box {box:.3g}; enlarge the frequency box to about "
            f"{spec.symbol_box:.3g}")
    worst = float(np.max(shell))
    if worst > SYMBOL_BOUNDARY_TOL:
        raise DomainTooSmallError(
            f"symbol exponential is {worst:.3g} on the frequency-box shell; "
            f"enlarge the frequency box to about {spec.symbol_box:.3g}")
    return vals


def _at_unit_time(ctx: WeightedContext, spec: KernelSpec, unit: KernelSpec,
                  evaluate, *batches) -> np.ndarray:
    """``evaluate(ctx, spec, *batches)`` by the homogeneity law,
    t^{-N_h/(2l)} evaluate(ctx, unit, *(lam batches)), with ``unit`` the
    unit-time spec of ``spec`` and lam = t^{-1/(2l)}."""
    lam = spec.t ** (-1.0 / (2.0 * spec.ell))
    amp = finite_power(spec.t, -ctx.homogeneous_dim / (2.0 * spec.ell),
                       "the homogeneity law's amplitude t^(-N_h/(2l))",
                       f"t = {spec.t:g}")
    return amp * evaluate(ctx, unit, *(pts * lam for pts in batches))


def evaluate_q(ctx: WeightedContext, spec: KernelSpec, x) -> np.ndarray:
    """q_t^(eps) at the points ``x`` (``as_points``), one value each."""
    pts = as_points(x, ctx.dim)
    unit = integrated_spec(spec)
    if unit is not spec:
        return _at_unit_time(ctx, spec, unit, evaluate_q, pts)
    sym = _symbol_exp_on(spec, ctx.freq_grid)
    vals = inverse_at_points(ctx, sym, pts) / ctx.c_k
    return _real_part_checked(vals, "q_t")


def q_on_grid(ctx: WeightedContext, spec: KernelSpec) -> GridSampled:
    """q_t^(eps) sampled on the spatial grid of the context."""
    if integrated_spec(spec) is not spec:
        raise CapabilityError(
            f"q_t on the spatial grid covers t in [{T_DIRECT_MIN:g}, "
            f"{T_DIRECT_MAX:g}] only; got t = {spec.t:g}")
    sym = _symbol_exp_on(spec, ctx.freq_grid)
    # the second c_k^{-1} is applied to the complex result, block by block
    return inverse_dunkl_transform(ctx, sym, then=(np.divide, ctx.c_k))


def _heat_amplitude(ctx: WeightedContext, t: float) -> float:
    """c_k^{-1} (2t)^{-N_h/2}, the amplitude of h_t, for a time t > 0."""
    _check_time(t)
    return finite_power(2.0 * t, -ctx.homogeneous_dim / 2.0,
                        "the heat kernel's amplitude (2t)^(-N_h/2)",
                        f"t = {t:g}") / ctx.c_k


def heat_kernel(ctx: WeightedContext, x, t: float) -> np.ndarray:
    """h_t(x) = c_k^{-1} (2t)^{-N_h/2} exp(-|x|^2/(4t)).

    ``x`` is points (``as_points``), one value each, or a TensorGrid: then
    the values come in the grid's shape, formed from its axes and in place.
    """
    amp = _heat_amplitude(ctx, t)
    if isinstance(x, TensorGrid):
        out = x.outer_sum(lambda d, u: u**2)
        np.negative(out, out=out)
        out /= 4.0 * t
        np.exp(out, out=out)
        out *= amp
        return out
    pts = as_points(x, ctx.dim)
    return amp * np.exp(-np.sum(pts**2, axis=1) / (4.0 * t))


def heat_kernel_two_point(ctx: WeightedContext, x, y, t: float) -> np.ndarray:
    """Closed-form h_t(x, y) for each pair (``two_point_kernel``), evaluated
    in exponentially scaled form."""
    amp = _heat_amplitude(ctx, t)
    xs, ys = np.broadcast_arrays(as_points(x, ctx.dim),
                                 as_points(y, ctx.dim))
    ks = ctx.system.ks
    expo = -np.sum((np.abs(xs) - np.abs(ys)) ** 2, axis=1) / (4.0 * t)
    prod = np.ones(len(xs))
    for d in range(ctx.dim):
        prod *= kernel_real_scaled(xs[:, d] * ys[:, d] / (2.0 * t), ks[d])
    return amp * np.exp(expo) * prod


def _shifted_spectrum(ctx: WeightedContext, f, x) -> np.ndarray:
    """F f(xi) E(i xi, x) on the frequency grid for one point x, with F f
    from ``transform.spectrum_of``."""
    x = as_point(x, ctx.dim)
    tf = spectrum_of(ctx, f)
    axis_vals = []
    for d in range(ctx.dim):
        re, im = kernel_imag_outer(x[d:d + 1], ctx.freq_grid.axis_nodes(d),
                                   ctx.system.ks[d])
        axis_vals.append(re[0] + 1j * im[0])
    return tf * (axis_vals[0] if ctx.dim == 1
                 else np.multiply.outer(*axis_vals))


def dunkl_translate(ctx: WeightedContext, f, x) -> GridSampled:
    """tau_x f on the spatial grid: F^{-1}[E(i xi, x) F f(xi)], for one
    point x; ``f`` as in ``_shifted_spectrum``."""
    return inverse_dunkl_transform(ctx, _shifted_spectrum(ctx, f, x))


def translate_at_points(ctx: WeightedContext, f, x, points) -> np.ndarray:
    """tau_x f at ``points`` (``as_points``), for one point x."""
    vals = inverse_at_points(ctx, _shifted_spectrum(ctx, f, x), points)
    return _real_part_checked(vals, "translated function")


def two_point_kernel(ctx: WeightedContext, spec: KernelSpec, x, y) -> np.ndarray:
    """q_t(x, y) = tau_x q_t(-y) for each pair of points x, y (``as_points``;
    one point broadcasts against a batch), by one frequency quadrature."""
    xs, ys = np.broadcast_arrays(as_points(x, ctx.dim),
                                 as_points(y, ctx.dim))
    unit = integrated_spec(spec)
    if unit is not spec:
        return _at_unit_time(ctx, spec, unit, two_point_kernel, xs, ys)
    grid = ctx.freq_grid
    sym = _symbol_exp_on(spec, grid)
    n = len(xs)
    pair_axis = []
    for d in range(ctx.dim):
        # x and y rows in one evaluation: each distinct |coordinate| once
        re, im = kernel_imag_outer(np.concatenate([xs[:, d], ys[:, d]]),
                                   grid.axis_nodes(d), ctx.system.ks[d])
        pair_axis.append((re[:n] + 1j * im[:n]) * (re[n:] - 1j * im[n:])
                         * grid.axes[d].weights[None, :])
    return _real_part_checked(point_sums(pair_axis, sym) / ctx.c_k**2,
                              "two-point kernel")


# ---------------------------------------------------------------------------
# structural identity checks
# ---------------------------------------------------------------------------

#: criteria of the identity checks, recorded as ``tolerance`` and ``tol``
MASS_TOL = 1e-6
SYMMETRY_TOL = 1e-8
SEMIGROUP_TOL = 1e-7
SCALING_TOL = 1e-7
DECOMPOSITION_TOL = 1e-6
LAPLACIAN_TOL = 1e-8

#: grid keys of ``convolution_rule``
CONVOLUTION_GRID = grid_params(
    box=Derived("12 for l = 1, else 48"),
    n_half=Derived("the config's for l = 1, else 600"),
    freq_box=Derived("1.1 x the decay radius of the symbol at the smallest "
                     "time"),
    freq_n_half=Derived("200"))


#: frequency-grid keys of ``freq_rule``
FREQ_GRID = grid_params(
    freq_box=Derived("1.1 x the decay radius of the symbol"),
    freq_n_half=Derived("the config's"))


def check_context(ctx: WeightedContext, params: dict,
                  **rule) -> WeightedContext:
    """The context a check runs on: each grid key given in ``params``, else
    the check's ``rule`` (grid keys to values, or to functions of no
    argument, called only for a key not given), else the config's."""
    given = {key: params[key] for key in GRID_SCHEMA["properties"]
             if params.get(key) is not None}
    ruled = {key: value() if callable(value) else value
             for key, value in rule.items() if key not in given}
    return ctx.with_grids(**ruled, **given)


def freq_box_margin(*specs: KernelSpec) -> float:
    """ceil(1.1 x the largest ``symbol_box`` of ``specs``): the frequency
    box that holds the symbol decay of each with a 10% margin."""
    return float(np.ceil(1.1 * max(spec.symbol_box for spec in specs)))


def freq_rule(spec: KernelSpec) -> dict:
    """A frequency box that holds the symbol decay of the spec the point
    evaluators integrate (``integrated_spec``)."""
    return {"freq_box": freq_box_margin(integrated_spec(spec))}


def spatial_rule(spec: KernelSpec) -> dict:
    """The spatial grid of q of order l >= 2, which decays slowly: a 48 box
    on 600 nodes per half-axis; none (the config's grid) for l = 1."""
    return {"box": 48.0, "n_half": 600} if spec.ell > 1 else {}


def convolution_rule(spec: KernelSpec, t_min: float) -> dict:
    """Grids for convolutions of q: a 12 box for l = 1, else the
    ``spatial_rule``; on 200 nodes per half-axis, a frequency box that holds
    the symbol decay at time ``t_min``, whose spec is built only if needed."""
    return {"box": 12.0, **spatial_rule(spec),
            "freq_box": lambda: freq_box_margin(replace(spec, t=t_min)),
            "freq_n_half": 200}


def _identity_rule(spec: KernelSpec, params: dict, t_min: float) -> dict:
    """The ``convolution_rule``, or none (the config's grids) for l = 1 with
    no grid key given."""
    if spec.ell == 1 and not any(map(params.get, GRID_SCHEMA["properties"])):
        return {}
    return convolution_rule(spec, t_min)


def _default_points(dim: int, radii=(0.0, 1.0, 3.0)) -> np.ndarray:
    pts = np.zeros((len(radii), dim))
    pts[:, 0] = radii
    return pts


@register("kernel-mass",
          "unit mass: integral of h_t(x, .) against the weighted measure "
          "equals 1 for each probe point x",
          number("t", 1.0, exclusiveMinimum=0),
          Param("points", POINTS_SCHEMA,
                Derived("0, 1 and 3 on the first axis")))
def _check_mass(ctx: WeightedContext, spec: KernelSpec,
                params: dict) -> VerificationReport:
    t = params["t"]
    points = as_points(params["points"] or _default_points(ctx.dim), ctx.dim)
    grid_pts = ctx.grid.points()
    masses = []
    for x in points:
        vals = heat_kernel_two_point(ctx, x, grid_pts, t)
        masses.append(float(ctx.grid.integrate(vals.reshape(ctx.grid.shape))))
    defect = max(abs(m - 1.0) for m in masses)
    return VerificationReport.from_defect(
        "kernel-mass", {"t": t, "points": points.tolist(), "tol": MASS_TOL},
        defect, MASS_TOL, fitted={"masses": masses}, grid=grid_metadata(ctx))


def _pair_sample(ctx: WeightedContext, n: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20240817)
    xs = rng.uniform(-radius, radius, size=(n, ctx.dim))
    ys = rng.uniform(-radius, radius, size=(n, ctx.dim))
    return xs, ys


@register("kernel-symmetry",
          "symmetry of the two-point kernel: q_t(x,y) = q_t(y,x) on sampled "
          "pairs",
          integer("n_pairs", 20, minimum=1),
          number("radius", 2.5, exclusiveMinimum=0), SPEC)
def _check_symmetry(ctx: WeightedContext, spec: KernelSpec,
                    params: dict) -> VerificationReport:
    n = params["n_pairs"]
    xs, ys = _pair_sample(ctx, n, params["radius"])
    qxy = two_point_kernel(ctx, spec, xs, ys)
    qyx = two_point_kernel(ctx, spec, ys, xs)
    scale = max(float(np.max(np.abs(qxy))), 1e-300)
    defect = float(np.max(np.abs(qxy - qyx))) / scale
    return VerificationReport.from_defect(
        "kernel-symmetry", {"spec": spec.to_dict(), "n_pairs": n,
                            "tol": SYMMETRY_TOL},
        defect, SYMMETRY_TOL, fitted={"scale": scale}, grid=grid_metadata(ctx))


@register("kernel-positivity",
          "positivity of the heat kernel: h_t(x,y) > 0 on sampled pairs and "
          "times",
          numbers("t_set", [0.5, 1.0, 2.0], exclusiveMinimum=0),
          integer("n_pairs", 50, minimum=1),
          number("radius", 3.0, exclusiveMinimum=0))
def _check_positivity(ctx: WeightedContext, spec: KernelSpec,
                      params: dict) -> VerificationReport:
    t_set, n = params["t_set"], params["n_pairs"]
    xs, ys = _pair_sample(ctx, n, params["radius"])
    min_val = float(np.min([np.min(heat_kernel_two_point(ctx, xs, ys, t))
                            for t in t_set]))
    defect = max(0.0, -min_val) if min_val > 0.0 else max(1e-300, -min_val)
    return VerificationReport.from_defect(
        "kernel-positivity", {"t_set": t_set, "n_pairs": n}, defect, 0.0,
        fitted={"min_value": min_val}, grid=grid_metadata(ctx))


@register("kernel-semigroup",
          "semigroup law: q_{t/2} convolved with itself equals q_t in sup "
          "norm; for l = 1 with no grid key the config's grids are used",
          SPEC, *CONVOLUTION_GRID)
def _check_semigroup(ctx: WeightedContext, spec: KernelSpec,
                     params: dict) -> VerificationReport:
    cctx = check_context(ctx, params,
                         **_identity_rule(spec, params, spec.t / 2.0))
    half = q_on_grid(cctx, replace(spec, t=spec.t / 2.0))
    conv = dunkl_convolve(cctx, half, half)
    direct = q_on_grid(cctx, spec)
    defect = float(np.max(np.abs(conv.values - direct.values)))
    return VerificationReport.from_defect(
        "kernel-semigroup", {"spec": spec.to_dict(), "tol": SEMIGROUP_TOL},
        defect, SEMIGROUP_TOL,
        fitted={"sup_q": float(np.max(np.abs(direct.values)))},
        grid=grid_metadata(cctx))


@register("kernel-scaling",
          "parabolic scaling: q_t(x) = t^{-N_h/(2l)} "
          "q_1^{(eps t^{(l-1)/l})}(t^{-1/(2l)} x) with N_h the homogeneous "
          "dimension",
          numbers("t_values", [0.5, 2.0], minimum=T_DIRECT_MIN,
                  maximum=T_DIRECT_MAX),
          SPEC)
def _check_scaling(ctx: WeightedContext, spec: KernelSpec,
                   params: dict) -> VerificationReport:
    t_values = params["t_values"]
    pts = _default_points(ctx.dim, radii=np.linspace(0.0, 2.0, 9))
    specs = [replace(spec, t=t) for t in t_values]
    units = [_unit_time_spec(spec_t) for spec_t in specs]
    # each side integrates q_t at t or at unit time; enlarge the frequency
    # box only when it cannot hold the symbol decay of every spec integrated
    integrated = [*specs, *units]
    if ctx.freq_box < max(spec_i.symbol_box for spec_i in integrated):
        ctx = check_context(ctx, params, freq_box=freq_box_margin(*integrated))
    defect = 0.0
    for spec_t, unit in zip(specs, units):
        lhs = evaluate_q(ctx, spec_t, pts)
        rhs = _at_unit_time(ctx, spec_t, unit, evaluate_q, pts)
        defect = max(defect, float(np.max(np.abs(lhs - rhs))))
    return VerificationReport.from_defect(
        "kernel-scaling", {"spec": spec.to_dict(), "t_values": t_values,
                           "tol": SCALING_TOL},
        defect, SCALING_TOL, grid=grid_metadata(ctx))


@register("kernel-decomposition",
          "perturbative decomposition: q_1 equals q_1^{(eps+eps0)} convolved "
          "with two copies of h_{eps0/2}; for l = 1 with no grid key the "
          "config's grids are used",
          number("eps0", 0.1, exclusiveMinimum=0), SPEC,
          *CONVOLUTION_GRID)
def _check_decomposition(ctx: WeightedContext, spec: KernelSpec,
                         params: dict) -> VerificationReport:
    eps0 = params["eps0"]
    cctx = check_context(ctx, params, **_identity_rule(spec, params,
                                                       eps0 / 2.0))
    q_eps = q_on_grid(cctx, replace(spec, eps=spec.eps + eps0))
    # h_{eps0/2} enters both convolutions: transform it once
    h_half = dunkl_transform(cctx, GridSampled(
        grid=cctx.grid, values=heat_kernel(cctx, cctx.grid, eps0 / 2.0)))
    step1 = dunkl_convolve(cctx, q_eps, h_half)
    step2 = dunkl_convolve(cctx, step1, h_half)
    direct = q_on_grid(cctx, spec)
    defect = float(np.max(np.abs(step2.values - direct.values)))
    return VerificationReport.from_defect(
        "kernel-decomposition",
        {"spec": spec.to_dict(), "eps0": eps0, "tol": DECOMPOSITION_TOL},
        defect, DECOMPOSITION_TOL,
        fitted={"sup_q": float(np.max(np.abs(direct.values)))},
        grid=grid_metadata(cctx))


def _laplacian_battery(dim: int) -> list[PolyGauss]:
    if dim == 1:
        fams = [gaussian(1, 0.5), monomial_gauss([1], [0.5]),
                monomial_gauss([2], [0.4]), monomial_gauss([3], [0.6]),
                monomial_gauss([4], [0.5])]
    else:
        fams = [gaussian(dim, 0.5)]
        for d in range(dim):
            powers = [0] * dim
            powers[d] = 2
            fams.append(monomial_gauss(powers, [0.5] * dim))
        fams.append(monomial_gauss([1] * dim, [0.4] * dim))
    return fams


@register("kernel-laplacian",
          "Dunkl Laplacian consistency: the divided-difference formula agrees "
          "with composing first-order Dunkl operators, sum_j T_j^2")
def _check_laplacian(ctx: WeightedContext, spec: KernelSpec,
                     params: dict) -> VerificationReport:
    pts = _default_points(ctx.dim, radii=np.linspace(-3.0, 3.0, 13))
    if ctx.dim == 2:
        pts[:, 1] = 0.7 * pts[:, 0] + 0.3
    defect = 0.0
    for f in _laplacian_battery(ctx.dim):
        via_formula = dunkl_laplacian(ctx.system, f)(pts)
        compose = None
        for e_d in np.eye(ctx.dim):
            term = apply_dunkl_iterated(ctx.system, e_d, f, 2)
            compose = term if compose is None else compose + term
        via_compose = compose(pts)
        scale = max(float(np.max(np.abs(via_formula))), 1.0)
        defect = max(defect, float(np.max(np.abs(via_formula - via_compose))) / scale)
    # the report keeps its earlier name: stored reference reports use it
    return VerificationReport.from_defect(
        "kernel-laplacian-consistency", {"tol": LAPLACIAN_TOL}, defect,
        LAPLACIAN_TOL, grid=grid_metadata(ctx))
