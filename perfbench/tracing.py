"""Outside-in tracing of dunkllab's layers, installed from the benchmark.

``install()`` wraps the public functions and methods of each dunkllab
module in a span recorder.  Modules that bind a name with
``from .x import y`` get the wrapper under that name too, so every call
site is traced.  Spans are kept in memory as tuples
``(id, name, start, end, parent, thread, count)`` and written out once, at
the end of the run.  ``layer_metrics()`` turns them into the per-layer
metrics named in BENCHMARK.json.

Nothing here edits dunkllab's files or reads its private cache state:
kernel-matrix cache hits are told apart from builds by the identity of the
arrays ``KernelMatrixCache.matrix`` returns.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import weakref
from time import perf_counter

import numpy as np

KINDS = ("thm1-decay", "thm2-two-point", "heat-gaussian-bound", "garding",
         "kernel-mass", "kernel-symmetry", "kernel-positivity",
         "kernel-semigroup", "kernel-scaling", "kernel-decomposition",
         "kernel-laplacian", "e-bound", "e-lipschitz",
         "translation-lipschitz", "compact-support-l1", "exp-weighted-l1")

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "count")


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.queue_waits: list[float] = []
        self.matrix_bytes_built = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._seen_matrices: dict[int, weakref.ref] = {}
        self._seen_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, count=None):
        """Span recorder around fn; ``count(args, kwargs, result)`` sizes the
        work of one call (default 1)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            n = 0
            try:
                out = fn(*args, **kwargs)
                n = 1 if count is None else count(args, kwargs, out)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent,
                                     threading.get_ident(), n))
        return traced

    def matrix_built(self, mat: np.ndarray) -> int:
        """1 if ``mat`` was not returned by an earlier lookup, else 0."""
        with self._seen_lock:
            ref = self._seen_matrices.get(id(mat))
            if ref is not None and ref() is mat:
                return 0
            self._seen_matrices[id(mat)] = weakref.ref(mat)
            self.matrix_bytes_built += mat.nbytes
            return 1


# ---------------------------------------------------------------------------
# work counts from argument and return shapes
# ---------------------------------------------------------------------------

def _size_of_arg(i):
    return lambda args, kwargs, out: int(np.size(args[i]))


def _size_of_result(args, kwargs, out):
    return int(np.size(out))


def _rows_of_arg(i):
    return lambda args, kwargs, out: int(np.atleast_2d(args[i]).shape[0])


def _orbit_images(args, kwargs, out):
    group = args[0]
    return int(np.size(out)) * int(group.order)


def _transform_macs(forward: bool):
    """Complex multiply-adds of the per-axis products between the grids."""
    def count(args, kwargs, out):
        ctx = args[0]
        src, dst = ctx.grid.shape, ctx.freq_grid.shape
        if not forward:
            src, dst = dst, src
        shape = list(src)
        macs = 0
        for d in range(len(shape)):
            rest = int(np.prod(shape)) // shape[d]
            macs += dst[d] * shape[d] * rest
            shape[d] = dst[d]
        return macs
    return count


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _rebind(original, wrapper):
    """Point every dunkllab module name bound to ``original`` at
    ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "dunkllab" or mod_name.startswith("dunkllab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _wrap_function(tracer, module, attr, name, count=None):
    original = getattr(module, attr)
    _rebind(original, tracer.wrap(original, name, count))


def _wrap_method(tracer, cls, attr, name, count=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapped = classmethod(tracer.wrap(raw.__func__, name, count))
    elif isinstance(raw, functools.cached_property):
        wrapped = functools.cached_property(tracer.wrap(raw.func, name, count))
        wrapped.__set_name__(cls, attr)
    else:
        wrapped = tracer.wrap(raw, name, count)
    setattr(cls, attr, wrapped)


def install() -> Tracer:
    """Wrap dunkllab's layers; call after ``import dunkllab``."""
    from dunkllab import (dunkl_kernel, fitting, forms, functions, kernels,
                          measure, operators, quadrature, root_systems,
                          runner, transform)

    t = Tracer()
    fn = functools.partial(_wrap_function, t)
    meth = functools.partial(_wrap_method, t)

    # runner: the check as a whole, validation, report writing, pool wait
    fn(runner, "validate_config", "runner.validate")
    for attr in ("_write_report_json", "write_summary_csv", "write_decay_csv"):
        fn(runner, attr, "runner.write")
    original_execute = runner._execute_one

    def execute_one(ctx, spec, chk):
        check = t.wrap(original_execute, "harness." + chk["kind"])
        return check(ctx, spec, chk)
    runner._execute_one = execute_one

    class TimedPool(runner.ThreadPoolExecutor):
        def submit(self, fn_, /, *args, **kwargs):
            submitted = perf_counter()

            def started(*a, **k):
                t.queue_waits.append(perf_counter() - submitted)
                return fn_(*a, **k)
            return super().submit(started, *args, **kwargs)
    runner.ThreadPoolExecutor = TimedPool

    fn(dunkl_kernel, "kernel_imag_parts", "dunkl_kernel.imag",
       _size_of_arg(0))
    fn(dunkl_kernel, "kernel_real_scaled", "dunkl_kernel.real",
       _size_of_arg(0))

    meth(quadrature.AxisRule, "build", "quadrature.rule")
    fn(quadrature, "roots_jacobi", "quadrature.jacobi")
    meth(quadrature.TensorGrid, "points", "quadrature.points", _size_of_result)

    meth(measure.WeightedContext, "c_k", "measure.c_k")
    fn(measure, "ball_volume", "measure.ball_volume")
    fn(measure, "roots_legendre", "measure.legendre")
    fn(measure, "weighted_norm", "measure.weighted_norm")

    fn(root_systems, "orbit_distance_pairwise", "root_systems.orbit_distance",
       _orbit_images)

    meth(transform.KernelMatrixCache, "matrix", "transform.matrix",
         lambda args, kwargs, out: t.matrix_built(out))
    fn(transform, "dunkl_transform", "transform.grid", _transform_macs(True))
    fn(transform, "inverse_dunkl_transform", "transform.grid",
       _transform_macs(False))
    fn(transform, "inverse_at_points", "transform.points", _size_of_result)

    fn(kernels, "two_point_kernel", "kernels.two_point", _size_of_result)
    fn(kernels, "heat_kernel_two_point", "kernels.heat_two_point",
       _size_of_result)
    fn(kernels, "dunkl_translate", "kernels.translate")
    fn(kernels, "translate_at_points", "kernels.translate")
    fn(kernels, "q_on_grid", "kernels.q_on_grid")
    fn(kernels, "evaluate_q", "kernels.evaluate_q")
    fn(kernels, "heat_kernel", "kernels.heat_kernel")

    meth(functions.PolyGauss, "__call__", "functions.polygauss",
         _rows_of_arg(1))

    fn(operators, "apply_dunkl", "operators.apply_dunkl")
    for attr in ("apply_dunkl_iterated", "dunkl_laplacian",
                 "dunkl_apply_values"):
        fn(operators, attr, "operators.other")

    for attr in ("form_a_s", "form_b_s_eps", "sobolev_norm_V",
                 "t_g_eta_values"):
        fn(forms, attr, "forms." + attr)

    for attr in ("fit_decay_exponent", "alternating_split", "envelope_fit",
                 "envelope_fit_upper", "envelope_holdout_ratio",
                 "ratio_constant_fit", "ratio_holdout_ratio", "garding_lp",
                 "garding_holdout_ratio"):
        fn(fitting, attr, "fitting." + attr)
    return t


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _span_table(spans):
    """Per span: name, duration, self time, parent name and work count.
    Self time subtracts the children that ran on the span's own thread."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, _, start, end, parent, thread, _ in spans:
        p = by_id.get(parent)
        if p is not None and p[5] == thread:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    rows = []
    for sid, name, start, end, parent, thread, count in spans:
        dur = end - start
        p = by_id.get(parent)
        rows.append((name, dur, dur - child_time.get(sid, 0.0),
                     p[1] if p is not None else "", count))
    return rows


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Per-layer metrics from the spans; ``extra`` holds values measured
    outside the spans (runner CPU time, report bytes)."""
    rows = _span_table(tracer.spans)

    def select(prefixes):
        return [r for r in rows if r[0].startswith(prefixes)]

    def outer(prefixes):
        """Spans of the group called from outside it: a nested or
        recursive call inside the group is not counted again."""
        return [r for r in select(prefixes) if not r[3].startswith(prefixes)]

    def self_s(*prefixes):
        return sum(r[2] for r in select(prefixes))

    def calls(*prefixes):
        return len(outer(prefixes))

    def named(name):
        return sum(1 for r in rows if r[0] == name)

    def named_s(name):
        return sum(r[1] for r in rows if r[0] == name)

    def work(*prefixes):
        return sum(r[4] for r in outer(prefixes))

    lookups = calls("transform.matrix")
    builds = work("transform.matrix")
    m = {
        "runner.validate_s": named_s("runner.validate"),
        "runner.write_s": named_s("runner.write"),
        "runner.report_bytes": extra["report_bytes"],
        "runner.queue_wait_s": sum(tracer.queue_waits),
        "runner.cpu_s": extra["cpu_s"],
    }
    for kind in KINDS:
        name = "harness." + kind
        m[name + ".wall_s"] = named_s(name)
        m[name + ".calls"] = named(name)
    m.update({
        "dunkl_kernel.imag.values": work("dunkl_kernel.imag"),
        "dunkl_kernel.imag.self_s": self_s("dunkl_kernel.imag"),
        "dunkl_kernel.real.values": work("dunkl_kernel.real"),
        "dunkl_kernel.real.self_s": self_s("dunkl_kernel.real"),
        "quadrature.rules_built": calls("quadrature.rule"),
        "quadrature.jacobi_builds": named("quadrature.jacobi"),
        "quadrature.rule.self_s": self_s("quadrature.rule",
                                         "quadrature.jacobi"),
        "quadrature.points.values": work("quadrature.points"),
        "quadrature.points.self_s": self_s("quadrature.points"),
        "measure.c_k.count": calls("measure.c_k"),
        "measure.c_k.self_s": self_s("measure.c_k"),
        "measure.ball_volume.calls": calls("measure.ball_volume"),
        "measure.ball_volume.self_s": self_s("measure.ball_volume",
                                             "measure.legendre"),
        "measure.legendre_builds": named("measure.legendre"),
        "measure.weighted_norm.calls": calls("measure.weighted_norm"),
        "measure.weighted_norm.self_s": self_s("measure.weighted_norm"),
        "root_systems.orbit_distance.images":
            work("root_systems.orbit_distance"),
        "root_systems.orbit_distance.self_s":
            self_s("root_systems.orbit_distance"),
        "transform.matrix.lookups": lookups,
        "transform.matrix.builds": builds,
        "transform.matrix.bytes_built": tracer.matrix_bytes_built,
        "transform.matrix.hit_ratio":
            (lookups - builds) / lookups if lookups else 0.0,
        "transform.matrix.self_s": self_s("transform.matrix"),
        "transform.grid.calls": calls("transform.grid"),
        "transform.grid.macs": work("transform.grid"),
        "transform.grid.self_s": self_s("transform.grid"),
        "transform.points.values": work("transform.points"),
        "transform.points.self_s": self_s("transform.points"),
        "kernels.two_point.pairs": work("kernels.two_point"),
        "kernels.two_point.self_s": self_s("kernels.two_point"),
        "kernels.heat_two_point.pairs": work("kernels.heat_two_point"),
        "kernels.heat_two_point.self_s": self_s("kernels.heat_two_point"),
        "kernels.translate.calls": calls("kernels.translate"),
        "kernels.q_on_grid.calls": calls("kernels.q_on_grid"),
        "kernels.self_s": self_s("kernels."),
        "functions.polygauss.points": work("functions.polygauss"),
        "functions.polygauss.self_s": self_s("functions.polygauss"),
        "operators.apply_dunkl.calls": named("operators.apply_dunkl"),
        "operators.self_s": self_s("operators."),
        "forms.calls": calls("forms."),
        "forms.self_s": self_s("forms."),
        "fitting.calls": calls("fitting."),
        "fitting.self_s": self_s("fitting."),
    })
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_built"):
        return "bytes"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"
