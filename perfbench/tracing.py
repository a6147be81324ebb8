"""Spans and counters recorded from outside the qkepler package.

The tracer replaces public functions of the qkepler modules with
wrappers for the length of a traced pass and restores them afterwards;
nothing inside ``src/`` knows about it.  Every module attribute bound to
the original function object is swapped, so ``from .rep import
weyl_dim`` style imports inside the package are traced as well.

A timed wrapper records a span: its duration goes to the callee, and the
callee's parent loses that duration from its self time.  Hot per-call
kernels (quaternion products, Laguerre recurrences) are only counted, to
keep the tracing overhead bounded; their time stays in the caller's self
time.
"""

from __future__ import annotations

import time
from collections import defaultdict

from workloads import (EIGEN_GRIDS, GENFUNC_K, WEYL_RANKS, grid_label,
                       package_modules)

# the 14 stages of `qkepler verify all`, named after cli._verify_<stage>
STAGES = ("eigensolve", "collapse", "dim_equality", "genfunc", "dims",
          "ktype_dims", "casimir", "residuals", "twist", "micz", "metric",
          "ostar", "schur", "orthogonality")
IMPORTS = ("qkepler", "qkepler.radial", "scipy.linalg")


class Tracer:
    """Per-key call counts, inclusive and self times, sums and maxima."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.sums = defaultdict(float)
        self.maxes = defaultdict(float)
        self.seen_norms: set = set()
        self._stack: list[float] = []

    def begin_op(self) -> None:
        # one CLI process serves one operation, so caches start empty per op
        self.seen_norms.clear()

    def timed(self, fn, keys, observe=None):
        """Wrap ``fn`` in a span charged to the keys ``keys(args, kwargs)``."""

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            self._stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                for key in keys(args, kwargs):
                    self.calls[key] += 1
                    self.total[key] += dt
                    self.self_time[key] += dt - child
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, key, observe=None):
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if observe is not None:
                observe(self, args, kwargs, None)
            return fn(*args, **kwargs)

        return wrapper


def _swap(modules, old, new) -> list:
    """Rebind every module attribute that is ``old`` to ``new``."""
    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


def _fixed(key):
    return lambda args, kwargs: (key,)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _weyl_keys(args, kwargs):
    rs = _arg(args, kwargs, 0, "rs")
    keys = ["rep.weyl_dim"]
    if rs.family == "C" and rs.rank in WEYL_RANKS:
        keys.append(f"rep.weyl_dim.n{rs.rank}")
    return keys


def _genfunc_keys(args, kwargs):
    K = _arg(args, kwargs, 1, "K")
    keys = ["spectral.genfunc_check"]
    if K in GENFUNC_K:
        keys.append(f"spectral.genfunc_check.K{K}")
    return keys


def _eigen_keys(args, kwargs):
    g = _arg(args, kwargs, 2, "grid_size", 4000)
    keys = ["radial.eigensolve"]
    if g in EIGEN_GRIDS:
        keys.append(f"radial.eigensolve.{grid_label(g)}")
    return keys


def _observe_eigen(energy):
    def observe(tr, args, kwargs, vals):
        p = _arg(args, kwargs, 0, "p")
        l = _arg(args, kwargs, 1, "l")
        g = _arg(args, kwargs, 2, "grid_size", 4000)
        if g not in EIGEN_GRIDS:
            return
        err = max(abs(float(v) - float(energy(p, i + l)))
                  / abs(float(energy(p, i + l))) for i, v in enumerate(vals))
        key = f"radial.eigensolve.err.{grid_label(g)}"
        tr.maxes[key] = max(tr.maxes[key], err)
    return observe


def _observe_samples(factor):
    def observe(tr, args, kwargs, result):
        tr.sums["geom.samples"] += factor * _arg(args, kwargs, 1, "samples")
    return observe


def _observe_points(tr, args, kwargs, result):
    order = _arg(args, kwargs, 3, "order", 16)
    panels = _arg(args, kwargs, 4, "panels", 24)
    tr.sums["quadrature.points"] += order * panels


def _observe_norm(which):
    def observe(tr, args, kwargs, result):
        s = args[0]
        key = (which, s.params.n, s.params.sigma_bar, s.k, s.l)
        tr.sums["radial.norm_cache.lookups"] += 1
        if key in tr.seen_norms:
            tr.sums["radial.norm_cache.hits"] += 1
        tr.seen_norms.add(key)
    return observe


def install(tr: Tracer):
    """Wrap the traced qkepler functions; returns a callable that undoes it."""
    from qkepler import (cli, geom, qlinalg, quadrature, radial, report,
                         rep, spectral)

    plan = [
        (geom, "metric_sweep", tr.timed, (_fixed("geom.metric_sweep"),
                                          _observe_samples(1))),
        (geom, "quotient_sweep", tr.timed, (_fixed("geom.quotient_sweep"),
                                            _observe_samples(1))),
        (geom, "ostar_sweep", tr.timed, (_fixed("geom.ostar_sweep"),
                                         _observe_samples(2))),
        (qlinalg, "quat_mul", tr.counted, ("qlinalg.quat_mul",)),
        (qlinalg, "qdot", tr.counted, ("qlinalg.qdot",)),
        (qlinalg, "complexify_matrix", tr.timed,
         (_fixed("qlinalg.complexify_matrix"),)),
        (rep, "weyl_dim", tr.timed, (_weyl_keys,)),
        (rep, "casimir", tr.timed, (_fixed("rep.casimir"),)),
        (rep, "schur_norm", tr.timed, (_fixed("rep.schur_norm"),)),
        (spectral, "genfunc_check", tr.timed, (_genfunc_keys,)),
        (spectral, "degeneracy", tr.counted, ("spectral.degeneracy",)),
        (spectral, "dimension_equality_check", tr.timed,
         (_fixed("spectral.dimension_equality_check"),)),
        (radial, "eigensolve", tr.timed,
         (_eigen_keys, _observe_eigen(spectral.energy))),
        (radial, "kepler_residual", tr.timed,
         (_fixed("radial.kepler_residual"),)),
        (radial, "oscillator_residual", tr.timed,
         (_fixed("radial.oscillator_residual"),)),
        (radial, "laguerre", tr.counted, ("radial.laguerre",)),
        (radial, "radial_norm2_t", tr.counted,
         ("radial.radial_norm2_t", _observe_norm("t"))),
        (radial, "radial_norm2_rho", tr.counted,
         ("radial.radial_norm2_rho", _observe_norm("rho"))),
        (quadrature, "composite_gauss_legendre", tr.timed,
         (_fixed("quadrature.composite_gauss_legendre"), _observe_points)),
        (report, "emit", tr.timed, (_fixed("report.emit"),)),
    ]
    plan += [(cli, f"_verify_{stage}", tr.timed,
              (_fixed(f"cli.verify.{stage}"),)) for stage in STAGES]

    modules = package_modules()
    undo = []
    for mod, attr, make, extra in plan:
        orig = getattr(mod, attr, None)
        if orig is None:  # renamed or removed: its metrics read zero
            continue
        undo += _swap(modules, orig, make(orig, *extra))
    matmul = qlinalg.QMatrix.__dict__.get("__matmul__")
    if matmul is not None:
        qlinalg.QMatrix.__matmul__ = tr.counted(matmul,
                                                "qlinalg.QMatrix.matmul")
        undo.append((qlinalg.QMatrix, "__matmul__", matmul))

    def restore():
        for obj, attr, val in reversed(undo):
            setattr(obj, attr, val)

    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_call(tr, key, kind="self"):
    spent = tr.self_time if kind == "self" else tr.total
    return _ratio(spent[key], tr.calls.get(key, 0))


def layer_metrics(tr: Tracer, ops: int) -> dict:
    """Per-layer metrics from one traced pass over ``ops`` operations.

    ``*.self_s`` and ``*.total_s`` are the mean self and inclusive times
    of one call, ``*.calls`` the calls per workload operation; all read
    zero where the workload never reaches the function.
    """
    m = {}

    def per_op(key):
        return tr.calls.get(key, 0) / ops

    stage_total = sum(tr.total[f"cli.verify.{s}"] for s in STAGES)
    for s in STAGES:
        key = f"cli.verify.{s}"
        m[f"{key}.self_s"] = (_per_call(tr, key), "s")
        m[f"{key}.total_s"] = (_per_call(tr, key, "total"), "s")
    sweeps = ("geom.metric_sweep", "geom.quotient_sweep", "geom.ostar_sweep")
    sweep_total = sum(tr.total[k] for k in sweeps)
    m["cli.verify.metric_ostar.share"] = (_ratio(
        tr.total["cli.verify.metric"] + tr.total["cli.verify.ostar"],
        stage_total), "fraction")
    m["cli.verify.geom_qlinalg.share"] = (_ratio(sweep_total, stage_total),
                                          "fraction")
    for k in sweeps:
        m[f"{k}.self_s"] = (_per_call(tr, k), "s")
    m["geom.samples_per_s"] = (_ratio(tr.sums["geom.samples"], sweep_total),
                               "1/s")
    for k in ("qlinalg.quat_mul", "qlinalg.qdot", "qlinalg.QMatrix.matmul"):
        m[f"{k}.calls"] = (per_op(k), "count")
    m["qlinalg.complexify_matrix.self_s"] = (
        _per_call(tr, "qlinalg.complexify_matrix"), "s")
    for n in WEYL_RANKS:
        m[f"rep.weyl_dim.self_s.n{n}"] = (
            _per_call(tr, f"rep.weyl_dim.n{n}"), "s")
    m["rep.weyl_dim.calls"] = (per_op("rep.weyl_dim"), "count")
    m["rep.casimir.self_s"] = (_per_call(tr, "rep.casimir"), "s")
    m["rep.schur_norm.self_s"] = (_per_call(tr, "rep.schur_norm"), "s")
    for K in GENFUNC_K:
        key = f"spectral.genfunc_check.K{K}"
        m[f"spectral.genfunc_check.self_s.K{K}"] = (_per_call(tr, key), "s")
        # dimension_equality_check is a traced child; this is the kernel row
        m[f"spectral.genfunc_check.total_s.K{K}"] = (
            _per_call(tr, key, "total"), "s")
    m["spectral.degeneracy.calls"] = (per_op("spectral.degeneracy"), "count")
    m["spectral.dimension_equality_check.self_s"] = (
        _per_call(tr, "spectral.dimension_equality_check"), "s")
    for g in EIGEN_GRIDS:
        lab = grid_label(g)
        m[f"radial.eigensolve.self_s.{lab}"] = (
            _per_call(tr, f"radial.eigensolve.{lab}"), "s")
        m[f"radial.eigensolve.err.{lab}"] = (
            tr.maxes[f"radial.eigensolve.err.{lab}"], "relative")
    for k in ("radial.kepler_residual", "radial.oscillator_residual"):
        m[f"{k}.self_s"] = (_per_call(tr, k), "s")
    m["radial.laguerre.calls"] = (per_op("radial.laguerre"), "count")
    m["radial.norm_cache.hit_ratio"] = (_ratio(
        tr.sums["radial.norm_cache.hits"],
        tr.sums["radial.norm_cache.lookups"]), "fraction")
    q = "quadrature.composite_gauss_legendre"
    m[f"{q}.calls"] = (per_op(q), "count")
    m[f"{q}.self_s"] = (_per_call(tr, q), "s")
    m[f"{q}.points"] = (_ratio(tr.sums["quadrature.points"],
                               tr.calls.get(q, 0)), "count")
    m["report.emit.self_s"] = (_per_call(tr, "report.emit"), "s")
    return m


def parse_importtime(stderr: str) -> dict:
    """(self, cumulative) seconds per module from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:  # the header line
            continue
        out[parts[2].strip()] = (self_us / 1e6, cum_us / 1e6)
    return out


