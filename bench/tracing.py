"""Spans around the public functions of each hopfwave module, kept in memory.

The wrappers are installed from outside the package: every binding of a
traced function in a ``hopfwave`` module is replaced, including the copies
that ``from .quadrature import ...`` and ``from .model import linearize``
leave in other modules. ``periodic`` looks ``scipy.linalg`` functions up at
call time, so those are replaced on ``scipy.linalg`` itself. The RK4
right-hand-side closures in ``eigen`` are not traced: they run about 115k
times per certificate and are not a module boundary.

A span is ``[name, parent index, start, end, raised]``. A layer's self time
is its busy time minus the time covered by its direct child spans.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

PACKAGE = "hopfwave"

# (span name, module, attribute): a dotted attribute names a class method
TARGETS = [
    ("cli.main", "cli", "main"),
    ("cli.load_problem", "cli", "load_problem"),
    ("exprlang.eval", "exprlang", "Expr.eval"),
    ("exprlang.diff", "exprlang", "Expr.diff"),
    ("model.linearize", "model", "linearize"),
    ("quadrature.cumulative_integral", "quadrature", "cumulative_integral"),
    ("quadrature.integral", "quadrature", "integral"),
    ("eigen.certify", "eigen", "certify"),
    ("eigen.find_tau0", "eigen", "find_tau0"),
    ("eigen.shoot_evp", "eigen", "shoot_evp"),
    ("eigen.check_A2", "eigen", "check_A2"),
    ("eigen.solve_adjoint", "eigen", "solve_adjoint"),
    ("direction.check_structure", "direction", "check_structure"),
    ("direction.compute_direction", "direction", "compute_direction"),
    ("periodic.newton_solve", "periodic", "newton_solve"),
    ("periodic.residual", "periodic", "residual"),
    ("periodic.apply_B", "periodic", "apply_B"),
    ("periodic.apply_C", "periodic", "apply_C"),
    ("periodic.apply_D", "periodic", "apply_D"),
    ("periodic.pde_residual_check", "periodic", "pde_residual_check"),
    ("timedomain.step", "timedomain", "Simulator.step"),
]
# called by periodic.newton_solve through the scipy.linalg namespace
SCIPY_TARGETS = [
    ("periodic.rank_check", "lstsq"),
    ("periodic.lu_factor", "lu_factor"),
    ("periodic.lu_solve", "lu_solve"),
]


class Tracer:
    """Installs the wrappers and collects spans until uninstalled."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
        return traced

    def _patch(self, owner, attr, name, original):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, module, attr in TARGETS:
            home = importlib.import_module(f"{PACKAGE}.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, name, cls.__dict__[meth])
                continue
            original = getattr(home, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, name, original)
        import scipy.linalg
        for name, attr in SCIPY_TARGETS:
            self._patch(scipy.linalg, attr, name, getattr(scipy.linalg, attr))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_stats(spans):
    """Per span name: {"calls", "busy_s", "self_s", "raised"}."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, _, start, end, raised) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                    "raised": 0})
        s["calls"] += 1
        s["busy_s"] += end - start
        s["self_s"] += end - start - child[i]
        s["raised"] += int(raised)
    return stats


def _stat(stats, name, field):
    return stats.get(name, {}).get(field, 0)


def layer_metric(stats, metric):
    """Value of one per-layer metric from the stats of one traced pass.

    ``<span>.calls``, ``<span>.busy_s`` and ``<span>.self_s`` read the
    stats directly; the rest are derived. Ratios per converged orbit are 0
    when the pass converged none.
    """
    orbits = (_stat(stats, "periodic.newton_solve", "calls")
              - _stat(stats, "periodic.newton_solve", "raised"))
    per_orbit = {"periodic.residual_per_orbit": "periodic.residual",
                 "periodic.steps_per_orbit": "periodic.lu_solve",
                 "periodic.jacobians_per_orbit": "periodic.rank_check"}
    if metric == "periodic.orbits":
        return orbits
    if metric in per_orbit:
        calls = _stat(stats, per_orbit[metric], "calls")
        return calls / orbits if orbits else 0.0
    if metric == "timedomain.us_per_step":
        calls = _stat(stats, "timedomain.step", "calls")
        return 1e6 * _stat(stats, "timedomain.step", "busy_s") / calls if calls else 0.0
    span, _, field = metric.rpartition(".")
    if field not in ("calls", "busy_s", "self_s"):
        raise KeyError(f"no rule for per-layer metric {metric!r}")
    return _stat(stats, span, field)


def write_spans(path, passes):
    """Write the spans of every traced pass as gzipped JSON."""
    rows = []
    for p, (t0, spans) in enumerate(passes):
        rows.extend([p, i, parent, name, start - t0, end - t0, raised]
                    for i, (name, parent, start, end, raised) in enumerate(spans))
    doc = {"fields": ["pass", "id", "parent", "name", "start_s", "end_s", "raised"],
           "spans": rows}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
