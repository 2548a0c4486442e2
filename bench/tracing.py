"""Timing spans around boxproj's public functions, installed from outside.

`Tracer.install()` replaces each traced function under every name a caller
looks it up by (the defining module, every boxproj module that imported it
by name, and the package namespace), and methods on their classes.  Spans
are kept in flat arrays in memory and written out when the run ends.  Only
calls made while a task is open are recorded; oracle checks run with the
tracer idle.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np
from scipy.sparse.linalg import SuperLU

NO_TASK = -1

# The modules whose namespaces are searched for imported copies of a
# traced function.
MODULES = ("boxproj", "boxproj.lattice", "boxproj.boxspline", "boxproj.bernoulli",
           "boxproj.quadrature", "boxproj.projection", "boxproj.testfunctions",
           "boxproj.asymptotics")

# Bytes of one stored factor entry: an 8-byte value and a 4-byte row index.
_FACTOR_ENTRY_BYTES = 8 + 4


def _npoints(x) -> int:
    arr = np.asarray(x)
    return 1 if arr.ndim <= 1 else int(arr.shape[0])


class _TracedFactor:
    """Stands in for the SuperLU object `projection` caches on a model."""

    def __init__(self, tracer: "Tracer", lu):
        self._lu = lu
        self.solve = tracer.wrap("projection.solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedSparseLinalg:
    """Stands in for `scipy.sparse.linalg` inside `boxproj.projection`."""

    def __init__(self, tracer: "Tracer", module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if not callable(attr):
            return attr
        traced = self._tracer.wrap("projection.solve", attr, after=self._tracer._after_linalg)

        def call(*args, **kwargs):
            out = traced(*args, **kwargs)
            return _TracedFactor(self._tracer, out) if isinstance(out, SuperLU) else out

        return call


class Tracer:
    """In-memory span recorder: name, start, end, parent span and task id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task_of = array("i")
        self.counts: Counter = Counter()
        self.residual_max = 0.0
        self.gram_sets: set = set()
        self.task = NO_TASK
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task_of.append(self.task)
        self.end.append(0.0)
        self._stack.append(idx)
        self._depth[name] += 1
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[name] -= 1

    def outermost(self, name: str) -> bool:
        """True when no span called `name` is open, e.g. in the `after` of
        a call that was not nested in another call of the same name."""
        return self._depth[name] == 0

    def wrap(self, name, fn, after=None, generator=False):
        """fn inside a span called `name` (no span when name is None);
        `after(args, kwargs, out, exc)` records counts once the span has
        closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.task == NO_TASK:
                return fn(*args, **kwargs)
            out = exc = None
            idx = self._open(name) if name is not None else None
            try:
                out = fn(*args, **kwargs)
                if generator:
                    out = tuple(out)
            except BaseException as err:
                exc = err
                raise
            finally:
                if idx is not None:
                    self._close(idx, name)
                if after is not None:
                    after(args, kwargs, out, exc)
            return iter(out) if generator else out

        return traced

    # -- installing --------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, module: str, attr: str, name: str, after=None) -> None:
        fn = getattr(sys.modules[module], attr)
        new = self.wrap(name, fn, after, generator=inspect.isgeneratorfunction(fn))
        for mod_name in MODULES:
            mod = sys.modules[mod_name]
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._replace(mod, key, new)

    def patch_method(self, module: str, cls: str, attr: str, name: str, after=None) -> None:
        owner = getattr(sys.modules[module], cls)
        self._replace(owner, attr, self.wrap(name, owner.__dict__[attr], after))

    def install(self) -> None:
        """Wrap the public functions of every measured module."""
        import boxproj.projection as projection

        c = self.counts

        def calls(key):
            def after(args, kwargs, out, exc):
                c[key] += 1
            return after

        def points(key, arg):
            def after(args, kwargs, out, exc):
                c[key] += _npoints(args[arg])
            return after

        def eval_after(args, kwargs, out, exc):
            c["boxspline.eval_points"] += _npoints(args[1])
            if out is not None:
                c["boxspline.eval_nonzero"] += int(np.count_nonzero(out))

        def gram_after(args, kwargs, out, exc):
            c["projection.gram_tables"] += 1
            self.gram_sets.add(tuple(sorted(getattr(args[0], "vectors", args[0]))))

        def build_after(args, kwargs, out, exc):
            if out is not None:
                c["projection.unknowns"] += out.unknowns

        def project_after(args, kwargs, out, exc):
            if isinstance(exc, projection.SolverError):
                c["projection.solver_errors"] += 1
            if out is not None:
                self.residual_max = max(self.residual_max, float(out.residual))

        def f_points(args, kwargs, out, exc):
            if self.outermost("testfunctions.f"):
                c["testfunctions.f_points"] += _npoints(args[-1])

        def accumulate_after(args, kwargs, out, exc):
            c["quadrature.integrate_points"] += len(args[1])

        P = self.patch_function
        M = self.patch_method
        M("boxproj.boxspline", "BoxSplineEvaluator", "__call__", "boxspline.eval", eval_after)
        M("boxproj.boxspline", "BoxSplineEvaluator", "__init__", "boxspline.evaluator_init",
          calls("boxspline.evaluators_built"))
        P("boxproj.boxspline", "fourier_transform", "boxspline.transform",
          calls("boxspline.transform_calls"))
        P("boxproj.boxspline", "transform_derivative", "boxspline.transform",
          calls("boxspline.transform_calls"))
        P("boxproj.projection", "build_model", "projection.build_model", build_after)
        P("boxproj.projection", "autocorrelation_table", "projection.gram", gram_after)
        P("boxproj.projection", "project", "projection.project", project_after)
        P("boxproj.projection", "spline_values", "projection.spline_values",
          points("projection.spline_value_points", 2))
        P("boxproj.projection", "error_norm", "projection.error_norm")
        M("boxproj.projection", "SplineSpaceModel", "matrix", "projection.matrix")
        self._replace(projection, "spla", _TracedSparseLinalg(self, projection.spla))
        for cls in ("Gaussian", "Bump", "Monomial"):
            M("boxproj.testfunctions", cls, "derivative", "testfunctions.f", f_points)
        # reproduce's f is the benchmark's own sum of monomials: its whole
        # evaluation, the summing included, is f evaluation, not projection.
        M("workloads", "Polynomial", "value", "testfunctions.f", f_points)
        P("boxproj.quadrature", "cell_rule", "quadrature.cell_rule",
          calls("quadrature.cell_rules"))
        P("boxproj.quadrature", "integrate", "quadrature.integrate")
        P("boxproj.quadrature", "_accumulate", None, accumulate_after)
        P("boxproj.bernoulli", "monomial_error_series", "bernoulli.series")
        P("boxproj.bernoulli", "error_expansion", "bernoulli.closed")
        M("boxproj.bernoulli", "ErrorFunctionExpansion", "evaluate", "bernoulli.closed")
        M("boxproj.bernoulli", "BernoulliSplineTerm", "evaluate", "bernoulli.closed",
          points("bernoulli.closed_points", 1))
        for attr in ("hyperplane_classes", "multi_indices", "product_derivative",
                     "nonorthogonal_directions", "integer_rank", "deletion_margin"):
            P("boxproj.lattice", attr, "lattice", calls("lattice.calls"))
        P("boxproj.asymptotics", "error_constant", "asymptotics.constant")
        P("boxproj.asymptotics", "error_constant_l2", "asymptotics.constant")
        P("boxproj.asymptotics", "directional_derivative", "asymptotics.dirderiv",
          points("asymptotics.dirderiv_points", 2))

    def _after_linalg(self, args, kwargs, out, exc):
        if isinstance(out, SuperLU):
            self.counts["projection.factorizations"] += 1
            self.counts["projection.factor_nnz"] += int(out.nnz)
            self.counts["projection.factor_bytes"] += (
                int(out.nnz) * _FACTOR_ENTRY_BYTES + out.perm_r.nbytes + out.perm_c.nbytes)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.task_of, dtype=np.int32))

    def layer_times(self):
        """Busy and self seconds per span name.

        Busy time counts only the outermost span of a name (a recursive or
        nested call is not counted twice); self time is a span's duration
        minus the durations of its direct children.
        """
        name, start, end, parent, _ = self.arrays()
        dur = end - start
        n = len(dur)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n)
        self_t = dur - child
        nested = np.zeros(n, dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            nested[live] |= name[anc[live]] == name[live]
            anc = np.where(live, parent[np.maximum(anc, 0)], -1)
        busy, selft = {}, {}
        for nid, label in enumerate(self.names):
            mine = name == nid
            busy[label] = float(dur[mine & ~nested].sum())
            selft[label] = float(self_t[mine].sum())
        top = float(dur[parent < 0].sum())
        return busy, selft, top

    def write(self, path) -> None:
        name, start, end, parent, task = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name,
                            start=start, end=end, parent=parent, task=task)

