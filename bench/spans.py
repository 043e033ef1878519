"""Span tracing of the mconvex layers, installed from outside the package.

``Tracer.install`` replaces the public functions the benchmark follows with
wrappers that record one span per call: name, start, end, parent span,
thread, and the number of points the call was handed. No package code is
changed; the wrappers are put into every ``mconvex`` module namespace that
holds the original function, so calls through ``from .x import f`` are
caught as well. Spans live in flat arrays in memory and are written out
once, at the end of the run.

Each thread has its own span stack. The first span of a pool thread takes
as parent the span open on the main thread at that moment (for the package,
``cli.chunked_map``), so the children of one span may overlap in time; a
span's self time is therefore its duration minus the union of its
children's intervals, never minus their sum.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array

import numpy as np

# (module, function, index of the positional argument holding the points)
FUNCTIONS = (
    ("numkit", "sym_eigen", None),
    ("surfaces", "principal_curvatures", None),
    ("surfaces", "m_flatness_report", 1),
    ("tubular", "reach_estimate", 1),
    ("tubular", "curvature_bounds_check", 3),
    ("tubular", "collar_points", None),
    ("mpsh", "grid_verdict", 1),
    ("mpsh", "min_m_trace", None),
    ("barrier", "build_barrier", None),
    ("barrier", "verify_barrier", 1),
    ("discs", "subharmonicity_sweep", None),
    ("discs", "composition_laplacian", None),
    ("hyperbolicity", "metric_upper_bound", None),
    ("hyperbolicity", "omega_d_distance_chain", None),
    ("hyperbolicity", "plane_escape_trials", None),
    ("hyperbolicity", "convex_contains_2plane", None),
    ("cli", "run", None),
    ("cli", "chunked_map", 1),
    ("config", "load_config", None),
    ("config", "validate", None),
    ("report", "emit", None),
)

# BarrierFunction methods; argument 0 is the instance.
BARRIER_METHODS = (
    ("delta", None),
    ("delta_batch", 1),
    ("value", None),
    ("value_from_delta", None),
    ("value_batch", 1),
    ("gradient", None),
    ("hessian", None),
    ("eigen_list", None),
    ("level_delta", None),
    ("hessian_batch", 1),
)

DOMAIN_FIELDS = ("phi", "grad", "hess")


def _rows(a) -> int:
    """Points in an array of shape (..., n); a single point counts as one."""
    if not isinstance(a, np.ndarray):
        a = np.asarray(a)
    if a.ndim < 2:
        return 1
    return a.size // a.shape[-1]


class Tracer:
    """In-memory span recorder with per-thread stacks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.thread = array("i")
        self.points = array("q")
        self.start = array("d")
        self.end = array("d")
        self.multi_foot = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = 0
        self._main_stack = self._stack()

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            with self._lock:
                local.tid = self._threads
                self._threads += 1
            local.stack = []
            return local.stack

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.get(name)
                if nid is None:
                    nid = self._ids[name] = len(self.names)
                    self.names.append(name)
        return nid

    def wrap(self, fn, name: str, points_arg=None, namer=None, on_result=None):
        """Return ``fn`` recording a span per call.

        ``namer(args, kwargs)`` may pick the span name per call; the name
        table is shared, so it returns a name, not an id.
        """
        nid = self._name(name)
        lock, main_stack, clock = self._lock, self._main_stack, time.perf_counter
        name_id, parents, threads = self.name_id, self.parent, self.thread
        points, starts, ends = self.points, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = nid if namer is None else self._name(namer(args, kwargs))
            n = _rows(args[points_arg]) if points_arg is not None and len(args) > points_arg else 0
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = -1
            with lock:
                idx = len(starts)
                name_id.append(i)
                parents.append(parent)
                threads.append(self._local.tid)
                points.append(n)
                ends.append(0.0)
                starts.append(clock())
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        """Wrap the followed functions of an imported ``mconvex`` package."""
        modules = [package] + [
            getattr(package, m)
            for m in ("numkit", "surfaces", "tubular", "mpsh", "barrier", "discs",
                      "hyperbolicity", "cli", "config", "report")
        ]

        def replace(original, wrapped):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

        for mod_name, fn_name, pts in FUNCTIONS:
            original = getattr(getattr(package, mod_name), fn_name)
            replace(original, self.wrap(original, f"{mod_name}.{fn_name}", pts))

        tubular = package.tubular
        project = tubular.project_batch

        def projection_kind(args, kwargs):
            domain = args[0]
            if domain.exact_projection is not None:
                return "tubular.project_batch.exact"
            warm = kwargs.get("warm_feet", args[3] if len(args) > 3 else None)
            return "tubular.project_batch." + ("warm" if warm is not None else "cold")

        def count_multi(out):
            hits = int(np.count_nonzero(np.asarray(out[2]) > 1))
            with self._lock:
                self.multi_foot += hits

        for kind in ("exact", "warm"):
            self._name(f"tubular.project_batch.{kind}")
        replace(project, self.wrap(project, "tubular.project_batch.cold", 1,
                                   namer=projection_kind, on_result=count_multi))

        cls = package.barrier.BarrierFunction
        for meth, pts in BARRIER_METHODS:
            setattr(cls, meth, self.wrap(getattr(cls, meth), f"barrier.{meth}", pts))

        surfaces = package.surfaces
        make_domain = surfaces.make_domain

        def traced_make_domain(*args, **kwargs):
            domain = make_domain(*args, **kwargs)
            for fld in DOMAIN_FIELDS:
                setattr(domain, fld, self.wrap(getattr(domain, fld), f"surfaces.{fld}", 0))
            return domain

        replace(make_domain, traced_make_domain)

    # -- output ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the spans as numpy arrays, with the table of span names."""
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            thread=np.frombuffer(self.thread, dtype=np.int32),
            points=np.frombuffer(self.points, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
        )


def self_times(parent, thread, start, end) -> np.ndarray:
    """Duration minus the union of the child intervals, per span."""
    dur = end - start
    n = dur.size
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    cross_child = has_parent & (thread != thread[safe_parent])
    overlapping = np.zeros(n, dtype=bool)
    overlapping[parent[cross_child]] = True

    # same-thread children of a parent never overlap: their union is a sum
    simple = has_parent & ~overlapping[safe_parent]
    covered = np.bincount(parent[simple], weights=dur[simple], minlength=n)

    for p in np.flatnonzero(overlapping):
        kids = np.flatnonzero(parent == p)
        order = np.argsort(start[kids])
        total = 0.0
        reach = -np.inf
        for k in kids[order]:
            lo = max(start[k], reach)
            if end[k] > lo:
                total += end[k] - lo
            reach = max(reach, end[k])
        covered[p] = total
    return dur - covered


def nearest_named_ancestor(parent, name_id, target: int) -> np.ndarray:
    """Index of the closest ancestor named ``target`` per span, or -1."""
    found = np.full(parent.size, -1, dtype=np.int64)
    cur = parent.copy()
    while True:
        live = (cur >= 0) & (found < 0)
        if not live.any():
            return found
        hit = live & (name_id[np.where(live, cur, 0)] == target)
        found[hit] = cur[hit]
        cur = np.where(live & ~hit, parent[np.where(cur >= 0, cur, 0)], -1)
