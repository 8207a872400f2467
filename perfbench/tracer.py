"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the package's layers
and records one span per wrapped call (name, start, end, parent, counts)
in memory; ``layers.py`` turns the span tree into per-layer metrics.
Nothing inside the package is edited: each name is wrapped where
callers look it up (module namespaces that imported it, or the class
that defines a method), and restored by ``uninstall``.

A hook whose target no longer exists is skipped and listed in
``absent_hooks``; the metrics that need it are reported as absent
instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "counts", "children")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.end = None
        self.counts = {}
        self.children = []

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(c.seconds for c in self.children)


class _CountingLU:
    """Stands in for the SuperLU object eigsh builds; counts its solves."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, *args, **kwargs):
        self._counts["applies"] = self._counts.get("applies", 0) + 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _count_sparse_solve(args, kwargs, out):
    K = args[2] if len(args) > 2 else kwargs["K"]
    policy = args[3] if len(args) > 3 else kwargs["policy"]
    return {"kept": out.count, "requested": 2 * K + policy.window_pad}


def _count_dense_solve(args, kwargs, out):
    return {"dim": int(out.values.size)}


def _count_mass_factor(args, kwargs, out):
    return {"nnz": int(args[0]._lu.nnz)}


def _count_mass_solve(args, kwargs, out):
    rhs = args[1] if len(args) > 1 else kwargs["rhs"]
    return {"cols": 1 if rhs.ndim == 1 else int(rhs.shape[1])}


def _count_projector(args, kwargs, out):
    sys_pair = args[1] if len(args) > 1 else kwargs["sys"]
    gauge = args[2] if len(args) > 2 else kwargs["gauge"]
    return {"calls": 1, "dense_mb": sys_pair.n * gauge.cotree.size * 8 / 1e6}


def _count_greedy(args, kwargs, out):
    _, log = out
    return {"iterations": len({row["iteration"] for row in log}),
            "appends": sum(row["t"] is not None for row in log)}


def _count_build(args, kwargs, out):
    return {"n_red": int(out.basis.n_red)}


def _count_track(args, kwargs, out):
    return {"grid_points": int(out.grid.size),
            "bisections": int(out.stats["bisection_count"])}


# (owner, attribute, span name, count function).  An owner is a module
# path, or "module:Class" for a method wrapped on its class.
HOOKS = (
    ("maxwell_rb.bench", "setup_problem", "bench.setup_problem", None),
    ("maxwell_rb.bench", "build_mesh", "mesh.build", None),
    ("maxwell_rb.bench", "discrete_gradient", "mesh.build", None),
    ("maxwell_rb.bench", "assemble", "assembly.assemble", None),
    ("maxwell_rb.assembly:ParametrizedSystem", "__init__", "assembly.pattern", None),
    ("maxwell_rb.assembly:ParametrizedSystem", "interpolate", "assembly.interpolate", None),
    ("maxwell_rb.bench", "build_tree", "gauge.tree", None),
    ("maxwell_rb.gauge:CotreeProjector", "__init__", "gauge.project", _count_projector),
    ("maxwell_rb.gauge:CotreeProjector", "project", "gauge.project", None),
    ("maxwell_rb.rb", "build_cotree_system", "gauge.cotree_system", None),
    ("maxwell_rb.rb", "solve_sparse_gevp", "eigen.sparse_solve", _count_sparse_solve),
    ("maxwell_rb.tracking", "solve_sparse_gevp", "eigen.sparse_solve", _count_sparse_solve),
    ("scipy.sparse.linalg._eigen.arpack.arpack", "splu", "eigen.shift_factor", None),
    ("maxwell_rb.eigen", "solve_dense_gevp", "eigen.dense_solve", _count_dense_solve),
    ("maxwell_rb.rb", "solve_dense_gevp", "eigen.dense_solve", _count_dense_solve),
    ("maxwell_rb.tracking", "solve_dense_gevp", "eigen.dense_solve", _count_dense_solve),
    ("maxwell_rb.eigen:SPDFactor", "__init__", "eigen.mass_factor", _count_mass_factor),
    ("maxwell_rb.eigen:SPDFactor", "solve", "eigen.mass_solve", _count_mass_solve),
    ("maxwell_rb.rb", "build_basis", "rb.build_basis", _count_build),
    ("maxwell_rb.rb", "classical_pipeline", "rb.classical_pipeline", _count_build),
    ("maxwell_rb.rb", "collect_snapshots", "rb.snapshots", None),
    ("maxwell_rb.rb", "pod_init", "rb.pod", None),
    ("maxwell_rb.rb", "greedy_enrich", "rb.greedy", _count_greedy),
    ("maxwell_rb.tracking", "track_reduced", "tracking.track", _count_track),
    ("maxwell_rb.tracking", "track_full", "tracking.track", _count_track),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name:
        target = getattr(target, class_name, None)
    return target


class Tracer:
    """Installs the hooks, records the span tree and exports it."""

    def __init__(self):
        self.roots = []
        self._stack = []
        self._installed = []
        self.present_spans = set()
        self.absent_hooks = []
        self.count_errors = set()

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter())
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """A harness-level span (a set-up or an operation)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                try:
                    span.counts.update(count(args, kwargs, out))
                except (AttributeError, KeyError, IndexError, TypeError):
                    tracer.count_errors.add(name)
            return out

        return traced

    def _wrap_splu(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                lu = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span.counts["nnz"] = int(getattr(lu, "nnz", 0))
            return _CountingLU(lu, span.counts)

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        if self._installed:
            return
        self.absent_hooks = []
        for owner, attr, name, count in HOOKS:
            target = _resolve(owner)
            original = getattr(target, attr, _MISSING) if target is not None else _MISSING
            if original is _MISSING or not callable(original):
                self.absent_hooks.append("%s.%s" % (owner, attr))
                continue
            own = target.__dict__.get(attr, _MISSING) if isinstance(target, type) else original
            if name == "eigen.shift_factor":
                wrapper = self._wrap_splu(name, original)
            else:
                wrapper = self._wrap(name, original, count)
            setattr(target, attr, wrapper)
            self._installed.append((target, attr, own))
            self.present_spans.add(name)

    def uninstall(self):
        for target, attr, own in reversed(self._installed):
            if own is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, own)
        self._installed = []

    # -- export ------------------------------------------------------------

    def to_records(self):
        """Flat span list: id, name, parent id, start and end (seconds from
        the first root), and counts."""
        records = []
        if not self.roots:
            return records
        t0 = self.roots[0].start

        def visit(span, parent_id):
            sid = len(records)
            records.append({"id": sid, "name": span.name, "parent": parent_id,
                            "start": span.start - t0, "end": span.end - t0,
                            "counts": dict(span.counts)})
            for child in span.children:
                visit(child, sid)

        for root in self.roots:
            visit(root, None)
        return records


def walk(span):
    yield span
    for child in span.children:
        yield from walk(child)


def outermost(span, name):
    """Spans called ``name`` below ``span`` that have no ancestor of the same name."""
    for child in span.children:
        if child.name == name:
            yield child
        else:
            yield from outermost(child, name)


def span_seconds(root, name) -> float:
    return sum(s.seconds for s in outermost(root, name))


def self_seconds(root, name) -> float:
    return sum(s.self_seconds for s in walk(root) if s is not root and s.name == name)


def total_count(root, name, key) -> float:
    return sum(s.counts.get(key, 0) for s in walk(root) if s.name == name)
