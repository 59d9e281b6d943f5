"""Spans around the calls between shelldpg's layers, from outside the library.

`Tracer.install()` replaces the module attributes through which the
layers call each other with thin wrappers that record a span (name,
start, end, parent) per call; `restore()` puts every original back.
Nothing under `src/` is changed.  A target that no longer exists (after
a refactor) is listed in `Tracer.absent` and its metrics read 0.
"""

import importlib
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name); the estimator module holds the names
# adaptive_loop and element_estimators call, the assembly module those
# of the element kernels and the global assembly
TARGETS = (
    ("shelldpg.estimator", "assemble_normal_equations", "assemble"),
    ("shelldpg.estimator", "solve_spd", "solve"),
    ("shelldpg.estimator", "element_estimators", "estimate"),
    ("shelldpg.estimator", "dorfler_mark", "mark"),
    ("shelldpg.estimator", "refine", "refine"),
    ("shelldpg.estimator", "element_gram_batch", "gram"),
    ("shelldpg.estimator", "element_b_batch", "b"),
    ("shelldpg.estimator", "element_load_batch", "load"),
    ("shelldpg.assembly", "TraceDofMap", "dofmap"),
    ("shelldpg.assembly", "apply_bc", "bc"),
    ("shelldpg.assembly", "edge_pairings", "pairings"),
    ("shelldpg.assembly", "element_gram_batch", "gram"),
    ("shelldpg.assembly", "element_b_batch", "b"),
    ("shelldpg.assembly", "element_load_batch", "load"),
    ("shelldpg.assembly", "apply_gram_inverse", "gram_solve"),
    ("shelldpg.assembly", "triangle_geometry", "geometry"),
    ("shelldpg.assembly", "map_points", "map"),
    ("shelldpg.assembly", "map_gradients", "map"),
    ("shelldpg.assembly", "map_hessians", "map"),
    ("shelldpg.polyquad.TriangleBasis", "eval", "basis"),
    ("shelldpg.polyquad.TriangleBasis", "grad", "basis"),
    ("shelldpg.polyquad.TriangleBasis", "hess", "basis"),
    ("shelldpg.solver", "nested_dissection", "ordering"),
    ("scipy.sparse.linalg", "splu", "factor"),
    ("scipy.sparse.linalg", "cg", "cg"),
)


def resolve(dotted):
    """Module or class object for a dotted name, or None if it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class _LUProxy:
    """Stands in for a SuperLU object and records its `solve` calls."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.counts["lu_solves"] += 1
        with self._tracer.span("lu_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder that wraps the TARGETS while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.last = {}  # figures of the latest assembly and factorization
        self.absent = []
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][2] = time.perf_counter()

    def install(self):
        for owner_name, attr, name in self.targets:
            owner = resolve(owner_name)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(f"{owner_name}.{attr}")
                continue
            original = getattr(owner, attr)
            own = attr in vars(owner)
            setattr(owner, attr, self._wrap(original, name))
            self._saved.append((owner, attr, original, own))
        return self

    def restore(self):
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, original, name):
        def traced(*args, **kwargs):
            with self.span(name):
                out = original(*args, **kwargs)
            self.counts[name] += 1
            if name in ("gram", "b"):
                self.counts[name + "_elements"] += len(out)
            if name == "assemble":
                self.last["ndof"] = getattr(out, "ndof", 0)
                self.last["nnz"] = getattr(getattr(out, "A", None), "nnz", 0)
            if name == "factor":
                a = args[0] if args else kwargs["A"]
                self.last["lu_fill"] = (out.L.nnz + out.U.nnz) / a.nnz
                out = _LUProxy(out, self)
            return out

        return traced


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _has_ancestor(spans, i, names):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


def total_time(spans, *names):
    """Wall time in spans of the given names, nested repeats counted once."""
    names = set(names)
    return sum(end - start for i, (name, start, end, _) in enumerate(spans)
               if name in names and not _has_ancestor(spans, i, names))


def self_time(spans, *names):
    """Time of the named spans not covered by any of their child spans."""
    names = set(names)
    children = {}
    for i, (_, start, end, parent) in enumerate(spans):
        children.setdefault(parent, []).append((start, end))
    out = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        if name in names and not _has_ancestor(spans, i, names):
            inner = [(max(s, start), min(e, end)) for s, e in children.get(i, [])]
            out += (end - start) - _covered([iv for iv in inner if iv[1] > iv[0]])
    return out
