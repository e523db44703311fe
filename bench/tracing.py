"""Spans and counters recorded from outside the package.

The tracer wraps the public functions of each layer and installs the
wrappers wherever callers look the functions up: every `statesphere` module
attribute bound to the original (so `from .manifolds import
nearest_classical_point` is covered), and `numpy.polynomial.legendre.leggauss`,
which the oracle reaches by attribute lookup.  Wrappers are installed only
around traced ops, so untraced ops run the package unmodified.

A span holds a name, start, end, parent span and op id.  Spans are kept in
memory in flat arrays and written out when the run ends; self time (duration
minus the time covered by child spans) and busy time (the duration of spans not
nested in a span of the same name) are computed from them afterwards.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MAX_SPANS = 2_000_000


def _nonzero_terms(expr) -> int:
    return sum(1 for term in expr.terms if term[0] != 0)


def _quad_nodes(f, g, spec) -> int:
    """Nodes the oracle's tensor grid evaluates for one primitive pair.

    Computed from the spec and the primitive kinds, not counted inside the
    oracle: delta pairs use none, one delta leaves a 1-d block of n nodes per
    axis and two free factors a 2-d block of n^2, at each refinement level."""
    from statesphere import Delta

    if isinstance(f, Delta) and isinstance(g, Delta):
        return 0
    power = 1 if isinstance(f, Delta) or isinstance(g, Delta) else 2
    n, total = spec.nodes_per_axis, 0
    for _ in range(spec.refinement_levels):
        total += f.dimension * n**power
        n = 2 * n - 1
    return total


def _count_term_pairs(tracer, args, kwargs, result):
    tracer.counters["algebra.term_pairs"] += _nonzero_terms(args[0]) * _nonzero_terms(args[1])


def _distinct_overlap(tracer, args, kwargs, result):
    tracer.distinct["algebra.primitive_overlap"].add((args, tuple(kwargs.items())))


def _distinct_leggauss(tracer, args, kwargs, result):
    tracer.distinct["oracle.leggauss"].add((args, tuple(kwargs.items())))


def _projection_evals(tracer, args, kwargs, result):
    tracer.counters["manifolds.projection_evals"] += result.iterations


def _count_quad_nodes(tracer, args, kwargs, result):
    from statesphere import QuadratureSpec

    spec = args[3] if len(args) > 3 else kwargs.get("spec", QuadratureSpec())
    tracer.counters["oracle.quad_nodes"] += _quad_nodes(args[0], args[1], spec)


# (module, attribute, span name, counter hook).  inner_product and
# pair_inner_product are the two term-summation loops behind `overlap`, so
# both record as one layer.
TARGETS = (
    ("statesphere.algebra", "primitive_overlap", "algebra.primitive_overlap", _distinct_overlap),
    ("statesphere.algebra", "gaussian_integral", "algebra.gaussian_integral", None),
    ("statesphere.algebra", "inner_product", "algebra.overlap", _count_term_pairs),
    ("statesphere.algebra", "pair_inner_product", "algebra.overlap", _count_term_pairs),
    ("statesphere.geometry", "normalize", "geometry.normalize", None),
    ("statesphere.geometry", "sphere_angle", "geometry.sphere_angle", None),
    ("statesphere.geometry", "geodesic_at", "geometry.geodesic_at", None),
    ("statesphere.manifolds", "nearest_classical_point", "manifolds.nearest_classical_point",
     _projection_evals),
    ("statesphere.manifolds", "gram_min_eigenvalue", "manifolds.gram_min_eigenvalue", None),
    ("statesphere.kernels", "induced_metric", "kernels.induced_metric", None),
    ("statesphere.kernels", "kernel_value", "kernels.kernel_value", None),
    ("statesphere.oracle", "quad_pair_overlap", "oracle.quad_pair_overlap", _count_quad_nodes),
    ("numpy.polynomial.legendre", "leggauss", "oracle.leggauss", _distinct_leggauss),
    ("statesphere.experiments", "build_double_slit_trajectory",
     "experiments.build_double_slit_trajectory", None),
    ("statesphere.experiments", "detector_intensity", "experiments.detector_intensity", None),
    ("statesphere.experiments", "build_epr_state", "experiments.build_epr_state", None),
    ("statesphere.experiments", "position_correlation_profile",
     "experiments.correlation_profile", None),
    ("statesphere.experiments", "momentum_correlation_profile",
     "experiments.correlation_profile", None),
    ("statesphere.cli", "run_record", "cli.run_record", None),
    ("statesphere.cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans for the ops run between `begin_op` and `end_op`."""

    def __init__(self, targets=TARGETS):
        self.names = ["op"]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.depth: list[int] = [0]
        self.op_id = -1
        self.counting = False
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.absent: list[str] = []
        self.bindings: list[tuple] = []
        for module_name, attr, span_name, hook in targets:
            self._wrap(module_name, attr, span_name, hook)

    @property
    def full(self) -> bool:
        return len(self.start) >= MAX_SPANS

    def _name(self, span_name: str) -> int:
        if span_name not in self.names:
            self.names.append(span_name)
            self.depth.append(0)
        return self.names.index(span_name)

    def _wrap(self, module_name: str, attr: str, span_name: str, hook):
        nid = self._name(span_name)
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            # A later change may remove a wrapped name; report it, do not fail.
            self.absent.append(f"{module_name}.{attr}")
            return
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            sid = enter(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(sid, nid)
            if hook is not None and self.counting:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        places = {(module, attr)}
        for name, mod in list(sys.modules.items()):
            if name == "statesphere" or name.startswith("statesphere."):
                places.update((mod, k) for k, v in vars(mod).items() if v is original)
        self.bindings += [(mod, k, original, wrapper) for mod, k in places]

    def _enter(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.outer.append(self.depth[nid] == 0)
        self.depth[nid] += 1
        self.stack.append(sid)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return sid

    def _leave(self, sid: int, nid: int):
        self.end[sid] = perf_counter()
        self.stack.pop()
        self.depth[nid] -= 1

    def begin_op(self, op_id: int, counting: bool):
        """Install the wrappers and open the op's root span."""
        self.op_id, self.counting = op_id, counting
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)
        self._root = self._enter(0)

    def end_op(self):
        self._leave(self._root, 0)
        for mod, attr, original, _ in self.bindings:
            setattr(mod, attr, original)
        self.counting = False

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op, dtype=np.int32),
                "outer": np.array(self.outer, dtype=bool),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self, traced_ops: int, counted_ops: list[int]) -> dict[str, dict]:
        """Per-name totals over the traced ops, and call counts over `counted_ops`.

        Returns {span name: {"calls", "busy_s", "self_s"}} with calls per op
        of the counted block and busy and self seconds per traced op.
        """
        a = self.arrays()
        n_names = len(self.names)
        duration = a["end"] - a["start"]
        children = np.zeros(len(duration))
        has_parent = a["parent"] >= 0
        np.add.at(children, a["parent"][has_parent], duration[has_parent])
        busy = np.bincount(a["name_id"][a["outer"]], weights=duration[a["outer"]],
                           minlength=n_names)
        self_time = np.bincount(a["name_id"], weights=duration - children, minlength=n_names)
        in_block = np.isin(a["op"], counted_ops)
        calls = np.bincount(a["name_id"][in_block], minlength=n_names)
        per_op = max(traced_ops, 1)
        return {name: {"calls": calls[k] / max(len(counted_ops), 1),
                       "busy_s": busy[k] / per_op, "self_s": self_time[k] / per_op}
                for k, name in enumerate(self.names)}
