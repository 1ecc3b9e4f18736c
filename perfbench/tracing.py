"""Span tracing of takiffrep from outside the package.

``Tracer.install`` replaces the listed functions and methods of each layer
with timing wrappers.  A module-level function is replaced under every name
any ``takiffrep`` module binds it to (``freemod.act`` is also
``weightmod.act_free``, ``weightmod.act_weight`` is also bound in
``functors``, and the package re-exports most of them), so no call escapes
through an alias.  Methods are replaced on their class.

Each call records one span (name, start, end, parent) in flat arrays kept in
memory; ``write`` stores them once, at the end of the run.  A span's self
time is its duration minus the durations of its direct children, so the self
times of all spans add up to the time covered by top-level spans, and

    sum of layer self times + unattributed time == time inside the verdicts

where unattributed time is the part of the verdicts no span covers (the
oracle's own code, between calls into the program).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("poly", "algebra", "linalg", "freemod", "weightmod", "functors",
          "scan")

# (module, attribute, span name).  An attribute "Class.method" is a method
# patched on the class.  Span names start with their layer.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("poly", "PolyHH.__init__", "poly.init"),
    ("poly", "PolyHH.__add__", "poly.add"),
    ("poly", "PolyHH.__sub__", "poly.sub"),
    ("poly", "PolyHH.__neg__", "poly.neg"),
    ("poly", "PolyHH.__mul__", "poly.mul"),
    ("poly", "PolyHH.__rmul__", "poly.rmul"),
    ("poly", "PolyHH.__eq__", "poly.eq"),
    ("poly", "PolyHH.scale", "poly.scale"),
    ("poly", "PolyHH.shift_h", "poly.shift_h"),
    ("poly", "PolyHH.shift_hbar", "poly.shift_hbar"),
    ("poly", "PolyHH.dbar", "poly.dbar"),
    ("poly", "PolyHH.eval_at", "poly.eval_at"),
    ("poly", "PolyHH.within_bidegree", "poly.within_bidegree"),
    ("poly", "PolyHH.to_text", "poly.to_text"),
    ("poly", "shifted_expand", "poly.shifted_expand"),
    ("poly", "poly1_eval", "poly.poly1_eval"),
    ("poly", "poly1_to_polyhh", "poly.poly1_to_polyhh"),
    ("poly", "parse_poly", "poly.parse_poly"),
    ("algebra", "normal_form", "algebra.normal_form"),
    ("algebra", "theta", "algebra.theta"),
    ("algebra", "check_theta_automorphism", "algebra.check_theta_automorphism"),
    ("algebra", "bracket", "algebra.bracket"),
    ("algebra", "commutator", "algebra.commutator"),
    ("algebra", "parse_word_expr", "algebra.parse_word_expr"),
    ("algebra", "AlgebraElement.from_word", "algebra.from_word"),
    ("algebra", "AlgebraElement.__mul__", "algebra.elem_mul"),
    ("algebra", "AlgebraElement.__add__", "algebra.elem_add"),
    ("algebra", "AlgebraElement.__sub__", "algebra.elem_sub"),
    ("algebra", "AlgebraElement.__eq__", "algebra.elem_eq"),
    ("algebra", "AlgebraElement.scale", "algebra.elem_scale"),
    ("algebra", "AlgebraElement.to_text", "algebra.elem_to_text"),
    ("linalg", "RowBasis.add", "linalg.rowbasis_add"),
    ("linalg", "RowBasis.reduce", "linalg.rowbasis_reduce"),
    ("linalg", "RowBasis.rows", "linalg.rowbasis_rows"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "vec_axpy", "linalg.vec_axpy"),
    ("linalg", "vec_clean", "linalg.vec_clean"),
    ("freemod", "act", "freemod.act"),
    ("freemod", "act_word", "freemod.act_word"),
    ("freemod", "verify_axioms", "freemod.verify_axioms"),
    ("freemod", "submodule_saturate", "freemod.saturate"),
    ("freemod", "alpha_from_beta", "freemod.alpha_from_beta"),
    ("weightmod", "act_weight", "weightmod.act_weight"),
    ("weightmod", "act_weight_word", "weightmod.act_weight_word"),
    ("weightmod", "weight_bracket_report", "weightmod.bracket_report"),
    ("weightmod", "singular_vectors", "weightmod.singular_vectors"),
    ("weightmod", "simplicity_criterion_weight", "weightmod.simplicity_criterion"),
    ("weightmod", "verma_check", "weightmod.verma_check"),
    ("functors", "intertwiner_search", "functors.intertwiner_search"),
    ("functors", "check_twist_iso", "functors.twist_iso"),
    ("functors", "twisted_act", "functors.twisted_act"),
    ("functors", "apply_localized", "functors.apply_localized"),
    ("functors", "ebinv_act", "functors.ebinv_act"),
    ("scan", "scan_point", "scan.scan_point"),
)

# the per-layer metrics a traced run reports, with their units
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"),
    ("poly.mul.terms_out", "count"),
    ("poly.shift_h.calls", "count"), ("poly.shift_h.self_s", "s"),
    ("poly.shift_h.terms_out", "count"),
    ("poly.add.self_s", "s"), ("poly.scale.self_s", "s"),
    ("poly.dbar.self_s", "s"), ("poly.self_s", "s"),
    ("freemod.act.calls", "count"), ("freemod.act.self_s", "s"),
    ("freemod.verify_axioms.self_s", "s"),
    ("freemod.saturate.products", "count"),
    ("freemod.saturate.discarded", "count"),
    ("freemod.saturate.rank", "count"), ("freemod.self_s", "s"),
    ("linalg.rowbasis_add.calls", "count"),
    ("linalg.rowbasis_add.accepted", "count"),
    ("linalg.rowbasis_add.accept_ratio", "ratio"),
    ("linalg.rowbasis_add.self_s", "s"),
    ("linalg.rowbasis_reduce.calls", "count"),
    ("linalg.rowbasis_reduce.self_s", "s"),
    ("linalg.nullspace.calls", "count"), ("linalg.nullspace.cells", "count"),
    ("linalg.nullspace.kernel_dim", "count"),
    ("linalg.nullspace.self_s", "s"),
    ("linalg.vec_axpy.calls", "count"), ("linalg.vec_axpy.self_s", "s"),
    ("linalg.self_s", "s"),
    ("weightmod.act_weight.calls", "count"),
    ("weightmod.act_weight.terms_in", "count"),
    ("weightmod.act_weight.self_s", "s"),
    ("weightmod.bracket_report.self_s", "s"),
    ("weightmod.singular_vectors.self_s", "s"),
    ("weightmod.verma_check.self_s", "s"), ("weightmod.self_s", "s"),
    ("functors.intertwiner_search.calls", "count"),
    ("functors.intertwiner_search.self_s", "s"),
    ("functors.twist_iso.self_s", "s"), ("functors.self_s", "s"),
    ("scan.scan_point.calls", "count"), ("scan.scan_point.self_s", "s"),
    ("scan.self_s", "s"),
    ("algebra.normal_form.calls", "count"),
    ("algebra.normal_form.self_s", "s"),
    ("algebra.elem_mul.self_s", "s"), ("algebra.from_word.self_s", "s"),
    ("algebra.theta.self_s", "s"),
    ("algebra.reduce_word.hits", "count"),
    ("algebra.reduce_word.misses", "count"),
    ("algebra.reduce_word.hit_ratio", "ratio"), ("algebra.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

_NO_PARENT = -1


class Tracer:
    """Timing wrappers over the takiffrep layers, and the spans they record."""

    def __init__(self):
        self.names: List[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []  # [span index, name id, child time]
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable,
              count: Optional[Callable] = None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        names = self.span_name
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(names)
            names.append(nid)
            parents.append(parent[0] if parent else _NO_PARENT)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, nid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
                duration = end - start
                self_s[name] += duration - frame[2]
                calls[name] += 1
                if parent:
                    parent[2] += duration
            if count is not None:
                count(self, parent, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def parent_is(self, parent, name: str) -> bool:
        return parent is not None and self.names[parent[1]] == name

    # -- installing ----------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every entry of WRAPPED, under each binding in ``package``."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__
                   or key.startswith(package.__name__ + ".")]
        for module_name, attr, name in WRAPPED:
            module = getattr(package, module_name)
            counter = _COUNTERS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__, counter))
                else:
                    new = self._wrap(name, raw, counter)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------------

    def covered_s(self) -> float:
        """Total duration of top-level spans."""
        return sum(end - start for end, start, parent
                   in zip(self.span_end, self.span_start, self.span_parent)
                   if parent == _NO_PARENT)

    def layer_metrics(self, wall_s: float, reduce_word: Tuple[int, int],
                      overhead_frac: float) -> Dict[str, float]:
        """Every metric of PER_LAYER_METRICS, from the recorded spans."""
        values: Dict[str, float] = {}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                s for n, s in self.self_s.items() if n.split(".")[0] == layer)
        for name, total in self.self_s.items():
            values[f"{name}.self_s"] = total
        for name, n in self.calls.items():
            values[f"{name}.calls"] = n
        values.update(self.counts)
        add_calls = self.calls.get("linalg.rowbasis_add", 0)
        values["linalg.rowbasis_add.accept_ratio"] = (
            self.counts.get("linalg.rowbasis_add.accepted", 0) / add_calls
            if add_calls else 0.0)
        hits, misses = reduce_word
        values["algebra.reduce_word.hits"] = hits
        values["algebra.reduce_word.misses"] = misses
        values["algebra.reduce_word.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        values["trace.wall_s"] = wall_s
        values["trace.unattributed_s"] = wall_s - self.covered_s()
        values["trace.overhead_frac"] = overhead_frac
        return {name: values.get(name, 0) for name, _ in PER_LAYER_METRICS}

    def write(self, path_stem: str, header: dict) -> None:
        """Write ``<stem>.json`` (names, summary) and ``<stem>.spans`` (arrays).

        The .spans file holds four arrays of ``header["spans"]`` entries each,
        one after the other: name id (int32), parent span index (int32, -1 for
        none), start and end (float64, ``time.perf_counter`` seconds).
        """
        header = dict(header, names=self.names, spans=len(self.span_name),
                      byteorder=sys.byteorder)
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
        with open(path_stem + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


def load_spans(path_stem: str) -> List[Tuple[str, int, float, float]]:
    """Read a trace back as (name, parent index, start, end) per span."""
    with open(path_stem + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    n = header["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path_stem + ".spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
    names = header["names"]
    return [(names[nid], parent, start, end)
            for nid, parent, start, end in zip(*arrays)]


# -- counters beyond calls and self time ---------------------------------------------

def _count_terms_out(name):
    key = f"{name}.terms_out"

    def count(tracer, parent, args, result):
        # PolyHH keeps its nonzero terms in the slot ``_c``
        tracer.counts[key] += len(result._c)
    return count


def _count_act(tracer, parent, args, result):
    if tracer.parent_is(parent, "freemod.saturate"):
        tracer.counts["freemod.saturate.products"] += 1


def _count_within(tracer, parent, args, result):
    if not result and tracer.parent_is(parent, "freemod.saturate"):
        tracer.counts["freemod.saturate.discarded"] += 1


def _count_saturate(tracer, parent, args, result):
    tracer.counts["freemod.saturate.rank"] += len(result.basis)


def _count_add(tracer, parent, args, result):
    tracer.counts["linalg.rowbasis_add.accepted"] += bool(result)


def _count_nullspace(tracer, parent, args, result):
    equations, columns = args[0], args[1]
    tracer.counts["linalg.nullspace.cells"] += len(equations) * len(columns)
    tracer.counts["linalg.nullspace.kernel_dim"] += len(result)


def _count_act_weight(tracer, parent, args, result):
    tracer.counts["weightmod.act_weight.terms_in"] += len(args[2])


_COUNTERS: Dict[str, Callable] = {
    "poly.mul": _count_terms_out("poly.mul"),
    "poly.shift_h": _count_terms_out("poly.shift_h"),
    "poly.within_bidegree": _count_within,
    "freemod.act": _count_act,
    "freemod.saturate": _count_saturate,
    "linalg.rowbasis_add": _count_add,
    "linalg.nullspace": _count_nullspace,
    "weightmod.act_weight": _count_act_weight,
}
