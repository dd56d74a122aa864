"""Outside-in layer tracer for shgspec.

The benchmark wraps each layer's public functions from outside the package;
nothing under ``src/`` knows it is traced.  A function is patched on its
defining module and on every ``shgspec`` module that bound the same object at
import (``verification`` binds ``integrate_many``, for example); imports done
inside functions look the name up on the defining module and so see the
patch too.  Methods are patched once, on their class.

Every wrapped call records a span ``[name, label, start, end, parent, work,
field_calls, field_s]``.  The hot field evaluations ``Potential.w_at`` and
``Potential.exp_q_at`` get no span; they are counted and timed in aggregate,
and each span carries the part of that aggregate that accrued while it was
open.  ``field_calls`` counts ``w_at`` calls: the monodromy right-hand side
makes one ``w_at`` and one ``exp_q_at`` call per evaluation, so it equals the
number of RHS evaluations; ``field_s`` is the time spent in both.  Spans
stay in memory until the run ends.  ``uninstall`` puts every original object
back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

NAME, LABEL, START, END, PARENT, WORK, FIELD_CALLS, FIELD_S = range(8)


def _size(name):
    return lambda b, out: {"points": int(np.size(b[name]))}


def _nodes(b, out):
    return {"nodes": int(b["spec"].nodes)}


def _sigma_work(b, out):
    return {"newton_iters": int(out.newton_iters), "clamp_events": int(out.clamp_events)}


def _suite_work(b, out):
    return {
        "checks_failed": sum(c.status == "fail" for c in out),
        "checks_skipped": sum(c.status == "skipped" for c in out),
    }


def _n_range(b, out):
    ns = [n for n in out if n != "star"]
    return f"|n|<={max(abs(n) for n in ns)}" if ns else "star"


# layer -> [(attribute, label(bound_args, result) or None, work(bound_args, result) or None)]
# An attribute "Class.method" is patched on the class.
TARGETS = {
    "monodromy": [("integrate_many", None, _size("lams"))],
    "quadrature": [("winding_number", None, _nodes)],
    "spectrum": [
        ("build_table", lambda b, out: f"N={b['n_max']}", None),
        ("build_isolating", None, None),
        ("certify_counts", _n_range, None),
        ("count_annulus", lambda b, out: f"N={b['N']}", None),
        ("delta_sign_check", None, None),
        ("trace_formula_tau", None, None),
    ],
    "roots_products": [
        ("CanonicalRootEvaluator.chip", None, _size("lam")),
        ("verify_product_reps", lambda b, out: f"K={b['K']}", None),
        ("sign_tables", None, None),
        ("constraint_products", None, None),
    ],
    "differentials": [
        ("SigmaWorkspace.__init__", None, None),
        ("SigmaWorkspace.residual_and_jacobian", None, None),
        ("solve_sigma", lambda b, out: f"n={b['n']},K={b['K']}", _sigma_work),
        ("verify_normalization", None, None),
        ("psi_negative", None, None),
        ("verify_negative_normalization", None, None),
    ],
    "gradients": [
        ("grad_deltas_fd_report", None, None),
        ("grad_discriminant", None, None),
        ("grad_antidiscriminant", None, None),
        ("grad_dirichlet", None, None),
        ("grad_periodic", None, None),
        ("fd_directional", None, None),
    ],
    "verification": [
        ("run_suite", None, _suite_work),
        ("check_zero_closed_forms", None, None),
        ("check_monodromy_invariants", None, None),
        ("interpolation_self_test", None, None),
    ],
    "cli": [("main", None, None)],
}

HOT = ("w_at", "exp_q_at")  # methods of potential.Potential


class Tracer:
    """Install with ``install()``, run the workload, then ``uninstall()``."""

    def __init__(self):
        self.spans: list[list] = []
        self.field_calls = 0
        self.field_s = 0.0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.layer_of: dict[str, str] = {}

    # -- patching ------------------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        homes = {layer: importlib.import_module(f"shgspec.{layer}") for layer in TARGETS}
        mods = [m for n, m in list(sys.modules.items()) if n == "shgspec" or n.startswith("shgspec.")]
        for layer, targets in TARGETS.items():
            home = homes[layer]
            for attr, label, work in targets:
                name = f"{layer}.{attr}"
                self.layer_of[name] = layer
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    self._patch(getattr(home, cls_name), meth, name, label, work)
                    continue
                orig = getattr(home, attr)
                wrapper = self._span_wrapper(name, orig, label, work)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, orig))
        pot = sys.modules["shgspec.potential"].Potential
        for meth in HOT:
            orig = pot.__dict__[meth]
            setattr(pot, meth, self._hot_wrapper(orig, counted=meth == "w_at"))
            self._undo.append((pot, meth, orig))
        return self

    def _patch(self, cls, meth, name, label, work):
        orig = cls.__dict__[meth]
        setattr(cls, meth, self._span_wrapper(name, orig, label, work))
        self._undo.append((cls, meth, orig))

    def uninstall(self):
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name, fn, label, work):
        sig = inspect.signature(fn) if (label or work) else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, "", 0.0, 0.0, stack[-1] if stack else -1, None,
                    self.field_calls, self.field_s]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                span[FIELD_CALLS] = self.field_calls - span[FIELD_CALLS]
                span[FIELD_S] = self.field_s - span[FIELD_S]
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                b = bound.arguments
                if label:
                    span[LABEL] = label(b, out)
                if work:
                    span[WORK] = work(b, out)
            return out

        return wrapper

    def _hot_wrapper(self, fn, counted):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.field_s += perf_counter() - t
                self.field_calls += counted

        return wrapper


# -- aggregation ---------------------------------------------------------------


def _has_ancestor(spans, i, pred):
    p = spans[i][PARENT]
    while p >= 0:
        if pred(spans[p]):
            return True
        p = spans[p][PARENT]
    return False


def summarize(tracer: Tracer) -> dict:
    """Per-name and per-layer totals from the recorded spans.

    A name's ``total_s`` sums its outermost spans (nested calls of the same
    name are not counted twice).  A span's self time is its duration minus its
    direct children and minus the field evaluations made directly inside it;
    a layer's ``busy_s`` sums the spans with no ancestor in the same layer.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    child_field = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
            child_field[s[PARENT]] += s[FIELD_S]
    names: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        layer = tracer.layer_of[name]
        dur = s[END] - s[START]
        self_s = dur - child_s[i] - (s[FIELD_S] - child_field[i])
        row = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": {}})
        row["calls"] += 1
        row["self_s"] += self_s
        if not _has_ancestor(spans, i, lambda a: a[NAME] == name):
            row["total_s"] += dur
        for k, v in (s[WORK] or {}).items():
            row["work"][k] = row["work"].get(k, 0) + v
        lay = layers.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0})
        lay["self_s"] += self_s
        if not _has_ancestor(spans, i, lambda a: tracer.layer_of[a[NAME]] == layer):
            lay["busy_s"] += dur
    return {"names": names, "layers": layers}


def count_under(tracer: Tracer, name: str, ancestor: str) -> int:
    """Number of ``name`` spans below a span named ``ancestor`` or below any
    span of the layer ``ancestor``."""
    spans = tracer.spans

    def above(a):
        return a[NAME] == ancestor or tracer.layer_of[a[NAME]] == ancestor

    return sum(1 for i, s in enumerate(spans) if s[NAME] == name and _has_ancestor(spans, i, above))


def labelled_rows(tracer: Tracer) -> list[dict]:
    """One row per (name, label): calls and time of the outermost spans.

    This is the per-step table, e.g. ``spectrum.build_table[N=32]``.
    """
    spans = tracer.spans
    rows: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if _has_ancestor(spans, i, lambda a: a[NAME] == s[NAME]):
            continue
        key = f"{s[NAME]}[{s[LABEL]}]" if s[LABEL] else s[NAME]
        row = rows.setdefault(key, {"step": key, "calls": 0, "total_s": 0.0, "work": {}})
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        for k, v in (s[WORK] or {}).items():
            row["work"][k] = row["work"].get(k, 0) + v
    return sorted(rows.values(), key=lambda r: r["step"])


def spans_as_records(tracer: Tracer) -> list[dict]:
    t0 = tracer.spans[0][START] if tracer.spans else 0.0
    return [
        {
            "name": s[NAME],
            "label": s[LABEL],
            "start_s": s[START] - t0,
            "end_s": s[END] - t0,
            "parent": s[PARENT],
            "work": s[WORK],
            "field_calls": s[FIELD_CALLS],
            "field_s": s[FIELD_S],
        }
        for s in tracer.spans
    ]
