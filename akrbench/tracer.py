"""Spans and counters around calls into akrvoro's layers, for the traced run.

``Tracer.installed()`` wraps each function in ``LAYERS`` at every place it is
bound: akrvoro's modules import their kernels with ``from ... import``, so a
kernel such as ``log_weights`` is bound in ``_kernels``, ``basis``, ``akr``,
``tensor`` and ``asymptotics`` alike.  On exit every binding is put back.
Nothing under ``src/`` changes, and the untraced run executes the original
functions.

Each call records a span ``[name, start, end, parent, op, n]``: ``parent`` is
the index of the enclosing span, ``op`` the id of the work-list operation it
belongs to, ``n`` the degree the call works at when it has one.  Spans stay
in memory until the run ends.  Counters (items, useful items, repeats) are
updated after a span is closed, so their cost is not charged to the layer.
"""

import contextlib
import functools
import importlib
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

# weights or weight products below this contribute nothing a double can hold
# next to an O(1) sum; evaluating f there is wasted work
USEFUL = 1e-20
_LOG_USEFUL = math.log(USEFUL)


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _count_log_weights(tracer, args, kwargs, lw):
    n = int(_arg(args, kwargs, 0, "n"))
    x = float(_arg(args, kwargs, 1, "x"))
    tracer.add("kernels.log_weights.items", lw.size)
    tracer.add("kernels.log_weights.useful", np.count_nonzero(lw >= _LOG_USEFUL))
    tracer.add("kernels.log_weights.repeats", tracer.repeated("log_weights", (n, x)))


def _count_eval_on(tracer, args, kwargs, out):
    tracer.add("basis.eval_on.items", np.size(_arg(args, kwargs, 1, "nodes")))


def _count_eval_grid_block(tracer, args, kwargs, out):
    s = _arg(args, kwargs, 1, "s_nodes")
    t = _arg(args, kwargs, 2, "t_nodes")
    tracer.add("tensor.eval_grid_block.items", np.size(s) * np.size(t))


def _useful_pairs(a, b):
    """Number of pairs (i, l) with |a[i] * b[l]| >= USEFUL."""
    a = np.abs(np.asarray(a, dtype=np.float64))
    a = a[a > 0.0]
    b = np.sort(np.abs(np.asarray(b, dtype=np.float64)))
    return int((b.size - np.searchsorted(b, USEFUL / a, side="left")).sum())


def _count_bilinear(tracer, args, kwargs, out):
    block = np.asarray(_arg(args, kwargs, 0, "block"))
    wx = np.asarray(_arg(args, kwargs, 1, "wx_block"))
    wy = np.asarray(_arg(args, kwargs, 2, "wy"))
    state = np.asarray(_arg(args, kwargs, 3, "state"))
    tracer.add("kernels.bilinear_accumulate.items", block.size)
    tracer.add("kernels.bilinear_accumulate.bytes",
               block.nbytes + wx.nbytes + wy.nbytes + state.nbytes)
    # the block holds f at exactly these weight pairs
    tracer.add("tensor.eval_grid_block.useful", _useful_pairs(wx, wy))


def _count_comp_dot(tracer, args, kwargs, out):
    tracer.add("kernels.comp_dot.items", np.size(_arg(args, kwargs, 0, "a")))


def _count_node_table(tracer, args, kwargs, table):
    n = int(_arg(args, kwargs, 0, "n"))
    j = int(_arg(args, kwargs, 1, "j", 2))
    tracer.add("akr.build_node_table.items", n + 1)
    tracer.add("akr.build_node_table.repeats", tracer.repeated("node_table", (n, j)))


def _degree(i, name):
    return lambda args, kwargs: int(_arg(args, kwargs, i, name))


def _grid_degree(i, name):
    return lambda args, kwargs: int(np.size(_arg(args, kwargs, i, name))) - 1


@dataclass(frozen=True)
class Layer:
    """A wrapped function, named ``<layer>.<function>`` in the metrics."""

    name: str
    module: str
    attr: str
    quantities: Tuple[str, ...] = ()
    count: Optional[Callable] = None
    degree: Optional[Callable] = None


LAYERS = (
    Layer("kernels.log_weights", "akrvoro._kernels", "log_weights",
          ("items", "useful_frac", "repeat_frac"), _count_log_weights,
          _degree(0, "n")),
    Layer("basis.weight_vector", "akrvoro.basis", "weight_vector",
          degree=_degree(0, "n")),
    Layer("basis.eval_on", "akrvoro.basis", "eval_on", ("items",),
          _count_eval_on, _grid_degree(1, "nodes")),
    Layer("tensor.eval_grid_block", "akrvoro.tensor", "eval_grid_block",
          ("items", "useful_frac"), _count_eval_grid_block),
    Layer("tensor.tensor_reduce", "akrvoro.tensor", "tensor_reduce",
          degree=_grid_degree(1, "s_nodes")),
    Layer("kernels.bilinear_accumulate", "akrvoro._kernels",
          "bilinear_accumulate", ("items", "bytes"), _count_bilinear),
    Layer("kernels.comp_dot", "akrvoro._kernels", "comp_dot", ("items",),
          _count_comp_dot, _grid_degree(0, "a")),
    Layer("akr.build_node_table", "akrvoro.akr", "build_node_table",
          ("items", "repeat_frac"), _count_node_table, _degree(0, "n")),
    Layer("akr.remainder", "akrvoro.akr", "remainder", degree=_degree(0, "n")),
    Layer("asymptotics.residual_series", "akrvoro.asymptotics", "residual_series"),
    Layer("asymptotics.decomposition", "akrvoro.asymptotics", "decomposition",
          degree=_degree(1, "n")),
    Layer("asymptotics.extrapolate", "akrvoro.asymptotics", "extrapolate"),
)

# Calls that start a new operation without a span of their own: each verify
# criterion is one operation of acceptance.run_all.
OP_BOUNDARIES = (("akrvoro.acceptance", "run_criterion"),)

UNITS = {"calls": "count", "self_s": "s", "items": "count",
         "useful_frac": "ratio", "repeat_frac": "ratio",
         "bytes": "bytes-computed"}


def layer_metric_names():
    """(name, unit) of every metric ``Tracer.layer_metrics`` reports."""
    return [
        (f"{layer.name}.{q}", UNITS[q])
        for layer in LAYERS
        for q in ("calls", "self_s") + layer.quantities
    ]


def _akrvoro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "akrvoro" or name.startswith("akrvoro."))]


def installed_wrappers():
    """Every (module, attribute) of akrvoro currently bound to a wrapper."""
    return [
        (m.__name__, key)
        for m in _akrvoro_modules()
        for key, value in vars(m).items()
        if hasattr(value, "_akrbench_original")
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = -1
        self._stack = []
        self._seen = {}
        self._bindings = []

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def begin_op(self):
        self.op += 1
        self._seen.clear()

    def repeated(self, kind, key):
        """Whether ``key`` was already computed in the current operation."""
        seen = self._seen.setdefault(kind, set())
        if key in seen:
            return True
        seen.add(key)
        return False

    def _span_wrapper(self, layer, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer.name, 0.0, 0.0, stack[-1] if stack else None, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if layer.degree is not None:
                span[5] = layer.degree(args, kwargs)
            if layer.count is not None:
                layer.count(tracer, args, kwargs, result)
            return result

        return wrapper

    def _op_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin_op()
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function wherever akrvoro binds it; restore on exit."""
        targets = [(layer.module, layer.attr, layer) for layer in LAYERS]
        targets += [(mod, attr, None) for mod, attr in OP_BOUNDARIES]
        for mod, _, _ in targets:
            importlib.import_module(mod)
        modules = _akrvoro_modules()
        try:
            for mod, attr, layer in targets:
                original = getattr(sys.modules[mod], attr)
                wrapper = (self._span_wrapper(layer, original) if layer
                           else self._op_wrapper(original))
                wrapper._akrbench_original = original
                places = [(m, key) for m in modules
                          for key, value in vars(m).items() if value is original]
                for m, key in places:
                    self._bindings.append((m, key, original))
                    setattr(m, key, wrapper)
            yield self
        finally:
            while self._bindings:
                m, key, original = self._bindings.pop()
                setattr(m, key, original)

    def self_times(self):
        """Per span name: (calls, self seconds), and the seconds covered by
        root spans.  Self time is a span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_name = {}
        covered = 0.0
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            calls, self_s = per_name.get(name, (0, 0.0))
            per_name[name] = (calls + 1, self_s + (end - start) - child[i])
            if parent is None:
                covered += end - start
        return per_name, covered

    def layer_metrics(self, runs):
        """Layer metrics per work list, averaged over ``runs`` traced runs."""
        per_name, _ = self.self_times()
        c = self.counts
        out = {}
        for layer in LAYERS:
            calls, self_s = per_name.get(layer.name, (0, 0.0))
            values = {"calls": calls / runs, "self_s": self_s / runs}
            items = c.get(f"{layer.name}.items", 0)
            for q in layer.quantities:
                if q == "items":
                    values[q] = items / runs
                elif q == "bytes":
                    values[q] = c.get(f"{layer.name}.bytes", 0) / runs
                elif q == "useful_frac":
                    values[q] = c.get(f"{layer.name}.useful", 0) / items if items else 0.0
                elif q == "repeat_frac":
                    values[q] = c.get(f"{layer.name}.repeats", 0) / calls if calls else 0.0
            for q, v in values.items():
                out[f"{layer.name}.{q}"] = v
        return out

    def write_spans(self, path, origin):
        """One JSON object per line; times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, n) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "op": op, "n": n,
                }) + "\n")
