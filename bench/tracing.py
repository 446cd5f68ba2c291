"""Span recorder that measures the mvloewner layers from outside.

Each traced public function of a package module is replaced by a wrapper
that records a span (name, parent span, start, end).  Every alias the
package made with ``from .x import y`` is rebound as well, found by
identity over all loaded ``mvloewner`` modules, so calls between modules
are seen no matter which name they go through.  Spans are held in memory
and written once, by :meth:`Tracer.dump`.

Self time of a span is its duration minus the time covered by its direct
child spans.  Counters computed from arguments and results (samples
returned, ``sum k**3`` of the null-space SVDs, bytes of ``Phi``...) are
kept per root span, so a check can look at one operation alone.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
import types
from collections import defaultdict

# layer module -> traced public functions
FUNCTIONS = {
    "expressions": ("evaluate",),
    "loewner": (
        "build_loewner_1d",
        "build_loewner_nd",
        "nullspace_vector",
        "detect_orders",
        "sylvester_residual",
    ),
    "cascade": ("cascaded_nullspace", "recombine"),
    "model": ("eval_model", "max_error", "make_model"),
    "realize": ("build_realization", "eval_realization"),
    "driver": ("fit_direct", "fit_adaptive"),
    "cli": ("main",),
}
# layer module -> (class, method) pairs traced on the class
METHODS = {
    "grids": (
        ("DenseSource", "values_on_product"),
        ("DenseSource", "value_at"),
        ("OracleSource", "values_on_product"),
        ("OracleSource", "value_at"),
    ),
}
# self-recursive functions: only the outermost call is a span
RECURSIVE = {"expressions.evaluate"}

PACKAGE = "mvloewner"
BYTES_PER_ENTRY = 16


def _recursive_clone(fn):
    """Copy of a self-recursive module function whose inner calls go to the copy.

    The wrapper calls the copy, so the recursion neither passes through the
    wrapper (no per-node overhead) nor records a span per node.
    """
    namespace = dict(fn.__globals__)
    clone = types.FunctionType(fn.__code__, namespace, fn.__name__, fn.__defaults__, fn.__closure__)
    namespace[fn.__name__] = clone
    return clone


def _observe_values(counters, args, result, error):
    if error is None:
        counters["grids.samples"] += result.size


def _observe_value_at(counters, args, result, error):
    if error is None:
        counters["grids.samples"] += 1


def _observe_nullspace(counters, args, result, error):
    q, k = args[0].shape
    counters["loewner.nullspace_vector.k3"] += k**3
    counters["loewner.nullspace_vector.bytes"] += BYTES_PER_ENTRY * q * k
    if error is None and result.sigma_next > 0:
        gap = result.sigma_min / result.sigma_next
        key = "loewner.nullspace_vector.worst_gap"
        counters[key] = max(counters.get(key, 0.0), gap)


def _observe_cascade(counters, args, result, error):
    if error is None:
        d = result.decoupled
        counters["cascade.nodes_kept"] += sum(
            f.size // k for f, k in zip(d.factors, d.counts_in_order)
        )


def _observe_realization(counters, args, result, error):
    counters["realize.phi_bytes"] += BYTES_PER_ENTRY * args[0].order**2


def _observe_adaptive(counters, args, result, error):
    log = result[1] if error is None else getattr(error, "log", None)
    if log is not None:
        counters["driver.fit_adaptive.iterations"] += len(log.iterations)
    if error is not None and type(error).__name__ == "NotConvergedError":
        counters["driver.fit_adaptive.not_converged"] += 1


OBSERVERS = {
    "grids.values_on_product": _observe_values,
    "grids.value_at": _observe_value_at,
    "loewner.nullspace_vector": _observe_nullspace,
    "cascade.cascaded_nullspace": _observe_cascade,
    "realize.eval_realization": _observe_realization,
    "driver.fit_adaptive": _observe_adaptive,
}


class Tracer:
    """Records spans around the package's layer functions while installed."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self.counters = defaultdict(lambda: defaultdict(float))  # root index -> name -> value
        self._stack = []
        self._restore = []

    # --- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        call = _recursive_clone(fn) if name in RECURSIVE else fn

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            result = error = None
            try:
                result = call(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                spans[index][3] = clock()
                stack.pop()
                if observe is not None:
                    observe(counters[stack[0] if stack else index], args, result, error)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one operation."""
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            self._stack.pop()

    # --- installation -----------------------------------------------------

    def install(self):
        layers = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in (*FUNCTIONS, *METHODS)}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer, names in FUNCTIONS.items():
            for fname in names:
                original = getattr(layers[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for layer, pairs in METHODS.items():
            for cls_name, meth in pairs:
                cls = getattr(layers[layer], cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{layer}.{meth}", original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # --- results ----------------------------------------------------------

    def _roots(self):
        roots = []
        for index, (_, parent, _, _) in enumerate(self.spans):
            roots.append(index if parent < 0 else roots[parent])
        return roots

    def summary(self, root_name=None):
        """Calls, self time and counters under the root spans named ``op.*``.

        With ``root_name``, only under the root spans of that name.
        Returns a flat dict: ``<layer>.<function>.calls``,
        ``<layer>.<function>.self_s`` and every counter by its name.
        """
        spans = self.spans
        roots = self._roots()

        def wanted(root):
            name = spans[root][0]
            return name == root_name if root_name is not None else name.startswith("op.")

        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for index, (name, _, start, end) in enumerate(spans):
            if not wanted(roots[index]):
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[index]
        for root, values in self.counters.items():
            if not wanted(root):
                continue
            for key, value in values.items():
                out[key] = max(out[key], value) if key.endswith("worst_gap") else out[key] + value
        # nodes kept by the cascade per null-space SVD made inside it
        inside = 0
        for index, (name, parent, _, _) in enumerate(spans):
            if name == "loewner.nullspace_vector" and parent >= 0 \
                    and spans[parent][0] == "cascade.cascaded_nullspace" and wanted(roots[index]):
                inside += 1
        out["cascade.node_yield"] = out.pop("cascade.nodes_kept", 0.0) / inside if inside else 0.0
        return dict(out)

    def dump(self, path):
        """Write every span once, as JSON, to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"], "spans": self.spans}, fh)

