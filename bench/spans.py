"""In-memory span tracer for the benchmark's traced runs.

``Tracer.install()`` replaces each traced public function of kernel_spectra
with a wrapper, in every kernel_spectra module namespace that holds that
function, so calls from one module into another are seen as well as the
benchmark's own calls.  Each call records one span: (name, start, end,
parent, request).  A span whose caller is not traced starts a new request,
and its children share the request id.  ``uninstall()`` puts the original
functions back.

A wrapper returns exactly what the wrapped function returns, so a traced
pass computes bit-identical values; the benchmark checks that on every
traced run.  No traced function calls itself, so a name's total time is
the plain sum of its span durations.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

# (module, public functions) of kernel_spectra whose calls are traced
TRACED = (
    ("spectra", ("assemble", "eigensolve", "eigenfunction", "evaluate", "cross_validate_k2")),
    ("kernel", ("k_eval", "delta_r")),
    ("iterated", ("k2_closed", "k2_quadrature", "k2_diag_exact", "i0_eval")),
    ("tails", ("mixed_power_tail", "b2_series", "bn_series", "tilde_power_tail", "kernel_moment")),
    ("quadrature", ("composite_rule",)),
    ("zeta", ("zeta",)),
    ("bernoulli", ("log_factorial",)),
)
LAYER_NAMES = tuple(f"{module}.{name}" for module, names in TRACED for name in names)
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "request")
PACKAGE = "kernel_spectra"


class Tracer:
    """Records one span per call of the traced functions while installed."""

    def __init__(self):
        # (name index, start ns, end ns, parent span index or -1, request id)
        self.spans: list[tuple[int, int, int, int, int]] = []
        self._stack: list[tuple[int, int]] = []  # (span index, request id)
        self._requests = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        spans = self.spans
        stack = self._stack
        requests = self._requests
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, request = stack[-1] if stack else (-1, next(requests))
            slot = len(spans)
            spans.append(None)  # filled in when the call ends
            stack.append((slot, request))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, request)

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        prefix = PACKAGE + "."
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(prefix)]
        for index, layer in enumerate(LAYER_NAMES):
            module, name = layer.split(".")
            original = getattr(sys.modules[prefix + module], name)
            wrapper = self._wrap(index, original)
            for mod in modules:
                if vars(mod).get(name) is original:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, name, original = self._patched.pop()
            setattr(mod, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self) -> list[tuple[int, int, int, int, int]]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans taken while a traced call is open")
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans) -> dict[str, tuple[int, int, int]]:
    """Per layer name: (calls, total ns, self ns).

    Self time is a span's duration minus the durations of its direct
    children, which cover disjoint parts of it.
    """
    n = len(LAYER_NAMES)
    calls = [0] * n
    total = [0] * n
    own = [0] * n
    children = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - children[i]
    return {layer: (calls[k], total[k], own[k]) for k, layer in enumerate(LAYER_NAMES)}


def dump(path, passes) -> None:
    """Write the spans of each traced pass, times relative to the pass's first span."""
    out = []
    for spans in passes:
        t0 = min((s[1] for s in spans), default=0)
        out.append([[k, s - t0, e - t0, p, r] for k, s, e, p, r in spans])
    with open(path, "w") as fh:
        json.dump({"names": LAYER_NAMES, "fields": SPAN_FIELDS, "passes": out}, fh,
                  separators=(",", ":"))
