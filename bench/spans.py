"""Per-layer spans for the traced benchmark run.

The wrappers live here, in the benchmark, not in the program: while a
:class:`Tracer` is installed, every module-level reference to a traced qloss
function (and ``DensityMatrix.__post_init__``) is swapped for a wrapper that
records a span. Spans nest per thread; a span's self time is its duration
minus the durations of its direct children. Uninstalling restores the
original objects, so untraced rounds run the program untouched.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, attribute) of the traced callable
TARGETS = {
    "cli.main": ("qloss.cli", "main"),
    "robustness.classify_qubit_loss": ("qloss.robustness", "classify_qubit_loss"),
    "robustness.classify_residual": ("qloss.robustness", "classify_residual"),
    "robustness.fig1_scatter": ("qloss.robustness", "fig1_scatter"),
    "robustness.sweep": ("qloss.robustness", "sweep"),
    "robustness.random_two_qubit_mixed": ("qloss.robustness", "random_two_qubit_mixed"),
    "states.partial_trace": ("qloss.states", "partial_trace"),
    "states.reduce_support": ("qloss.states", "reduce_support"),
    "states.density_matrix": ("qloss.states", "DensityMatrix.__post_init__"),
    "numerics.eigh": ("qloss.numerics", "eigh"),
    "numerics.inv_sqrt_psd": ("qloss.numerics", "inv_sqrt_psd"),
    "bloch.normal_form": ("qloss.bloch", "_normal_form_steps"),
    "bloch.bloch_decompose": ("qloss.bloch", "bloch_decompose"),
    "bloch.correlation_svd": ("qloss.bloch", "correlation_svd"),
    "criteria.ppt_negativity": ("qloss.criteria", "ppt_negativity"),
    "criteria.kf_criterion": ("qloss.criteria", "kf_criterion"),
    "criteria.wootters_concurrence": ("qloss.criteria", "wootters_concurrence"),
}


class Tracer:
    """Span totals per name: calls, inclusive ms and self ms."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.count = defaultdict(int)
        self.ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.nf_iterations = 0
        self.nf_converged = 0
        self.nf_flop = 0                 # an int, so per-item figures repeat exactly

    def _wrap(self, name, fn):
        observe = self._observe_normal_form if name == "bloch.normal_form" else None

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [0.0]                    # child ms accumulated by nested spans
            stack.append(frame)
            start = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                took = (time.perf_counter() - start) * 1e3
                stack.pop()
                if stack:
                    stack[-1][0] += took
                with self._lock:
                    self.count[name] += 1
                    self.ms[name] += took
                    self.self_ms[name] += took - frame[0]
                    if observe is not None:
                        observe(args[0], result, exc)

        traced.__wrapped__ = fn
        return traced

    def _observe_normal_form(self, rho, result, exc):
        if exc is None:
            iterations = result[1]
            self.nf_converged += 1
        else:
            iterations = getattr(exc, "iterations", None) or 0
        dim = rho.dims[0] * rho.dims[1]
        self.nf_iterations += iterations
        # one filter step: two complex dim x dim matmuls at 8 real flop per
        # multiply-add, plus the kron that builds the dim x dim filter
        self.nf_flop += iterations * (2 * 8 * dim**3 + 6 * dim**2)

    @contextmanager
    def installed(self):
        """Swap every reference to a traced callable for its wrapper."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "qloss" or key.startswith("qloss."))]
        swapped = []
        try:
            for name, (module_name, attr) in TARGETS.items():
                owner = sys.modules[module_name]
                if "." in attr:                              # a method on a class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, original))
                    swapped.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            swapped.append((mod, key, original))
            yield self
        finally:
            for holder, key, original in reversed(swapped):
                setattr(holder, key, original)
