"""Outside-in span tracer for the gn_lens modules.

`Tracer.install` replaces every public function of the traced modules with a
wrapper that records a span: wall time, thread CPU time, and the part of each
that child spans cover. Because the package imports names with
`from .x import y`, a wrapper is installed in every module namespace that
holds the original function, not only in the defining module. Each thread
keeps its own span stack, so the 2 worker threads of a sweep never adopt each
other's spans as parents.

Per-function hooks turn a call's arguments and result into computed kernel
sizes (flops, bytes). These are derived from shapes, not measured, and are
summed as integers so that they repeat exactly whatever order threads add
them in.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

# Layers in the order they are reported; `errors` does no work.
LAYERS = ("cli", "data", "network", "gauss_newton", "linalg", "bounds",
          "trainer")


def _partial_product_flops(args, result):
    layers, hi, lo = args[0].layers, args[1], args[2]
    if hi < lo:
        return 0
    # out (a_hi x a_i) @ W^i (a_i x a_{i-1}) for i = hi-1 down to lo.
    inner = 0
    for i in range(hi - 1, lo - 1, -1):
        rows, cols = layers[i - 1].shape
        inner += rows * cols
    return 2 * layers[hi - 1].shape[0] * inner


def _eig_dim_cubed(args, result):
    spectrum = result[0] if isinstance(result, tuple) else result
    return spectrum.values.size ** 3


def _result_bytes(args, result):
    return result.nbytes


def _gn_bytes(args, result):
    gn = result[0] if isinstance(result, tuple) else result
    return gn.matrix.nbytes


# (layer, function) -> (counter, hook(args, result) -> integer increment)
HOOKS = {
    ("network", "partial_product"): ("partial_product.flop",
                                     _partial_product_flops),
    ("linalg", "sym_eigendecompose"): ("eig.dim_cubed", _eig_dim_cubed),
    ("linalg", "kron"): ("kron.bytes", _result_bytes),
    ("gauss_newton", "gn_linear"): ("gn.matrix_bytes", _gn_bytes),
    ("gauss_newton", "gn_residual"): ("gn.matrix_bytes", _gn_bytes),
    ("gauss_newton", "gn_leaky"): ("gn.matrix_bytes", _gn_bytes),
}


class FunctionStats:
    """Totals for one (layer, function) on one thread."""

    __slots__ = ("calls", "wall", "cpu", "self_wall", "self_cpu")

    def __init__(self):
        self.calls = 0
        self.wall = self.cpu = self.self_wall = self.self_cpu = 0.0


class _ThreadState:
    """Span stack and totals of one thread."""

    def __init__(self):
        self.stack = []
        self.stats = {}
        self.counters = {}
        self.root_wall = self.root_cpu = 0.0


class _Local(threading.local):
    # threading.local runs __init__ once in every thread that touches it.
    def __init__(self, tracer: "Tracer"):
        self.state = _ThreadState()
        with tracer._lock:
            tracer._threads.append(self.state)


class Tracer:
    """Wraps the public functions of `modules` (layer name -> module)."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._lock = threading.Lock()
        self._threads = []
        self._local = _Local(self)
        self._saved = []  # (namespace, name, original) for uninstall

    def _wrap(self, layer: str, name: str, fn):
        key = (layer, name)
        counter, hook = HOOKS.get(key, (None, None))
        if counter is not None:
            counter = f"{layer}.{counter}"
        local = self._local
        perf_counter, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = local.state
            stack = state.stack
            frame = [0.0, 0.0]  # wall, cpu covered by child spans
            stack.append(frame)
            wall0, cpu0 = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu0
                wall = perf_counter() - wall0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                else:
                    state.root_wall += wall
                    state.root_cpu += cpu
                st = state.stats.get(key)
                if st is None:
                    st = state.stats[key] = FunctionStats()
                st.calls += 1
                st.wall += wall
                st.cpu += cpu
                st.self_wall += wall - frame[0]
                st.self_cpu += cpu - frame[1]
            if hook is not None:
                counters = state.counters
                counters[counter] = counters.get(counter, 0) + hook(args, result)
            return result

        return span

    def install(self) -> None:
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(layer, name, obj)
        packages = {m.__name__.rpartition(".")[0] for m in self.modules.values()}
        namespaces = [mod for mname, mod in list(sys.modules.items())
                      if mname in packages
                      or mname.rpartition(".")[0] in packages]
        for mod in namespaces:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def stats(self) -> dict:
        """Merged per-function totals, counters and root-span busy time.

        Times are in seconds. `busy_cpu` is the CPU time of all root spans,
        which equals the sum of every function's self CPU time.
        """
        functions: dict[str, dict] = {}
        counters: dict[str, int] = {}
        root_wall = root_cpu = 0.0
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            root_wall += state.root_wall
            root_cpu += state.root_cpu
            for (layer, name), st in state.stats.items():
                agg = functions.setdefault(f"{layer}.{name}", {
                    "calls": 0, "wall": 0.0, "cpu": 0.0, "self_wall": 0.0,
                    "self_cpu": 0.0})
                agg["calls"] += st.calls
                agg["wall"] += st.wall
                agg["cpu"] += st.cpu
                agg["self_wall"] += st.self_wall
                agg["self_cpu"] += st.self_cpu
            for name, value in state.counters.items():
                counters[name] = counters.get(name, 0) + value
        return {"functions": functions, "counters": counters,
                "busy_wall": root_wall, "busy_cpu": root_cpu}
