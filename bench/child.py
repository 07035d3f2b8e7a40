"""One fresh-interpreter invocation of the gn-lens CLI, timed from inside.

    python3 bench/child.py <result.json> <package_root> <mode> [cli args...]

`package_root` is the directory (or zip path) that holds the `gn_lens`
package. `mode` is `import` (time the import only), `run` (also call
`gn_lens.cli.main` once with the CLI args) or `trace` (the same with every
layer traced). The result file gets the import time, the time inside
`cli.main`, its exit code, the wall time of every item (one
`evaluate_instance` call per sweep cell, one `train` call per training seed),
the process's peak resident set size and, when traced, the tracer's totals.
"""

import sys
import time


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment():
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _time_items(module, name, sink):
    fn = getattr(module, name)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        sink.append((time.perf_counter() - start) * 1e3)
        return result

    setattr(module, name, timed)


def main(argv):
    out_path, package_root, mode, cli_args = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, package_root)
    start = time.perf_counter()
    import gn_lens.cli as cli
    setup_s = time.perf_counter() - start

    import json
    import resource

    result = {"setup_s": setup_s}
    if mode == "import":
        result["environment"] = _environment()
    else:
        tracer = None
        if mode == "trace":
            import importlib

            from tracer import LAYERS, Tracer

            tracer = Tracer({layer: importlib.import_module(f"gn_lens.{layer}")
                             for layer in LAYERS})
            tracer.install()
        item_ms = []
        # Installed after the tracer, so an item's time includes its spans.
        _time_items(cli, "train" if cli_args[0] == "train"
                    else "evaluate_instance", item_ms)
        start = time.perf_counter()
        rc = cli.main(cli_args)
        result["wall_s"] = time.perf_counter() - start
        result["rc"] = rc
        result["item_ms"] = item_ms
        if tracer is not None:
            result["trace"] = tracer.stats()
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
