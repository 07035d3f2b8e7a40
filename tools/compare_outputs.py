"""Run the same configs through two `src` trees and compare their outputs.

    python3 tools/compare_outputs.py --parent HEAD~1
    python3 tools/compare_outputs.py --base /path/to/other/src [--head src]

Each case is one `gn_lens.cli` invocation, or one library script that saves
GN matrices and spectra as raw float64 files, run once per tree in a fresh
interpreter with that tree on PYTHONPATH and BLAS pinned to one thread. The
cases cover every command and kind, every rank policy mode, exit codes 2 and
3, the benchmark's four workload configs (`bench/run.py`, seed 0) and the GN
builders that the CLI does not reach (`gn_conv_shared`, `gn_from_jacobian`).
For each case the report gives both exit codes, whether stderr matches, and
per output file whether it is byte-identical; where a file differs it gives
the largest relative deviation per numeric CSV column (or over a raw float64
file).
Exit status 0 means every exit code, stderr and file is identical.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import array
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from bench_record import extract  # noqa: E402
from run import WORKLOADS  # noqa: E402

SMALL = "data = synthetic\nd = 6\nn = 64\nseeds = 0,1\n"
RESIDUAL = ("data = synthetic\nd = 10\nn = 80\ncov_spectrum = logspace:1,-1\n"
            "kind = residual\nbeta = 0.5\nseeds = 0\n")
TRAIN = "lr = 0.01\nepochs = 6\nbatch_size = 16\ntrace_every = 2\n"

# (name, command, extra CLI arguments, config text)
CLI_CASES = [
    ("analyze_deep", "analyze", ["--spectrum"],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\nL = 3\n"),
    ("analyze_whitened", "analyze", [],
     SMALL + "cov_spectrum = logspace:1,-2\nwhiten = true\n"
             "kind = linear_deep\nk = 3\nm = 7\nL = 4\n"),
    ("analyze_residual", "analyze", ["--spectrum"],
     RESIDUAL + "k = 3\nm = 10\nL = 4\n"),
    ("analyze_residual_bottleneck", "analyze", [],
     RESIDUAL + "dims = 10,14,6,9,3\n"),
    ("analyze_aligned", "analyze", [],
     "data = synthetic\nd = 6\nn = 64\nkind = residual\nbeta = 0.5\n"
     "dims = 6,6,6,6\ninit = aligned_svd\nseeds = 0,1\n"),
    ("analyze_rank_relative", "analyze", [],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\nL = 3\n"
             "rank_policy = relative:1e-12\n"),
    ("analyze_rank_absolute", "analyze", [],
     RESIDUAL + "k = 3\nm = 10\nL = 4\nrank_policy = absolute:1e-9\n"),
    ("analyze_gaussian", "analyze", [],
     SMALL + "kind = linear_deep\nk = 2\nm = 5\nL = 3\ninit = gaussian\n"
             "init_sigma = 0.3\n"),
    ("analyze_conv", "analyze", [],
     "data = synthetic\nd = 12\nn = 64\nkind = linear_conv\nfilters = 2\n"
     "kernel = 3\nseeds = 0,1\n"),
    ("analyze_leaky", "analyze", [],
     "data = synthetic\nd = 12\nn = 10\nkind = leaky_one_hidden\nk = 2\n"
     "m = 9\nalpha = 0.1\nseeds = 0,1\n"),
    ("sweep_depth", "sweep", ["--svg"],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\naxis = L\nvalues = 1,2,3,5\n"),
    ("sweep_depth_jobs2", "sweep", ["--jobs", "2"],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\naxis = L\nvalues = 1,2,3,5\n"),
    ("sweep_width", "sweep", [],
     SMALL + "kind = linear_deep\nk = 2\nL = 3\naxis = m\nvalues = 2,6,12\n"),
    ("sweep_beta", "sweep", [],
     RESIDUAL + "k = 3\nm = 10\nL = 5\naxis = beta\nvalues = 0,0.25,1\n"),
    ("sweep_kernel", "sweep", [],
     "data = synthetic\nd = 14\nn = 64\nkind = linear_conv\nfilters = 2\n"
     "axis = kernel\nvalues = 1,3,5\nseeds = 0,1\n"),
    ("sweep_filters", "sweep", [],
     "data = synthetic\nd = 14\nn = 64\nkind = linear_conv\nkernel = 3\n"
     "axis = filters\nvalues = 1,2,3\nseeds = 0,1\n"),
    ("sweep_xavier_seed_order_jobs2", "sweep", ["--jobs", "2"],
     RESIDUAL.replace("seeds = 0", "seeds = 1,0,1")
     + "k = 3\nm = 10\ninit = xavier_normal\naxis = L\nvalues = 5,3,2,6,1\n"),
    ("sweep_gaussian_failing_cell", "sweep", ["--svg"],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\ninit = gaussian\n"
             "init_sigma = 0.3\naxis = L\nvalues = 3,0,2,4\n"),
    ("sweep_partial_failure", "sweep", [],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\naxis = L\nvalues = 0,2\n"),
    ("sweep_dims_beta", "sweep", [],
     "data = synthetic\nd = 5\nn = 40\nkind = residual\ndims = 5,7,7,2\n"
     "axis = beta\nvalues = 0,0.5\nseeds = 0\n"),
    ("sweep_alpha", "sweep", [],
     "data = synthetic\nd = 12\nn = 10\nkind = leaky_one_hidden\nk = 2\n"
     "m = 9\naxis = alpha\nvalues = 0,0.01,0.5\nseeds = 0,1\n"),
    ("train_deep", "train", ["--svg"],
     SMALL + TRAIN + "kind = linear_deep\nk = 2\nm = 8\nL = 3\n"),
    ("train_residual", "train", [],
     RESIDUAL + TRAIN + "k = 3\nm = 10\nL = 3\n"),
    ("train_leaky", "train", [],
     "data = synthetic\nd = 12\nn = 10\nkind = leaky_one_hidden\nk = 2\n"
     "m = 9\nseeds = 0\n" + TRAIN),
    ("prune_deep", "prune", [],
     SMALL + TRAIN + "kind = linear_deep\nk = 2\nm = 8\nL = 3\n"
                     "fractions = 0,0.3,0.6\n"),
    ("prune_residual", "prune", [],
     RESIDUAL + TRAIN + "k = 3\nm = 10\nL = 3\nfractions = 0,0.4,0.8\n"),
    ("whiten", "whiten", [],
     SMALL + "cov_spectrum = logspace:2,-2\nkind = linear_deep\nk = 2\n"
             "m = 8\nL = 3\n"),
    ("exit2_missing_values", "sweep", [],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\naxis = L\n"),
    ("exit2_negative_seed", "analyze", [],
     "data = synthetic\nd = 6\nn = 64\nseeds = -1\nkind = linear_deep\n"
     "k = 2\nm = 8\nL = 3\n"),
    ("exit2_residual_beta_nan", "analyze", [],
     RESIDUAL.replace("beta = 0.5", "beta = nan") + "k = 3\nm = 10\nL = 4\n"),
    ("exit2_fractional_depth", "sweep", [],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\naxis = L\nvalues = 2.5\n"),
    ("exit2_conv_kernel_over_signal", "analyze", [],
     "data = synthetic\nd = 8\nn = 64\nkind = linear_conv\nfilters = 2\n"
     "kernel = 9\nseeds = 0\n"),
    ("exit2_untrainable_kind", "train", [],
     SMALL + TRAIN + "kind = linear_bn_one_hidden\nk = 2\nm = 8\n"),
    ("exit2_sweep_bn", "sweep", [],
     SMALL + "kind = linear_bn_one_hidden\nk = 2\nm = 8\naxis = m\n"
             "values = 4,8\n"),
    ("exit2_sweep_aligned_unequal", "sweep", [],
     SMALL.replace("d = 6", "d = 4") + "kind = residual\ndims = 4,6,8,2\n"
     "init = aligned_svd\naxis = beta\nvalues = 0,0.5\n"),
    ("exit2_sweep_unknown_kind", "sweep", [],
     SMALL + "kind = abc\nk = 2\nm = 8\naxis = L\nvalues = 2,3\n"),
    ("exit2_sweep_unread_axis", "sweep", [],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\nL = 3\naxis = beta\n"
             "values = 0,0.5\n"),
    ("exit2_unread_network_key", "analyze", [],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\nL = 3\nbeta = 0.7\n"),
    ("exit2_negative_seed_override", "analyze", ["--seed-override", "-1"],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\nL = 3\n"),
    ("exit2_init_sigma_nan", "analyze", [],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\nL = 3\ninit = gaussian\n"
             "init_sigma = nan\n"),
    ("exit2_prune_fraction_over_one", "prune", [],
     SMALL + TRAIN + "kind = linear_deep\nk = 2\nm = 8\nL = 3\n"
                     "fractions = 0,1.5\n"),
    ("exit2_whiten_eigen_floor_nan", "whiten", [],
     SMALL + "cov_spectrum = logspace:2,-2\neigen_floor = nan\n"
             "kind = linear_deep\nk = 2\nm = 8\nL = 3\n"),
    ("exit2_sweep_aligned_leaky_alpha", "sweep", [],
     "data = synthetic\nd = 12\nn = 10\nkind = leaky_one_hidden\nk = 2\n"
     "m = 9\ninit = aligned_svd\naxis = alpha\nvalues = 0,0.5\nseeds = 0\n"),
    ("exit3_cap", "analyze", [],
     "data = synthetic\nd = 2000\nn = 8\nkind = linear_deep\nk = 600\n"
     "m = 4\nL = 2\nseeds = 0\n"),
    ("exit3_overflow", "analyze", [],
     SMALL + "kind = linear_deep\nk = 2\nm = 8\nL = 3\ninit = gaussian\n"
             "init_sigma = 1e200\n"),
] + [(f"bench_{w.name}", w.command, ["--jobs", str(w.jobs)], w.config_text(0))
     for w in WORKLOADS.values()]

# Saves, per builder, the GN matrix and its spectrum as raw float64 files.
LIBRARY_SCRIPT = """
import sys
import numpy as np
import gn_lens as g
from gn_lens.network import NetworkSpec, init

out = sys.argv[1]
rng = np.random.default_rng(0)
x = rng.standard_normal((14, 6)) @ rng.standard_normal((6, 40))
x = np.vstack([x, rng.standard_normal((6, 40))])
sigma = g.empirical_covariance(g.Dataset(X=x))
deep = NetworkSpec(kind="linear_deep", dims=(20, 30, 17, 19))
res = NetworkSpec(kind="residual", dims=(20, 20, 20, 20), beta=0.5)
conv = NetworkSpec(kind="linear_conv", dims=(20,),
                   conv_layers=((8, 1, 5), (8, 8, 5)))
leaky = NetworkSpec(kind="leaky_one_hidden", dims=(20, 12, 3))
p_deep, p_res = init(deep, seed=1), init(res, seed=2)
p_conv, p_leaky = init(conv, seed=3), init(leaky, seed=4)
gns = {
    "gn_linear": g.gn_linear(p_deep, sigma),
    "gn_residual": g.gn_residual(p_res, 0.5, sigma),
    "gn_conv": g.gn_conv(g.lift_conv(conv, p_conv), sigma),
    "gn_conv_shared": g.gn_conv_shared(conv, p_conv, sigma),
    "gn_from_jacobian_analytic": g.gn_from_jacobian(
        deep, p_deep, x, mode="analytic_linear"),
    "gn_from_jacobian_fd": g.gn_from_jacobian(leaky, p_leaky, x[:, :12]),
    "gn_leaky": g.gn_leaky(p_leaky.layers[1], p_leaky.layers[0], x, 0.1)[0],
}
for name, gn in gns.items():
    gn.matrix.tofile(f"{out}/{name}.f64")
    gn.spectrum().values.tofile(f"{out}/{name}.spectrum.f64")
"""


def run_case(src: Path, case, work: Path) -> tuple[int, str]:
    """Run one case with `src` on PYTHONPATH; its exit code and stderr."""
    name, command, extra, text = case
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Relative paths, so that messages naming them match between the trees.
    if command == "library":
        cmd = [sys.executable, "-c", text, "."]
    else:
        (work.parent / f"{name}.cfg").write_text(text)
        cmd = [sys.executable, "-m", "gn_lens.cli", command, "--config",
               f"../{name}.cfg", "--out", ".", *extra]
    proc = subprocess.run(cmd, env=env, cwd=work, capture_output=True,
                          text=True)
    return proc.returncode, proc.stderr


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def deviation(base: Path, head: Path) -> dict[str, float | str]:
    """Largest relative deviation per numeric column of two differing files
    (one entry, '*', for a raw float64 file); 'differs' where a column is not
    numeric in both or the shapes disagree."""
    if base.suffix == ".f64":
        a, b = array.array("d"), array.array("d")
        a.frombytes(base.read_bytes())
        b.frombytes(head.read_bytes())
        if len(a) != len(b):
            return {"*": "differs"}
        return {"*": max(map(_rel, a, b), default=0.0)}
    if base.suffix != ".csv":
        return {"*": "differs"}
    with base.open() as fa, head.open() as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return {"*": "differs"}
    worst: dict[str, float | str] = {}
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for column, x, y in zip(rows_a[0], row_a, row_b):
            if x == y:
                continue
            try:
                dev: float | str = _rel(float(x), float(y))
            except ValueError:
                dev = "differs"
            old = worst.get(column, 0.0)
            if isinstance(dev, str) or isinstance(old, str):
                worst[column] = "differs"
            else:
                worst[column] = max(old, dev)
    return worst


def compare(base_src: Path, head_src: Path, work: Path) -> bool:
    same = True
    cases = CLI_CASES + [("library", "library", [], LIBRARY_SCRIPT)]
    for case in cases:
        name = case[0]
        rc_a, err_a = run_case(base_src, case, work / "base" / name)
        rc_b, err_b = run_case(head_src, case, work / "head" / name)
        files = sorted({p.name for side in ("base", "head")
                        for p in (work / side / name).iterdir()})
        line = [f"{name}: exit {rc_a}/{rc_b}",
                "stderr same" if err_a == err_b else "stderr DIFFERS"]
        same &= rc_a == rc_b and err_a == err_b
        for file in files:
            a, b = work / "base" / name / file, work / "head" / name / file
            if not (a.exists() and b.exists()):
                line.append(f"{file} only in {'base' if a.exists() else 'head'}")
                same = False
            elif a.read_bytes() == b.read_bytes():
                line.append(f"{file} identical")
            else:
                same = False
                devs = ", ".join(
                    f"{c} {v}" if isinstance(v, str) else f"{c} {v:.2e}"
                    for c, v in deviation(a, b).items())
                line.append(f"{file} DIFFERS ({devs})")
        print("; ".join(line), flush=True)
    print("all identical" if same else "outputs differ")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    base = parser.add_mutually_exclusive_group(required=True)
    base.add_argument("--parent", help="git revision whose src is the base")
    base.add_argument("--base", type=Path, help="src directory of the base")
    parser.add_argument("--head", type=Path, default=ROOT / "src",
                        help="src directory of the head (default: this tree)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        base_src = args.base
        if args.parent:
            extract(args.parent, tmp / "parent")
            base_src = tmp / "parent" / "src"
        same = compare(base_src.resolve(), args.head.resolve(), tmp / "runs")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
