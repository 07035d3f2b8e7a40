"""gn-lens benchmark: fresh-process CLI runs on generated configs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from `src/` next to this directory.
Each invocation is a fresh interpreter (`bench/child.py`) that imports
`gn_lens.cli`, calls `cli.main` once on the workload's config and exits.
The reference is the library as it was at commit ae2dcbe
(`reference/gn_lens_ae2dcbe.zip`), run the same way on the same config. Its
first run gives the expected output; every invocation of this program is
checked item by item against a correctness gate and against that output.

With `--trace 0` this program and the reference run in interleaved pairs
until `--seconds` have passed (at least `MIN_ROUNDS` pairs). Times are given
as ratios over the reference in the same pairs: on a shared VM, CPU speed
drifts by some 15% over minutes, and a ratio of runs seconds apart cancels
that drift. The raw medians are in the manifest. The other end-to-end
metrics are import (set-up) time, peak RSS and the share of items that
passed. With `--trace 1` untraced and traced invocations of this program
alternate; the traced ones wrap every public function of each layer from
outside (`tracer.py`) and give per-layer CPU shares, call counts and
computed kernel sizes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines above it give a run
manifest and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference" / "gn_lens_ae2dcbe.zip" / "src"
WORK_DIR = ROOT / ".bench_run"

MIN_ROUNDS = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120

# kappa <= bound_convex <= bound_max up to this relative slack, as in
# acceptance criterion 02.
BOUND_SLACK = 1e-10
# Relative agreement with the reference; the tightest oracle tolerance in
# tests/test_acceptance.py (criteria 01 and 09).
REFERENCE_RTOL = 1e-8
NUMERIC_COLUMNS = ("kappa", "bound_convex", "bound_max", "bound_other",
                   "kappa_sigma")


@dataclass(frozen=True)
class Workload:
    """One generated CLI config; `seed_count` init seeds per invocation."""

    name: str
    command: str  # "sweep" or "train"
    jobs: int
    keys: tuple[tuple[str, str], ...]
    seed_count: int

    def config_text(self, seed: int) -> str:
        """The config for workload seed `seed`.

        The seed sets `data_seed` and shifts the init seed list, so distinct
        workload seeds use disjoint init seeds.
        """
        first = seed * self.seed_count
        lines = [f"experiment = {self.name}", f"data_seed = {seed}"]
        lines += [f"{key} = {value}" for key, value in self.keys]
        lines.append(f"seeds = {first}..{first + self.seed_count - 1}")
        return "\n".join(lines) + "\n"

    @property
    def config(self) -> dict:
        return dict(self.keys)

    @property
    def csv_name(self) -> str:
        return "sweep.csv" if self.command == "sweep" else "trace.csv"

    @property
    def items(self) -> int:
        """Items per invocation: sweep cells, or training seeds."""
        if self.command == "sweep":
            return len(self.config["values"].split(",")) * self.seed_count
        return self.seed_count

    @property
    def rows_per_item(self) -> int:
        if self.command == "sweep":
            return 1
        cfg = self.config
        return int(cfg["epochs"]) // int(cfg["trace_every"]) + 1

    @property
    def leaky(self) -> bool:
        return self.config.get("kind") == "leaky_one_hidden"


# Each workload is sized so that one layer does most of its work and little
# of the others', so a gain in one layer shows in one workload and any cost
# it has shows in the others. Every rank policy is the analytic GN rank,
# which equals the numerical rank on these full-rank instances.
WORKLOADS = {
    w.name: w for w in (
        # Eigensolve-bound: kd = 768 GN matrices, cheap partial products.
        Workload("depth_wide_io", "sweep", 1, (
            ("data", "synthetic"), ("d", "48"), ("n", "512"),
            ("cov_spectrum", "logspace:1,-2"), ("whiten", "true"),
            ("kind", "linear_deep"), ("k", "16"), ("m", "96"),
            ("axis", "L"), ("values", "2,3,4,5,6,7,8"),
            ("rank_policy", "analytic:768"),
        ), 3),
        # Partial-product-bound: kd = 32 but deep residual chains of width
        # 192, rebuilt for the GN and both depth bounds.
        Workload("depth_narrow_io", "sweep", 1, (
            ("data", "synthetic"), ("d", "8"), ("n", "512"),
            ("cov_spectrum", "logspace:1,-2"), ("whiten", "true"),
            ("kind", "residual"), ("beta", "0.5"), ("k", "4"), ("m", "192"),
            ("axis", "L"), ("values", "4,6,8,10,12,14,16"),
            ("rank_policy", "analytic:32"),
        ), 3),
        # GN-assembly-bound: the data-form kn x kn Leaky-ReLU GN (n <= d, so
        # the leaky bound is non-degenerate).
        Workload("leaky_alpha", "sweep", 1, (
            ("data", "synthetic"), ("d", "100"), ("n", "96"),
            ("kind", "leaky_one_hidden"), ("k", "4"), ("m", "64"),
            ("axis", "alpha"), ("values", "0.01,0.02,0.05,0.1,0.2,0.3,0.5"),
            ("rank_policy", "analytic:384"),
        ), 5),
        # Per-call-overhead-bound: mini-batch SGD on tiny matrices, hundreds
        # of thousands of small calls.
        Workload("train_minibatch", "train", 1, (
            ("data", "synthetic"), ("d", "16"), ("n", "512"),
            ("cov_spectrum", "logspace:1,-1"), ("kind", "linear_deep"),
            ("k", "4"), ("m", "32"), ("L", "4"), ("lr", "0.005"),
            ("epochs", "20"), ("batch_size", "32"), ("trace_every", "5"),
            ("rank_policy", "analytic:64"),
        ), 20),
    )
}


# ---------------------------------------------------------------------------
# Correctness gate


def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _number(cell: str) -> float:
    return float(cell) if cell != "" else math.nan


def row_problems(workload: Workload, row: dict, ref: dict) -> list[str]:
    """Why `row` fails the gate, or [] when it passes."""
    problems = []
    kappa = _number(row["kappa"])
    if not (math.isfinite(kappa) and kappa >= 1.0):
        problems.append(f"kappa {row['kappa']!r} is not a finite value >= 1")
    if workload.leaky:
        chain = [("kappa", "bound_other")]
    else:
        chain = [("kappa", "bound_convex"), ("bound_convex", "bound_max")]
    for lo, hi in chain:
        a, b = _number(row[lo]), _number(row[hi])
        if not (math.isfinite(b) and a <= b * (1 + BOUND_SLACK)):
            problems.append(f"{lo} {row[lo]!r} exceeds {hi} {row[hi]!r}")
    for column, value in row.items():
        expected = ref.get(column)
        if expected is None:
            problems.append(f"column {column!r} is not in the reference")
        elif column in NUMERIC_COLUMNS:
            a, b = _number(value), _number(expected)
            same_blank = math.isnan(a) and math.isnan(b)
            if not same_blank and not abs(a - b) <= REFERENCE_RTOL * abs(b):
                problems.append(f"{column} {value!r} != reference {expected!r}")
        elif value != expected:
            problems.append(f"{column} {value!r} != reference {expected!r}")
    return problems


def _items(workload: Workload, rows: list[dict]) -> dict:
    """Rows grouped by item: (experiment, seed) per cell, seed per training."""
    groups: dict = {}
    for row in rows:
        key = (row["experiment"], row["seed"]) if workload.command == "sweep" \
            else row["seed"]
        groups.setdefault(key, []).append(row)
    return groups


def count_failures(workload: Workload, rc, csv_text: str | None,
                   ref_text: str | None) -> tuple[int, list[str]]:
    """(failed items, reasons) for one invocation's output.

    An item fails if the command exits nonzero, the item is missing from the
    CSV (a cell logged to errors.log, a diverged seed with a short trace), or
    a row of it fails `row_problems`.
    """
    if rc != 0 or csv_text is None:
        return workload.items, [f"exit code {rc}"]
    if ref_text is None:
        return workload.items, ["no reference output"]
    got = _items(workload, parse_csv(csv_text))
    reasons = []
    passed = 0
    for key, ref_rows in _items(workload, parse_csv(ref_text)).items():
        rows = got.get(key, [])
        if len(rows) != workload.rows_per_item or len(ref_rows) != len(rows):
            reasons.append(f"item {key}: {len(rows)} rows, reference "
                           f"{len(ref_rows)}, expected {workload.rows_per_item}")
            continue
        problems = [p for row, ref in zip(rows, ref_rows)
                    for p in row_problems(workload, row, ref)]
        if problems:
            reasons.append(f"item {key}: {problems[0]}")
        else:
            passed += 1
    return workload.items - min(passed, workload.items), reasons


# ---------------------------------------------------------------------------
# Invocations


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["GN_LENS_LOG"] = "error"
    env.pop("PYTHONPATH", None)
    return env


def invoke(package_root: Path, mode: str, cli_args: list[str],
           scratch: Path) -> dict | None:
    """Run bench/child.py once; its result dict, or None if it crashed."""
    out = scratch / f"child-{time.perf_counter_ns()}.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(out),
           str(package_root), mode, *cli_args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"child timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.exists():
        print(f"child failed ({proc.returncode}): {proc.stderr.strip()}",
              file=sys.stderr)
        return None
    result = json.loads(out.read_text())
    out.unlink()
    return result


def cli_args(workload: Workload, config: Path, out_dir: Path) -> list[str]:
    return [workload.command, "--config", str(config), "--out", str(out_dir),
            "--jobs", str(workload.jobs)]


# ---------------------------------------------------------------------------
# Metrics


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end_metrics(pairs: list[tuple[dict, dict]], setup: list[float],
                       attempted: int, failed: int) -> dict:
    """Times as ratios over the reference library, from interleaved pairs.

    Each pair is (this program, reference) run back to back on the same
    config, so a drift in host speed slows both sides alike and cancels in
    the pair's ratio. Each time metric is the median of those ratios.
    """

    def vs_ref(stat) -> tuple[float, str]:
        return statistics.median(stat(run) / stat(ref) for run, ref in pairs), "ratio"

    runs = [run for run, _ in pairs]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_vs_ref": vs_ref(lambda r: r["wall_s"]),
        "item_p50_vs_ref": vs_ref(lambda r: statistics.median(r["item_ms"])),
        "item_p90_vs_ref": vs_ref(lambda r: _p90(r["item_ms"])),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "items_ok_frac": ((attempted - failed) / attempted, "frac"),
    }


def raw_times(pairs: list[tuple[dict, dict]]) -> dict:
    """Medians in seconds and ms of both sides, for the manifest."""
    times = {}
    for side, runs in (("", [p[0] for p in pairs]), ("ref_", [p[1] for p in pairs])):
        items = [ms for run in runs for ms in run["item_ms"]]
        times[f"{side}wall_s"] = statistics.median(r["wall_s"] for r in runs)
        times[f"{side}item_ms_p50"] = statistics.median(items)
        times[f"{side}item_ms_p90"] = _p90(items)
    return times


def _trace_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced invocation."""
    fns = trace["functions"]
    busy = trace["busy_cpu"]

    def get(names, field):
        return sum(fns.get(name, {}).get(field, 0) for name in names)

    def pct(*names):
        return (100 * get(names, "cpu") / busy, "%")

    def calls(*names):
        return (get(names, "calls"), "count")

    def counter(name, divisor, unit):
        return (trace["counters"].get(name, 0) / divisor, unit)

    metrics = {
        f"{layer}.self_pct": (
            100 * sum(f["self_cpu"] for name, f in fns.items()
                      if name.startswith(layer + ".")) / busy, "%")
        for layer in LAYERS
    }
    bound_fns = [name for name in fns if name.startswith("bounds.")]
    item = ("cli.evaluate_instance" if "cli.evaluate_instance" in fns
            else "trainer.train")
    item_wall = get([item], "wall")
    metrics.update({
        "cli.evaluate_instance.pct": pct("cli.evaluate_instance"),
        "cli.evaluate_instance.calls": calls("cli.evaluate_instance"),
        "cli.write_rows.pct": pct("cli.write_rows"),
        "cli.item_wait_pct": (
            100 * (1 - get([item], "cpu") / item_wall) if item_wall else 0.0, "%"),
        # The data stage: cli.load_dataset generates and whitens the inputs.
        "data.load_dataset.pct": pct("cli.load_dataset"),
        "data.empirical_covariance.calls": calls("data.empirical_covariance"),
        "network.partial_product.calls": calls("network.partial_product"),
        "network.partial_product.pct": pct("network.partial_product"),
        "network.partial_product.gflop": counter(
            "network.partial_product.flop", 1e9, "gflop"),
        "network.forward.calls": calls("network.forward"),
        "network.init.pct": pct("network.init"),
        "gauss_newton.gn_product.pct": pct("gauss_newton.gn_linear",
                                           "gauss_newton.gn_residual"),
        "gauss_newton.gn_leaky.pct": pct("gauss_newton.gn_leaky"),
        "gauss_newton.gn.calls": calls("gauss_newton.gn_linear",
                                       "gauss_newton.gn_residual",
                                       "gauss_newton.gn_leaky"),
        "gauss_newton.gn.matrix_mb": counter(
            "gauss_newton.gn.matrix_bytes", 1e6, "MB"),
        "linalg.eig.calls": calls("linalg.sym_eigendecompose"),
        "linalg.eig.pct": pct("linalg.sym_eigendecompose"),
        # (4/3) n^3 flops per eigensolve of an n x n matrix.
        "linalg.eig.gflop": counter("linalg.eig.dim_cubed", 0.75e9, "gflop"),
        "linalg.kron.calls": calls("linalg.kron"),
        "linalg.kron.mb": counter("linalg.kron.bytes", 1e6, "MB"),
        "linalg.psd_sqrt.pct": pct("linalg.psd_sqrt"),
        "bounds.calls": calls(*bound_fns),
        "bounds.pct": pct(*bound_fns),
        "trainer.mse_gradient.calls": calls("trainer.mse_gradient"),
        "trainer.mse_gradient.pct": pct("trainer.mse_gradient"),
        "trainer.checkpoint_metrics.calls": calls("trainer.checkpoint_metrics"),
        "trainer.checkpoint_metrics.pct": pct("trainer.checkpoint_metrics"),
        "trace.busy_ms": (busy * 1e3, "ms"),
    })
    return metrics


def per_layer_metrics(runs: list[dict], traced: list[dict], jobs: int) -> dict:
    """Medians over traced invocations; pool efficiency from untraced ones."""
    per_run = [_trace_metrics(r["trace"]) for r in traced]
    # median_low keeps counts exact: it always returns a measured value.
    metrics = {name: (statistics.median_low(m[name][0] for m in per_run), unit)
               for name, (_, unit) in per_run[0].items()}
    untraced_wall = statistics.median(r["wall_s"] for r in runs)
    metrics["cli.pool_efficiency"] = (statistics.median(
        sum(r["item_ms"]) / 1e3 / (jobs * r["wall_s"]) for r in runs), "frac")
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced) / untraced_wall - 1, "frac")
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Entry point


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            scratch: Path) -> tuple[dict, dict, int, int, list[str]]:
    """(metrics, manifest, attempted, failed, failure reasons) for one run."""
    config_text = workload.config_text(seed)
    config = scratch / f"{workload.name}.cfg"
    config.write_text(config_text)

    probes = [invoke(SRC, "import", [], scratch) for _ in range(IMPORT_PROBES)]
    if any(p is None for p in probes):
        raise RuntimeError("cannot import gn_lens.cli from src/")
    invocations = 0

    def invoke_cli(root: Path, mode: str) -> tuple[dict | None, str | None]:
        nonlocal invocations
        invocations += 1
        out_dir = scratch / f"out{invocations}"
        result = invoke(root, mode, cli_args(workload, config, out_dir), scratch)
        csv_path = out_dir / workload.csv_name
        csv_text = csv_path.read_text() if csv_path.exists() else None
        return result, csv_text

    ref_text = None

    def reference() -> dict:
        """One run of the reference; its first output is the expected one."""
        nonlocal ref_text
        result, csv_text = invoke_cli(REFERENCE, "run")
        if result is None or result["rc"] != 0 or csv_text is None:
            raise RuntimeError("the reference library failed on this config")
        ref_text = ref_text or csv_text
        return result

    setup = [p["setup_s"] for p in probes]
    pairs, runs, traced, reasons = [], [], [], []
    attempted = failed = identical = 0

    def attempt(mode: str) -> dict | None:
        """One gated invocation of this program; its result if it exited 0."""
        nonlocal attempted, failed, identical
        result, csv_text = invoke_cli(SRC, mode)
        rc = None if result is None else result["rc"]
        bad, why = count_failures(workload, rc, csv_text, ref_text)
        attempted += workload.items
        failed += bad
        reasons.extend(why)
        identical += csv_text is not None and csv_text == ref_text
        if rc != 0:
            return None
        setup.append(result["setup_s"])
        return result

    deadline = time.perf_counter() + seconds
    if trace:
        reference()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        if trace:
            for mode, sink in (("run", runs), ("trace", traced)):
                result = attempt(mode)
                if result is not None:
                    sink.append(result)
        else:
            # The reference goes first in even rounds (the gate needs its
            # output before the first check) and second in odd ones, so
            # neither side gains from a drift in host speed.
            if rounds % 2 == 0:
                ref = reference()
                run = attempt("run")
            else:
                run = attempt("run")
                ref = reference()
            if run is not None:
                pairs.append((run, ref))
        rounds += 1
    runs = runs if trace else [run for run, _ in pairs]
    if not runs or (trace and not traced):
        raise RuntimeError("no invocation completed")

    if trace:
        metrics = per_layer_metrics(runs, traced, workload.jobs)
    else:
        metrics = end_to_end_metrics(pairs, setup, attempted, failed)
    manifest = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), **probes[0]["environment"],
        "jobs": workload.jobs, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "invocations": invocations,
        "items_timed": sum(len(r["item_ms"]) for r in runs),
        **({} if trace else raw_times(pairs)),
        "csv_identical_to_reference": f"{identical}/{attempted // workload.items}",
    }
    return metrics, manifest, attempted, failed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "gn_lens" / "cli.py").is_file():
        print(f"error: no gn_lens package under {SRC}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        try:
            metrics, manifest, attempted, failed, reasons = measure(
                WORKLOADS[args.workload], args.seed, args.seconds,
                bool(args.trace), Path(tmp))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

    print("manifest " + json.dumps(manifest))
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
