"""Tests of the benchmark itself, at smoke sizes that run in seconds.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

import gn_lens.cli as cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name, seed_count=2, **keys):
    """A workload from run.WORKLOADS with smaller sizes."""
    workload = run.WORKLOADS[name]
    merged = dict(workload.keys) | keys
    return dataclasses.replace(workload, keys=tuple(merged.items()),
                               seed_count=seed_count)


SMOKE_SWEEP = smoke("depth_wide_io", d="6", k="2", m="8", values="2,3",
                    rank_policy="analytic:12")
SMOKE_TRAIN = smoke("train_minibatch", d="4", k="2", m="6", L="3", n="64",
                    epochs="2", trace_every="1", rank_policy="analytic:8")


def cli_output(workload, tmp_path, seed=0):
    config = tmp_path / "smoke.cfg"
    config.write_text(workload.config_text(seed))
    out_dir = tmp_path / "out"
    assert cli.main(run.cli_args(workload, config, out_dir)) == 0
    return (out_dir / workload.csv_name).read_text()


# ---------------------------------------------------------------------------
# Correctness gate


def test_gate_passes_the_reference_itself(tmp_path):
    text = cli_output(SMOKE_SWEEP, tmp_path)
    assert run.count_failures(SMOKE_SWEEP, 0, text, text) == (0, [])


def test_gate_rejects_kappa_above_its_bound(tmp_path):
    text = cli_output(SMOKE_SWEEP, tmp_path)
    rows = run.parse_csv(text)
    header = text.splitlines()[0]
    corrupted = dict(rows[1], kappa=repr(2 * float(rows[1]["bound_convex"])))
    lines = [header] + [",".join(r.values()) for r in (rows[0], corrupted, *rows[2:])]
    failed, reasons = run.count_failures(SMOKE_SWEEP, 0, "\n".join(lines) + "\n",
                                         text)
    assert failed == 1
    assert "exceeds bound_convex" in reasons[0]
    timing = {"wall_s": 1.0, "item_ms": [1.0, 2.0], "peak_rss_mb": 1.0}
    metrics = run.end_to_end_metrics(
        [(timing, timing)], [0.1], attempted=SMOKE_SWEEP.items, failed=failed)
    assert metrics["items_ok_frac"][0] == 1 - 1 / SMOKE_SWEEP.items


def test_times_are_ratios_within_pairs():
    def timing(wall_s):
        return {"wall_s": wall_s, "item_ms": [wall_s, 2 * wall_s],
                "peak_rss_mb": 1.0}

    pairs = [(timing(a), timing(b)) for a, b in ((1, 2), (2, 1), (4, 8))]
    metrics = run.end_to_end_metrics(pairs, [0.1], attempted=1, failed=0)
    # Pair ratios 0.5, 2, 0.5; the ratio of the two sides' medians is 1.
    for name in ("wall_vs_ref", "item_p50_vs_ref", "item_p90_vs_ref"):
        assert metrics[name] == (0.5, "ratio")


def test_gate_rejects_a_nonzero_exit_and_a_missing_item(tmp_path):
    text = cli_output(SMOKE_TRAIN, tmp_path)
    assert run.count_failures(SMOKE_TRAIN, 3, text, text)[0] == SMOKE_TRAIN.items
    # A diverged seed leaves a short trace.
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    assert run.count_failures(SMOKE_TRAIN, 0, truncated, text)[0] == 1


def test_gate_rejects_drift_from_the_reference(tmp_path):
    text = cli_output(SMOKE_SWEEP, tmp_path)
    rows = run.parse_csv(text)
    drifted = float(rows[0]["kappa"]) * (1 + 10 * run.REFERENCE_RTOL)
    ref = dict(rows[0])
    assert run.row_problems(SMOKE_SWEEP, rows[0], ref) == []
    assert run.row_problems(SMOKE_SWEEP, dict(rows[0], kappa=repr(drifted)), ref)


# ---------------------------------------------------------------------------
# Tracer


def test_tracer_parent_stacks_stay_per_thread():
    from gn_lens import data, network

    modules = {layer: importlib.import_module(f"gn_lens.{layer}")
               for layer in LAYERS}
    ds = data.synthesize_gaussian(d=6, n=40, covariance_spectrum=[1.0] * 6,
                                  seed=0)
    spec = network.NetworkSpec(kind="residual", dims=(6, 8, 8, 8, 2), beta=0.5)
    params = [network.init(spec, seed=s) for s in range(24)]
    tracer = Tracer(modules)
    switch = sys.getswitchinterval()
    tracer.install()
    try:
        sys.setswitchinterval(1e-6)
        # More workers than cores, so spans of different threads interleave.
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(cli.evaluate_instance, spec, p, ds, None)
                       for p in params]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(switch)
        tracer.uninstall()
    assert len(results) == len(params)
    stats = tracer.stats()
    fns = stats["functions"]
    cells = fns["cli.evaluate_instance"]
    assert cells["calls"] == len(params)
    # Wrappers reached names imported into other modules' namespaces.
    assert fns["network.partial_product"]["calls"] > 0
    assert fns["linalg.sym_eigendecompose"]["calls"] == 3 * len(params)
    for timing in ("wall", "cpu"):
        selfs = [f[f"self_{timing}"] for f in fns.values()]
        assert min(selfs) >= -1e-9
        layer_sums = [sum(f[f"self_{timing}"] for name, f in fns.items()
                          if name.startswith(layer + ".")) for layer in LAYERS]
        assert sum(layer_sums) <= cells[timing] * (1 + 1e-9)
        assert sum(layer_sums) == pytest.approx(cells[timing], rel=1e-6)
    assert stats["busy_cpu"] == pytest.approx(cells["cpu"], rel=1e-9)
    assert cli.evaluate_instance.__name__ == "evaluate_instance"
    assert not hasattr(cli.evaluate_instance, "__wrapped__")


# ---------------------------------------------------------------------------
# Whole runs


@pytest.mark.parametrize("workload,trace,section", [
    (SMOKE_SWEEP, 0, "end_to_end"),
    (SMOKE_TRAIN, 1, "per_layer"),
])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, workload,
                                               trace, section):
    monkeypatch.setitem(run.WORKLOADS, workload.name, workload)
    assert run.main(["--workload", workload.name, "--seed", "1",
                     "--seconds", "0.1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS * (1 + trace) * workload.items
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines)
    manifest = json.loads(lines[0].split(" ", 1)[1])
    assert manifest["blas_threads"] == 1
    assert manifest["csv_identical_to_reference"].split("/")[0] != "0"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "depth_wide_io", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
