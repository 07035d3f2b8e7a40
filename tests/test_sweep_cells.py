"""A sweep reports a config error that fails every cell alike once, as exit 2,
and logs the cells that fail on their own in grid order; the CLI writes
nothing to stderr on success; and no module reaches into another's private
names, which a per-function tracer cannot see."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gn_lens
from gn_lens.cli import main

PACKAGE = Path(gn_lens.__file__).resolve().parent

SMALL = {"data": "synthetic", "d": "4", "n": "30", "seeds": "0,1"}
DEEP_SWEEP = {**SMALL, "kind": "linear_deep", "k": "2", "m": "6", "axis": "L"}


def run(tmp_path, command, cfg, *flags, out="out"):
    path = tmp_path / f"{out}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return main([command, "--config", str(path), "--out", str(tmp_path / out),
                 *flags])


def test_a_kind_with_no_gn_builder_is_one_config_error(tmp_path, capsys):
    cfg = {**SMALL, "kind": "linear_bn_one_hidden", "k": "2", "m": "6",
           "axis": "m", "values": "4,8"}
    assert run(tmp_path, "sweep", cfg, "--jobs", "1") == 2
    assert capsys.readouterr().err == (
        "config error: kind 'linear_bn_one_hidden' has no analytic GN "
        "builder\n")
    assert not (tmp_path / "out" / "errors.log").exists()


def test_aligned_init_of_unequal_explicit_dims_is_one_config_error(
        tmp_path, capsys):
    cfg = {**SMALL, "kind": "residual", "dims": "4,6,8,2",
           "init": "aligned_svd", "axis": "beta", "values": "0,0.5"}
    assert run(tmp_path, "sweep", cfg, "--jobs", "1") == 2
    assert capsys.readouterr().err == (
        "config error: aligned init requires equal (square) hidden widths\n")
    assert not (tmp_path / "out" / "errors.log").exists()


def test_an_aligned_width_below_the_ends_fails_only_its_cells(tmp_path):
    cfg = {**SMALL, "kind": "residual", "k": "2", "L": "3",
           "init": "aligned_svd", "axis": "m", "values": "2,6"}
    assert run(tmp_path, "sweep", cfg, "--jobs", "1") == 0
    log = (tmp_path / "out" / "errors.log").read_text().splitlines()
    assert [line.split(" (")[0] for line in log] == ["cell 0", "cell 1"]
    assert all("m=2" in line and "hidden width >= end widths" in line
               for line in log)


def test_failed_cells_are_logged_in_grid_order_whatever_the_jobs(tmp_path):
    cfg = {**DEEP_SWEEP, "values": "0,2,0"}
    assert run(tmp_path, "sweep", cfg, "--jobs", "1", out="serial") == 0
    assert run(tmp_path, "sweep", cfg, "--jobs", "4", out="pooled") == 0
    serial = (tmp_path / "serial" / "errors.log").read_bytes()
    assert serial == (tmp_path / "pooled" / "errors.log").read_bytes()
    assert serial.decode().splitlines() == [
        f"cell {i} (L=0, seed={seed}): key 'L': must be >= 1, got 0"
        for i, seed in ((0, 0), (1, 1), (4, 0), (5, 1))]
    csv = (tmp_path / "serial" / "sweep.csv").read_bytes()
    assert csv == (tmp_path / "pooled" / "sweep.csv").read_bytes()
    assert len(csv.splitlines()) == 3  # the header and the two L=2 cells


def test_a_successful_run_prints_nothing_on_stderr(tmp_path):
    cfg = tmp_path / "case.cfg"
    cfg.write_text("data = synthetic\nd = 4\nn = 30\nkind = linear_deep\n"
                   "k = 2\nm = 5\nL = 3\nseeds = 0\n")
    path = os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    # A log-level variable of earlier releases; it no longer means anything.
    env = dict(os.environ, PYTHONPATH=path, GN_LENS_LOG="info")
    proc = subprocess.run(
        [sys.executable, "-m", "gn_lens.cli", "analyze", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_no_module_imports_another_modules_private_names():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("gn_lens")):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
