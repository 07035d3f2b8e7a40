"""Every command runs on the calling thread, whatever `--jobs` is: none
starts a thread or imports `concurrent.futures` (nor the `logging` that a
pool would bring), and a sweep's outputs do not depend on `--jobs`."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import gn_lens
from gn_lens import cli
from gn_lens.cli import main

SRC = str(Path(gn_lens.__file__).resolve().parent.parent)

SMALL = {"data": "synthetic", "d": "6", "n": "32", "seeds": "0,1"}
DEEP = {**SMALL, "kind": "linear_deep", "k": "2", "m": "8", "L": "3"}
TRAIN = {"lr": "0.01", "epochs": "2", "batch_size": "8"}
SWEEP = {**SMALL, "kind": "linear_deep", "k": "2", "m": "8", "axis": "L",
         "values": "2,3,4"}
# Each run in order, in one interpreter: the five commands, then a sweep that
# asks for two workers.
RUNS = [
    ("analyze", DEEP, []),
    ("train", {**DEEP, **TRAIN}, ["--jobs", "1"]),
    ("prune", {**DEEP, **TRAIN, "fractions": "0,0.5"}, []),
    ("whiten", {"data": "synthetic", "d": "6", "n": "32"}, []),
    ("sweep", SWEEP, ["--jobs", "1"]),
    ("sweep", SWEEP, ["--jobs", "2"]),
]

SCRIPT = """
import json, sys, threading
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self.name), start(self))
from gn_lens.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    rc = main(argv)
    seen.append([rc, len(started), "concurrent.futures" in sys.modules,
                 "logging" in sys.modules])
print(json.dumps(seen))
"""


def _argv(tmp_path, i, command, cfg, flags):
    path = tmp_path / f"{i}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return [command, "--config", str(path), "--out", str(tmp_path / str(i)),
            *flags]


def test_no_command_starts_threads_or_imports_the_pool(tmp_path):
    argvs = [_argv(tmp_path, i, *run) for i, run in enumerate(RUNS)]
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    # Return code, threads started so far, and whether the pool's module and
    # `logging` are loaded, after each run.
    assert seen == [[0, 0, False, False]] * 6
    assert (tmp_path / "5" / "sweep.csv").read_bytes() == (
        tmp_path / "4" / "sweep.csv").read_bytes()


def _cell_threads(tmp_path, monkeypatch, *flags):
    """The thread of each `evaluate_instance` call of a 3 x 3 sweep."""
    threads = []
    evaluate = cli.evaluate_instance

    def traced(*args, **kwargs):
        threads.append(threading.get_ident())
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_instance", traced)
    argv = _argv(tmp_path, "-".join(flags) or "default",
                 "sweep", {**SWEEP, "seeds": "1,0,1"}, flags)
    assert main(argv) == 0
    monkeypatch.setattr(cli, "evaluate_instance", evaluate)
    return threads


def test_every_worker_count_evaluates_every_cell_on_the_calling_thread(
        tmp_path, monkeypatch):
    caller = threading.get_ident()
    assert _cell_threads(tmp_path, monkeypatch, "--jobs", "1") == [caller] * 9
    assert _cell_threads(tmp_path, monkeypatch, "--jobs", "3") == [caller] * 9


@pytest.mark.parametrize("cores", [1, None, 8])
def test_all_cores_of_any_host_is_the_calling_thread(
        tmp_path, monkeypatch, cores):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    assert _cell_threads(tmp_path, monkeypatch) == [threading.get_ident()] * 9
