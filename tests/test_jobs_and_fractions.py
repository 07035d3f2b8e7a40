"""A sweep with a negative `--jobs` and a prune with no fraction are config
errors (exit 2, one line naming the option or key, nothing written), not a
traceback or a report that every cell failed."""

import pytest

from gn_lens import cli

DEEP = {"data": "synthetic", "d": "4", "n": "32", "seeds": "0",
        "kind": "linear_deep", "k": "2", "m": "4", "L": "2"}
SWEEP = {**DEEP, "axis": "L", "values": "2,3"}
PRUNE = {**DEEP, "lr": "0.01", "epochs": "1"}


def run(tmp_path, command, cfg, *flags):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return cli.main([command, "--config", str(path), "--out",
                     str(tmp_path / "out"), *flags])


def assert_refused(tmp_path, capsys, code, message):
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize("jobs", ["-1", "-7"])
def test_negative_jobs_is_a_config_error(tmp_path, capsys, jobs):
    code = run(tmp_path, "sweep", SWEEP, "--jobs", jobs)
    assert_refused(tmp_path, capsys, code,
                   f"key '--jobs': must be >= 0, got {jobs}")


def test_zero_jobs_still_sweeps(tmp_path):
    assert run(tmp_path, "sweep", SWEEP, "--jobs", "0") == 0
    assert (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("text", ["", ",", " , "])
def test_an_empty_fraction_list_is_a_config_error(tmp_path, capsys, text):
    code = run(tmp_path, "prune", {**PRUNE, "fractions": text})
    listed = text.strip()
    assert_refused(tmp_path, capsys, code,
                   f"key 'fractions' lists no fraction: {listed!r}")


def test_a_missing_fraction_list_keeps_its_default(tmp_path):
    assert run(tmp_path, "prune", PRUNE) == 0
    assert (tmp_path / "out" / "prune.csv").exists()
