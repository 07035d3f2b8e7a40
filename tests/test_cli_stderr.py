"""Each CLI error reaches stderr exactly once, under the default log level."""

import os
import subprocess
import sys

import pytest

import gn_lens

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gn_lens.__file__)))

SMALL = "data = synthetic\nd = 4\nn = 30\nkind = linear_deep\nk = 2\nm = 5\n"

# name -> (exit code, stderr prefix, config text)
CASES = {
    "empty_seed_list": (2, "config error: ", SMALL + "seeds = 5..0\n"),
    "overflow": (3, "numeric error: ", SMALL + "L = 3\nseeds = 0\n"
                 "init = gaussian\ninit_sigma = 1e200\n"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_error_is_printed_once(tmp_path, name):
    code, prefix, text = CASES[name]
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, GN_LENS_LOG="error")
    proc = subprocess.run(
        [sys.executable, "-m", "gn_lens.cli", "analyze", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    message = lines[0][len(prefix):]
    assert message and proc.stderr.count(message) == 1
