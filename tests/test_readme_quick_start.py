"""README's quick start runs as written: its one `python` block, run with
`src` on the path, prints a GN kappa that is at most the convex depth bound."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_quick_start_prints_a_kappa_within_its_bound():
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", blocks[0]],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    kappa, sep, bound = proc.stdout.split()
    assert sep == "<="
    assert 1.0 <= float(kappa) <= float(bound)
