"""List the executable lines of `src/gn_lens` that the tier-1 suite never runs.

    python3 tools/unrun_lines.py [pytest arguments]

Runs pytest in this process from the repository root (by default over the
`testpaths` of `pyproject.toml`), with this tree's `src` first on the import
path, under a line tracer installed with `sys.settrace` and
`threading.settrace`. No command starts a thread, but a test may: the
benchmark's tracer test evaluates cells on a thread pool, and its threads
are traced too. Only frames whose code lives in `src/gn_lens` are traced.
It then prints every executable line of that package that never ran, as
`path:line: source`, and last the count; it exits with pytest's status. A line counts as executable
when the compiled module maps an instruction to it, so docstrings, comments
and blank lines do not count.

The tracer cannot see code run in a child process: the tests that start
`python -m gn_lens.cli` (or the benchmark) as a subprocess add no lines.
Apart from pytest itself, only the standard library is used.
"""

from __future__ import annotations

import dis
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gn_lens"


def executable_lines(path: Path) -> set[int]:
    """Lines that some instruction of the compiled module maps to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        own = {line for _, line in dis.findlinestarts(code) if line}
        if code.co_name != "<module>":
            # The def or class line runs in the enclosing code, not here.
            own.discard(code.co_firstlineno)
        lines |= own
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # For the tests that start the CLI in a child process.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    prefix = str(PACKAGE) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in ran:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{line}: "
                      f"{source[line - 1].strip()}")
    print(f"{unrun} of {total} executable lines in src/gn_lens never ran "
          f"(pytest exit {code})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
