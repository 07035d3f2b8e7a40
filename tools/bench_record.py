"""Record a before/after benchmark comparison in a committed BENCH_*.json.

    python3 tools/bench_record.py --parent REV --seed N --out BENCH_4.json \\
        depth_narrow_io:10 depth_wide_io:3 leaky_alpha:3 train_minibatch:3

Each `WORKLOAD:PAIRS` argument asks for PAIRS pairs of untraced runs of
`bench/run.py` on that workload: one on the committed tree of the parent
revision REV (extracted with `git archive` into a temporary directory) and
one on the working tree, in alternating order (the parent goes first in even
pairs), so a drift in host speed favours neither side. `--trace-pairs K`
adds K pairs of traced runs per workload for the per-layer metrics.

Every run's manifest and result JSON go to the output file, with a summary
per workload and metric: the median and quartiles on each side and the
number of pairs in which the working tree did better. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The committed files of `rev`, as `git archive` gives them."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def bench_run(tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One `bench/run.py` run in `tree`: its exit code, manifest and result."""
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run = {"exit": proc.returncode, "started": round(started, 3),
           "manifest": None, "result": None}
    if proc.returncode == 0 and lines and lines[0].startswith("manifest "):
        run["manifest"] = json.loads(lines[0].split(" ", 1)[1])
        run["result"] = json.loads(lines[-1])
    else:
        run["stderr"] = proc.stderr[-2000:]
    return run


def summarize(runs: list[dict], better: dict) -> dict:
    """Per workload and metric: each side's median and quartiles, and the
    number of pairs the working tree won (ties count for neither side)."""
    summary: dict = {}
    keyed = {(r["workload"], r["trace"], r["pair"], r["side"]): r for r in runs}
    for (workload, trace, pair, side), run in sorted(keyed.items()):
        if side != "change":
            continue
        parent = keyed.get((workload, trace, pair, "parent"))
        if run["result"] is None or parent is None or parent["result"] is None:
            continue
        mine, theirs = run["result"]["metrics"], parent["result"]["metrics"]
        for name in mine.keys() & theirs.keys():
            entry = summary.setdefault(workload, {}).setdefault(
                name, {"unit": mine[name]["unit"], "change": [], "parent": [],
                       "change_better": 0})
            a, b = mine[name]["value"], theirs[name]["value"]
            entry["change"].append(a)
            entry["parent"].append(b)
            direction = better.get(name)
            if (direction == "lower" and a < b) or (direction == "higher" and a > b):
                entry["change_better"] += 1
    for metrics in summary.values():
        for entry in metrics.values():
            entry["pairs"] = len(entry["change"])
            for side in ("change", "parent"):
                values = entry.pop(side)
                entry[f"{side}_median"] = statistics.median(values)
                entry[f"{side}_quartiles"] = (
                    statistics.quantiles(values, n=4, method="inclusive")[::2]
                    if len(values) > 1 else [values[0], values[0]])
    return summary


def parse_request(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    if not name or not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:PAIRS, got {text!r}")
    return name, int(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("requests", nargs="+", type=parse_request,
                        metavar="WORKLOAD:PAIRS")
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace-pairs", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, default=None,
                        help="where to extract the parent (default: system temp)")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    names = {w["name"] for w in benchmark["workloads"]}
    unknown = [name for name, _ in args.requests if name not in names]
    if unknown:
        parser.error(f"unknown workloads {unknown}; known: {sorted(names)}")

    parent_rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    record = {
        "parent": parent_rev,
        # The working tree is HEAD plus this diff of what the benchmark runs.
        "change": {"head": git("rev-parse", "HEAD"),
                   "diff_sha1": hashlib.sha1(git(
                       "diff", "HEAD", "--", "src", "bench", "BENCHMARK.json"
                   ).encode()).hexdigest()},
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {"platform": platform.platform(),
                 "machine": platform.machine(),
                 "python": platform.python_version()},
        "runs": [],
    }
    if args.scratch is not None:
        args.scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        parent_tree = Path(tmp)
        extract(parent_rev, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload, pairs in args.requests:
            plan = [(0, i) for i in range(pairs)]
            plan += [(1, i) for i in range(args.trace_pairs)]
            for trace, pair in plan:
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    run = bench_run(trees[side], workload, args.seed,
                                    args.seconds, trace)
                    run.update(workload=workload, trace=trace, pair=pair,
                               side=side)
                    record["runs"].append(run)
                    value = (run["result"] or {}).get("metrics", {})
                    shown = value.get("wall_vs_ref", value.get("trace.busy_ms", {}))
                    print(f"{workload} trace={trace} pair={pair} {side}: "
                          f"exit {run['exit']} {shown.get('value')}", flush=True)
    record["summary"] = summarize(record["runs"], better)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    failed = [r for r in record["runs"] if r["exit"] != 0]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
