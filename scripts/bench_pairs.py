#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent revision against this checkout.

    python scripts/bench_pairs.py --parent HEAD~1 --workload ff-profile \\
        --pairs 10 --seconds 30 --out BENCH.json

The committed files of --parent are extracted into a temporary directory
(`git archive`, so only what the parent commit holds is measured and no
worktree is registered).  Then `perfbench/run.py` runs there and in this
checkout in turn, --pairs times per workload, at perfbench's default seed
(0); the side that runs first alternates from pair to pair, so a drift of
the machine's speed does not favour either side.  For each end-to-end
metric of BENCHMARK.json it prints the median of each side, the parent's
quartiles and the number of pairs the change won, and writes that summary
and every run to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def extract(rev: str, dest: Path):
    """The files of commit rev, under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One perfbench run in tree: its last stdout line, parsed."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs: list, metrics: list) -> dict:
    """Per metric: medians, the parent's quartiles and the change's wins."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name])
                 for r in runs]
        parent = [a for a, _ in pairs]
        q1, _, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                     else parent * 3)
        out[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(b for _, b in pairs),
            "parent_q1": q1, "parent_q3": q3,
            "change_wins": sum((b > a) if higher else (b < a)
                               for a, b in pairs),
            "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare with")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                            check=True, capture_output=True,
                            text=True).stdout.strip()
    doc = {"parent": commit, "seed": 0, "seconds": args.seconds,
           "workloads": {}}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp)
        extract(commit, parent_tree)
        for workload in args.workload:
            runs = []
            for i in range(args.pairs):
                sides = [("parent", parent_tree), ("change", ROOT)]
                if i % 2:
                    sides.reverse()
                pair = {"first": sides[0][0]}
                for side, tree in sides:
                    pair[side] = run_once(tree, workload, args.seconds)
                    ok = ok and pair[side]["correct"] and not pair[side]["failed"]
                runs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                    f"{s} {pair[s]['metrics']['jobs_per_s']:.2f} jobs/s"
                    for s in ("parent", "change")), flush=True)
            summary = summarize(runs, metrics)
            doc["workloads"][workload] = {"summary": summary, "runs": runs}
            for name, s in summary.items():
                print(f"  {name}: {s['parent_median']:.4g} -> "
                      f"{s['change_median']:.4g} (parent quartiles "
                      f"{s['parent_q1']:.4g}-{s['parent_q3']:.4g}, change "
                      f"better in {s['change_wins']}/{s['pairs']})")
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
