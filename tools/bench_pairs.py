"""Alternating parent/change pairs of one benchmark workload, summarized as one JSON line.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload localization --seeds 1-10 --seconds 50

The parent revision is checked out with ``git worktree add --detach`` in a
temporary directory and removed at the end; the change is this checkout as
it stands on disk.  For each seed both sides run ``perfbench/run.py
--workload W --seed S --seconds T --trace 0`` in their own tree, one after
the other; the side that runs first alternates from one seed to the next,
so a drift of the host's speed falls on both.

For every end-to-end metric of ``BENCHMARK.json`` the summary gives the
median of each side, the parent's quartiles and the number of pairs in
which the change is better (strictly, in the metric's direction).  Progress
goes to stderr.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """'1-10', '3' or '1,4,7' (ranges inclusive, may be mixed) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric: medians, the parent's quartiles and the change's wins over the pairs.

    pairs holds one (parent, change) tuple of {metric: value} per seed;
    better maps each metric to "lower" or "higher".
    """
    out = {}
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        q1, q3 = quartiles(parent)
        out[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_q1": q1,
            "parent_q3": q3,
            "wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one perfbench run in tree, as {metric: value}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


@contextlib.contextmanager
def worktree(rev: str):
    """rev checked out detached in a temporary directory, removed with its directory on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="fewbody-parent-"))
    tree = tmp / "parent"
    _git("worktree", "add", "--detach", str(tree), rev)
    try:
        yield tree
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=50.0)
    args = parser.parse_args(argv)

    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent_rev = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    pairs = []
    with worktree(parent_rev) as parent_tree:
        for i, seed in enumerate(args.seeds):
            sides = {"parent": parent_tree, "change": ROOT}
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            got = {}
            for side in order:
                got[side] = run_side(sides[side], args.workload, seed, args.seconds)
                print(f"seed {seed} {side}: {json.dumps(got[side])}", file=sys.stderr)
            pairs.append((got["parent"], got["change"]))

    print(json.dumps({
        "parent": parent_rev,
        "change": _git("rev-parse", "HEAD") + ("+dirty" if _git("status", "--porcelain") else ""),
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "metrics": summarize(pairs, better),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
