"""Compare the benchmark's end-to-end metrics on two source trees, in pairs.

Usage::

    python tests/bench_pairs.py OLD_TREE NEW_TREE --workload W --seeds A-B
        [--seconds 22]

Each tree is a checkout of this repository, for example a ``git clone``
of the parent commit and the working tree. For each seed ``k`` in
``A..B`` the script runs ``perfbench/run.py --workload W --seed k
--seconds S --trace 0`` once in each tree, one after the other in fresh
interpreters, the old tree first on even pairs and the new tree first on
odd ones, so a drift of the host's speed falls on both sides alike.
Each run measures its own tree with its own copy of ``perfbench/``;
this script only reads the result line each run prints last.

For every end-to-end metric of the new tree's ``BENCHMARK.json`` it
prints both sides' medians and quartiles, the number of pairs the new
tree won (its value better than the old one's in the same pair) and
the gap between the medians over the old side's quartile spread,
positive when the new tree is better. A gain is shown when the new tree
wins nearly every pair and that gap is above 1. Each metric's ``bound``
is a relative regression limit: the line ends ``WORSE than bound`` when
the new median is worse than the old one, in the metric's ``better``
direction, by more than ``bound`` times the old median, else ``within
bound``. The script exits 1 when a run fails or reports a wrong answer
or a metric is worse than its bound, else 0. pytest does not collect
it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Tuple


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def run(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one benchmark run of ``tree``, by name."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{tree} seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree} seed {seed}: {result['failed']} failed "
                         f"calls\n{done.stdout}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summary(name: str, old: list, new: list, lower_is_better: bool,
            bound: float) -> Tuple[str, bool]:
    """One line: both sides' median and quartiles, pairs won, the gap
    between the medians over the old side's quartile spread and the
    verdict on ``bound``; and whether the new median is worse than the
    old one by more than ``bound`` times the old median."""
    def quartiles(values):
        low, median, high = statistics.quantiles(values, n=4)
        return low, statistics.median(values), high

    old_q, new_q = quartiles(old), quartiles(new)
    sign = -1 if lower_is_better else 1
    won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    spread = old_q[2] - old_q[0]
    gap = sign * (new_q[1] - old_q[1])
    ratio = f"{gap / spread:+.2f}" if spread else "n/a"
    change = (new_q[1] - old_q[1]) / old_q[1] * 100 if old_q[1] else 0.0
    worse = gap < -bound * abs(old_q[1])
    verdict = "WORSE than" if worse else "within"
    return (f"{name:16s} old {old_q[1]:.6g} [{old_q[0]:.6g}, {old_q[2]:.6g}]"
            f"  new {new_q[1]:.6g} [{new_q[0]:.6g}, {new_q[2]:.6g}]"
            f"  {change:+.1f} %  won {won}/{len(old)}  gap/spread {ratio}"
            f"  {verdict} bound {bound * 100:g} %"), worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="an inclusive range A-B, at least two seeds")
    parser.add_argument("--seconds", type=float, default=22)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    spec = json.loads((args.new / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    old, new = [], []
    for index, seed in enumerate(args.seeds):
        order = ((args.old, old), (args.new, new))
        for tree, side in order if index % 2 == 0 else order[::-1]:
            side.append(run(tree, args.workload, seed, args.seconds))
        print(f"pair {index + 1}/{len(args.seeds)} seed {seed}: "
              + ", ".join(f"{m['name']} {old[-1][m['name']]:.6g} -> "
                          f"{new[-1][m['name']]:.6g}" for m in metrics),
              flush=True)
    print(f"workload {args.workload}, seeds {args.seeds.start}-"
          f"{args.seeds.stop - 1}, {len(old)} pairs, median [quartiles]:")
    failed = False
    for m in metrics:
        line, worse = summary(m["name"], [r[m["name"]] for r in old],
                              [r[m["name"]] for r in new],
                              m["better"] == "lower", m["bound"])
        print(line)
        failed = failed or worse
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
