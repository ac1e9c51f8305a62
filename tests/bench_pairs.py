"""Alternating benchmark runs of two trees, with each side's median, quartiles and wins.

    python tests/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N --seconds T

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` from
the root of each tree, in a fresh interpreter per run, N times each. Pair k
runs PARENT first when k is odd and CHANGE first when k is even, so neither
side always runs on a warmer machine. For each pair it prints the gated
metrics of both runs, read from the last line perfbench prints. Then, per
metric, it prints each side's median and quartiles, and how many pairs the
change won: better in the direction CHANGE's ``BENCHMARK.json`` gives,
ties counting for neither side. A run that exits non-zero or reports
``"correct": false`` stops the script with its output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The gated metrics of one perfbench run in ``tree``, by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    last = json.loads(run.stdout.strip().splitlines()[-1]) if run.stdout.strip() else {}
    if run.returncode != 0 or not last.get("correct"):
        sys.exit(f"{tree}: {' '.join(cmd)} exited {run.returncode}\n{run.stdout}{run.stderr}")
    return {name: entry["value"] for name, entry in last["metrics"].items()}


def quartiles(values) -> tuple:
    """The lower quartile, median and upper quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
        cells = "  ".join(f"{name} {runs['parent'][-1][name]:.6g} / {runs['change'][-1][name]:.6g}"
                          for name in better)
        print(f"pair {k} ({order[0]} first, parent / change): {cells}", flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    for name, direction in better.items():
        values = {side: [r[name] for r in runs[side]] for side in sides}
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        spread = "  ".join(
            f"{side} median {q2:.6g} quartiles {q1:.6g}-{q3:.6g}"
            for side, (q1, q2, q3) in ((s, quartiles(v)) for s, v in values.items()))
        print(f"  {name} ({direction} is better): {spread}  change won {wins} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
