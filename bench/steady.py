"""Steadiness of the benchmark: run one workload N times, one seed each.

    python3 bench/steady.py --workload NAME --runs 10 [--first-seed 1]

Run from the repository root. The runs are untraced. For every metric
it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median,
and the bound from BENCHMARK.json with whether the spread is within a
third of it. It also prints the share of failed requests of every run,
which must not move between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: wrong answers\n{done.stderr}", file=sys.stderr)
            return 1
        shares.append(f"{result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs, failed/attempted per run: {', '.join(shares)}")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:28} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{bound:6.2f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
