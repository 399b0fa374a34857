"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a source checkout::

    python3 perfbench/spread.py --workload text2mol_30 --seeds 1-10 --trace 0

For every metric it prints the median of the runs and the distance between
their first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, beside the metric's bound from ``BENCHMARK.json``.
``--json FILE`` also writes every run's result line. Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json", help="write every run's result to this file")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fp:
        bench = json.load(fp)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    results = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            for result in results:
                fp.write(json.dumps(result) + "\n")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE" if spread > bound else "  >1/3")
        print(f"{name:40s} median {median:14.6f}  iqr/median {spread:7.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
