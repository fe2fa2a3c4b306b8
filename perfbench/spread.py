"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads mutation-storm --seeds 1-10 \
        --out .perfbench_out/spread.json

Runs are sequential, one process each.  For every end-to-end metric this
prints the median over the runs and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median.  ``--trace 1`` summarises the per-layer metrics instead.
``--against <earlier --out file>`` also compares each median with that
earlier set's and flags a metric whose median got worse by more than its
bound, so two sets of runs of the same code can be checked for agreement.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> List[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def spread(values: List[float]) -> float:
    """Inter-quartile distance over the median (0 when the median is 0)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_once(workload: str, seed: int, seconds: int, trace: int
             ) -> Dict[str, Any]:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def main(argv: List[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(
        workload["name"] for workload in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric.get("bound")
              for metric in spec["end_to_end"]}
    lower = {metric["name"]: metric["better"] == "lower"
             for metric in spec["end_to_end"] + spec["per_layer"]}
    earlier: Dict[str, Any] = {}
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            earlier = json.load(handle)

    report: Dict[str, Any] = {}
    for workload in args.workloads.split(","):
        values: Dict[str, List[float]] = {}
        units: Dict[str, str] = {}
        elapsed: List[float] = []
        for seed in _seeds(args.seeds):
            start = time.perf_counter()
            result = run_once(workload, seed, args.seconds, args.trace)
            elapsed.append(time.perf_counter() - start)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect run")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed} done in {elapsed[-1]:.1f} s",
                  file=sys.stderr)
        summary = {}
        for name, series in values.items():
            summary[name] = {"median": statistics.median(series),
                             "spread": spread(series), "unit": units[name],
                             "values": series}
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                flag = ("  ok" if summary[name]["spread"] < bound / 3
                        else "  WIDE (over a third of the bound)")
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before and before["median"]:
                change = summary[name]["median"] / before["median"] - 1.0
                worse = change if lower[name] else -change
                flag += f"  vs earlier {change:+.4f}"
                if bound is not None and worse > bound:
                    flag += " WORSE THAN THE BOUND"
            print(f"{workload:18s} {name:40s} median {summary[name]['median']:12.6f}"
                  f" {units[name]:14s} spread {summary[name]['spread']:.4f}{flag}")
        print(f"{workload:18s} process wall time: median "
              f"{statistics.median(elapsed):.1f} s, max {max(elapsed):.1f} s")
        report[workload] = {"metrics": summary, "process_s": elapsed}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
