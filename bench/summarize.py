#!/usr/bin/env python3
"""Summarize result files of bench/run.py across seeds.

    python3 bench/summarize.py [RESULTS_DIR] [--json OUT]

For each workload and metric it prints the value at every seed, the median,
and the spread: the distance between the first and third quartiles of the
per-seed values as a share of their median, the figure BENCHMARK.json's
bounds are held against.  RESULTS_DIR defaults to .bench_work/results.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def summarize(results_dir: Path) -> dict:
    groups: dict[str, dict] = {}
    for path in sorted(results_dir.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        key = f"{result['workload']}/trace{result['trace']}"
        group = groups.setdefault(key, {"seeds": [], "failed": 0, "attempted": 0, "metrics": {},
                                        "environment": result["environment"]})
        group["seeds"].append(result["seed"])
        group["failed"] += result["failed"]
        group["attempted"] += result["attempted"]
        for metric, stats in result["stats"].items():
            entry = group["metrics"].setdefault(
                metric, {"unit": result["units"][metric], "values": []})
            entry["values"].append(stats["median"])
    for group in groups.values():
        for entry in group["metrics"].values():
            entry["median"] = statistics.median(entry["values"])
            entry["spread"] = spread(entry["values"])
    return groups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results_dir", nargs="?", default=str(ROOT / ".bench_work" / "results"))
    parser.add_argument("--json", help="also write the summary to this file")
    opts = parser.parse_args()
    groups = summarize(Path(opts.results_dir))
    for key, group in sorted(groups.items()):
        print(f"== {key}  seeds {sorted(group['seeds'])}"
              f"  failed {group['failed']} of {group['attempted']}")
        for metric, entry in group["metrics"].items():
            print(f"  {metric:<38} median {entry['median']:>12.6g} {entry['unit']:<15}"
                  f" spread {entry['spread']:.3f}  values {[round(v, 6) for v in entry['values']]}")
    if opts.json:
        Path(opts.json).write_text(json.dumps(groups, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
