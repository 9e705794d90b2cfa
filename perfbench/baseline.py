"""Measure every workload over many seeds and write a baseline record.

    python3 perfbench/baseline.py --sha <commit> --out perfbench/BASELINE.json

Each of two sets runs run.py once per seed (201-210) and workload, untraced,
one process at a time, for run_seconds from BENCHMARK.json.  For each
end-to-end metric the record keeps the values, their median and their
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  It also
keeps how far the second set's median moved from the first's, as a share of
the first.  Then one traced run per workload, on the first seed, adds the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = list(range(201, 211))
SETS = 2


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect\n{proc.stderr}")
    print(proc.stdout.strip().splitlines()[0], flush=True)
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sha", required=True, help="commit the checkout holds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "sha": args.sha,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.processor() or 'unknown cpu'}",
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry = {"tail_percentile": WORKLOADS[workload].tail_pct,
                 "planned_ops": WORKLOADS[workload].planned_ops, "sets": []}
        for _ in range(SETS):
            runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
            metrics = {
                name: summarize([r["metrics"][name]["value"] for r in runs])
                for name in runs[0]["metrics"]
            }
            entry["sets"].append({
                "attempted": [r["attempted"] for r in runs],
                "failed": sum(r["failed"] for r in runs),
                "metrics": metrics,
            })
        first, last = entry["sets"][0]["metrics"], entry["sets"][-1]["metrics"]
        entry["median_shift"] = {
            name: (last[name]["median"] - first[name]["median"]) / first[name]["median"]
            for name in first
        }
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
