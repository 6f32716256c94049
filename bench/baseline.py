"""Run bench/run.py over several seeds and summarise each metric's spread.

From the repository root:

    python3 bench/baseline.py --seeds 1-10 --seconds 35 --out bench/baseline.json

For every workload (or those given with --workload) it runs the end-to-end
mode once per seed, then the traced mode on the first seed, one run at a
time. Per metric it records the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the distance
between the quartiles as a share of the median. Existing `notes` in the
output file are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(workload, seed, f"trace={trace}",
          {k: round(v["value"], 4) for k, v in result["metrics"].items()} if not trace else "",
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.SHAPES))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary: dict = {"end_to_end": {}, "per_layer": {}}
    for workload in args.workload or list(workloads.SHAPES):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        metrics["failed_ratio"] = {"value": failed / attempted, "failed": failed,
                                   "attempted": attempted}
        summary["end_to_end"][workload] = metrics
        traced = run_once(workload, args.seeds[0], args.seconds, 1)
        summary["per_layer"][workload] = {
            "seed": args.seeds[0], **{k: v["value"] for k, v in traced["metrics"].items()}}
        for name, m in metrics.items():
            if "spread" in m:
                print(f"{workload} {name}: median {m['median']:.6g} spread {m['spread']:.4f}")

    if args.out:
        if args.out.exists():
            summary = {"notes": json.loads(args.out.read_text()).get("notes", {}), **summary}
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
