"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/prove.py --workloads forms survey cli --seeds 1-10
    python3 bench/prove.py --seeds 1-10 --trace-seed 1 --out bench/baseline.json

For every workload it runs `bench/run.py` once per seed (untraced, with the
run length from BENCHMARK.json), then prints each end-to-end metric's
median, quartiles (`statistics.quantiles(n=4)`) and spread, the quartile
distance as a share of the median, next to the metric's bound.  Runs go
one at a time so they do not compete for the cores.  With --trace-seed it
adds one traced run per workload.  With --out it writes the summary, every
run's values and the provenance of the runs as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import ROOT
from metrics import provenance


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"summary": json.loads(lines[-1]),
            "record": json.loads(lines[-2])["record"]}


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = manifest["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    seeds = _seeds(args.seeds)

    out = {"run_seconds": seconds, "seeds": seeds,
           "provenance": provenance(), "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        per_metric = {name: [r["summary"]["metrics"][name]["value"]
                             for r in runs] for name in bounds}
        entry = {
            "end_to_end": {name: summarise(v)
                           for name, v in per_metric.items()},
            "runs": [{"seed": s, "attempted": r["summary"]["attempted"],
                      "failed": r["summary"]["failed"],
                      "correct": r["summary"]["correct"],
                      "metrics": {k: v["value"] for k, v in
                                  r["record"]["metrics"].items()}}
                     for s, r in zip(seeds, runs)],
        }
        print(f"== {workload}: {len(seeds)} runs of {seconds} s")
        for name, summary in entry["end_to_end"].items():
            print(f"  {name:14s} median {summary['median']:12.4f}  "
                  f"q1 {summary['q1']:12.4f}  q3 {summary['q3']:12.4f}  "
                  f"spread {summary['spread']:.4f}  bound {bounds[name]}")
        print(f"  failed per run: {[r['failed'] for r in entry['runs']]}, "
              f"all correct: {all(r['correct'] for r in entry['runs'])}")
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {
                "seed": args.trace_seed,
                "metrics": {k: v["value"] for k, v in
                            traced["record"]["metrics"].items()},
                "failed": traced["summary"]["failed"],
            }
        out["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
