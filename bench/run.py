"""wittforge benchmark: one seeded workload, checked, as named metrics.

    python3 bench/run.py --workload forms --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and bench/README.md): `forms` (the qf
family in process), `survey` (the alg family in process) and `cli` (every
subcommand and both scripts as cold processes).

--trace 0 runs the workload untraced for --seconds of wall time in a
worker process, after two more set-up-only workers, and reports the
end-to-end metrics.  --trace 1 runs a fixed list of items twice, untraced
and then with every public library function wrapped in a span, and reports
the per-layer metrics and the tracing overhead.

stdout: a table of every metric with unit and sample count, a JSON line
with the full record and its provenance, and last the summary line
{"correct", "attempted", "failed", "metrics"}.  Exit status 0 means the
workload ran, whatever its failure count; anything else means it could not
run (no library in this checkout, a worker that crashed), and no summary
line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import metrics
from common import ROOT, SRC

SETUP_SAMPLES = 3
TRACE_ITEMS = {"forms": 100, "survey": 400, "cli": 50}
DEADLINE_S = 170.0        # every run must be over within 180 s
WORKDIR = ROOT / ".bench_work"
EXTRA_UNITS = {"items_per_s": "1/s", "fail_ratio": "ratio",
               "rss_peak_mb": "MB"}


class WorkerError(Exception):
    pass


def spawn(workdir: Path, workload: str, seed: int, mode: str,
          deadline: float, **opts) -> dict:
    argv = [sys.executable, str(Path(__file__).with_name("worker.py")),
            "--workload", workload, "--seed", str(seed), "--mode", mode,
            "--workdir", str(workdir)]
    for key, value in opts.items():
        argv += [f"--{key}", str(value)]
    # a fixed hash seed fixes set iteration order over places like "real",
    # so the traced call counts repeat exactly; command processes inherit it
    env = dict(os.environ, PYTHONHASHSEED="0")
    # its own process group, so a worker stopped at the deadline takes the
    # command process it may be waiting on down with it
    with subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(
                timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise WorkerError(f"{mode} worker ran past the deadline") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n"
                          f"{err[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("forms", "survey", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    manifest_path = ROOT / "BENCHMARK.json"
    if not (SRC / "wittforge" / "__init__.py").is_file() \
            or not manifest_path.is_file():
        print(f"no wittforge sources under {SRC} or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())

    workdir = WORKDIR / f"{args.workload}-{args.seed}-{args.trace}"
    try:
        if args.trace == 0:
            setups = [spawn(workdir, args.workload, args.seed, "setup",
                            deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            run = spawn(workdir, args.workload, args.seed, "measure",
                        deadline, seconds=args.seconds)
            setups.append(run["setup_s"])
            values, extra = metrics.end_to_end(run, setups, args.workload)
            listed = manifest["end_to_end"]
            runs = [run]
        else:
            n = TRACE_ITEMS[args.workload]
            plain = spawn(workdir, args.workload, args.seed, "plain",
                          deadline, items=n)
            traced = spawn(workdir, args.workload, args.seed, "traced",
                           deadline, items=n)
            values, extra = metrics.per_layer(plain, traced), {}
            listed = manifest["per_layer"]
            runs = [plain, traced]
    except WorkerError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()     # only when no other run is using it
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in listed}
    missing = set(units) - set(values)
    if missing:
        print(f"metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    mismatched = sum(r["mismatched"] for r in runs)

    print(f"# wittforge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"{'metric':48s} {'value':>14s}  {'unit':8s} samples")
    rows = {**values, **extra}
    for name, (value, samples) in rows.items():
        unit = units.get(name) or EXTRA_UNITS.get(name, "ms")
        print(f"{name:48s} {value:14.4f}  {unit:8s} {samples}")
    for r in runs:
        for note in r["failure_notes"]:
            print(f"failure: {note}")
    for note in runs[0]["excluded"]:
        print(f"screened out in set-up: {note}")
    for note in runs[0].get("probe_failures", ()):
        print(f"known defect still fails: {note}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": metrics.provenance(),
        "metrics": {name: {"value": v, "samples": s}
                    for name, (v, s) in rows.items()},
        "runs": [{k: r[k] for k in ("attempted", "failed", "mismatched",
                                    "busy_s", "wall_s", "wrapped",
                                    "failures_by_kind", "excluded")}
                 for r in runs],
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
