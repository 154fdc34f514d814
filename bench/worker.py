"""One workload process: set up, then run items in a closed loop.

    python3 bench/worker.py --workload forms --seed 1 --mode measure --seconds 30 \
        --workdir .bench_work/forms

Modes:
  setup     set up and report the set-up time only;
  measure   set up, then run items for --seconds of wall time;
  plain     set up, then run exactly --items items, untraced, and then
            the workload's known-defect probes;
  traced    as plain without the probes, with the span tracer installed
            after set-up (in process) or in every command's process
            (`cli`).

A single client runs one item at a time (closed loop).  Each item's
latency covers the program's work only; its check runs after the clock
stops.  A failure is an exception, an "unknown" answer, a wrong exit code,
a check that does not hold or an item over its wall cap.  The peak
resident set is read after a fixed number of items (`rss_items` of the
workload), so it measures a fixed amount of work whatever the speed of the
machine.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

T0 = perf_counter()

from common import SRC, ItemTimeout, NoAnswer, wall_cap  # noqa: E402

WORKLOADS = {"forms": ("forms", "Forms"), "survey": ("survey", "Survey"),
             "cli": ("climix", "CliMix")}
MAX_FAILURE_NOTES = 8
REF_LOOP = 20_000        # about 2 ms
REF_EVERY_S = 0.1


def _rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def reference_ms() -> float:
    """Time of a fixed pure-Python loop: the speed of the machine right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return (perf_counter() - t0) * 1000.0


def run_items(wl, seconds: float | None, count: int | None,
              tracer=None) -> dict:
    lat_ms, ref_index, kinds, families = [], [], [], []
    refs, ref_at = [], float("-inf")
    rss_mb = None
    attempted = failed = mismatched = 0
    busy_s = 0.0
    notes: list[str] = []
    reasons: Counter = Counter()
    items = wl.items
    deadline = perf_counter() + seconds if seconds is not None else None
    start = perf_counter()
    while True:
        if deadline is not None and perf_counter() >= deadline:
            break
        if count is not None and attempted >= count:
            break
        if attempted == wl.rss_items:
            rss_mb = _rss_mb(wl.name)
        if perf_counter() - ref_at >= REF_EVERY_S:
            refs.append(reference_ms())
            ref_at = perf_counter()
        item = items[attempted % len(items)]
        attempted += 1
        error = None
        if tracer is not None:
            tracer.tag = item.tag
        t0 = perf_counter()
        try:
            if getattr(wl, "caps_itself", False):
                out = wl.run(item)
            else:
                with wall_cap(item.cap_s):
                    out = wl.run(item)
        except (ItemTimeout, NoAnswer) as exc:
            error = f"{item.kind}: {exc}"
        except Exception as exc:  # any escape from the library is a failure
            error = f"{item.kind}: {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        busy_s += dt
        lat_ms.append(dt * 1000.0)
        ref_index.append(len(refs) - 1)
        kinds.append(item.kind)
        families.append(item.family)
        if error is None:
            if tracer is not None:
                tracer.paused = True
            try:
                wl.check(item, out)
            except NoAnswer as exc:
                error = f"{item.kind}: {exc}"
            except Exception as exc:  # Mismatch, or output too malformed
                mismatched += 1       # to check: either way a wrong answer
                error = f"{item.kind}: wrong answer: {exc!r}"
            finally:
                if tracer is not None:
                    tracer.paused = False
        if error is not None:
            failed += 1
            reasons[error.split(":", 1)[0]] += 1
            if len(notes) < MAX_FAILURE_NOTES:
                notes.append(error[:300])
    refs.append(reference_ms())
    # each item's reference: the mean of the timings just before and just
    # after it, which follows the host's speed better than either alone
    ref_ms = [(refs[i] + refs[i + 1]) / 2.0 for i in ref_index]
    return {
        "attempted": attempted, "failed": failed, "mismatched": mismatched,
        "busy_s": busy_s, "wall_s": perf_counter() - start,
        "wrapped": attempted > len(items),
        "latency_ms": lat_ms, "ref_ms": ref_ms, "kinds": kinds,
        "families": families,
        "failure_notes": notes, "failures_by_kind": dict(reasons),
        "rss_peak_mb": rss_mb if rss_mb is not None else _rss_mb(wl.name),
        "rss_items": min(attempted, wl.rss_items),
    }


def run_probes(wl) -> list[str]:
    """Run the workload's fixed known-defect inputs, untimed, and return a
    note for each that still fails (error, wall cap or check).  They are
    not items of the workload: their count is a per-layer metric."""
    notes = []
    for item in wl.probes():
        try:
            if getattr(wl, "caps_itself", False):
                out = wl.run(item)
            else:
                with wall_cap(item.cap_s):
                    out = wl.run(item)
            wl.check(item, out)
        except Exception as exc:
            notes.append(f"{item.kind}: {type(exc).__name__}: {exc}"[:300])
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "plain", "traced"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--items", type=int)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    modname, clsname = WORKLOADS[args.workload]
    wl = getattr(importlib.import_module(modname), clsname)(
        args.seed, Path(args.workdir), args.mode)
    wl.setup()
    setup_s = perf_counter() - T0
    wl.counters = dict.fromkeys(wl.counters, 0)
    result = {"setup_s": setup_s, "excluded": wl.excluded}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced" and args.workload != "cli":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        seconds = args.seconds if args.mode == "measure" else None
        count = None if args.mode == "measure" else args.items
        result.update(run_items(wl, seconds, count, tracer))
        if tracer is not None:
            result["trace"] = tracer.snapshot()
        elif args.mode == "traced":
            result["trace"] = wl.trace_snapshot()
        result["counters"] = dict(wl.counters)
        result.update(getattr(wl, "extra", dict)())
        if args.mode == "plain":
            result["probe_failures"] = run_probes(wl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
