"""The `cli` workload: every subcommand as a user runs it, cold.

Each item is one fresh process (`python3 -m wittforge.cli ...` or one of
the two scripts) on an input file written during set-up; the latency runs
from process start to the last byte of its report.  Nothing warms: every
user command starts a cold interpreter, so a cache kept across calls or
work moved into import time shows up here as no gain or as a loss.

Set-up writes the inputs and saves the presentations that `alg exists`
prints for a few seeded pairs, for `alg f3` and `alg additive` to read.
Per cycle of 99 items (fixed; see `WEIGHTS` and `EDGES`), by family:

- qf: `invariants` on dims 4..12, 50, 100, 200; `decompose12` at 2, 8, 12
  and 16 distinct primes; `hyper-over`;
- alg: `exists`, `f3` (also on a split degree 6 presentation, the repair
  path), `additive`;
- val: `obstruction` on four distinct totally ramified slot sets and on
  one input with a split factor;
- batch: `selftest` and the two scripts;
- edge, 3 of 99: non-JSON input (exit 2), a zero entry (exit 2) and
  `decompose12` with nontrivial e1 (exit 3).  They sit early in the cycle,
  so every run meets each of them once.

Inputs come from small pools, so commands repeat within a run and their
stdout must repeat byte for byte.  After the first 99 items the weighted
order repeats without the edge inputs.

Set-up screens every distinct command once, in the worker's own process
through `wittforge.cli.main` (or the script), which warms nothing the
command processes use: a command that exits 4 (bound-exceeded) where 0 is
documented, or runs over its cap, leaves its pool and is reported in
`excluded`; a pool left empty is drawn again.  The 2^61 - 1 entry of
`qf invariants`, which today runs past any cap, is a known-defect probe
(`probes`), not an item.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random
from time import perf_counter

from common import MAX_DRAWS, ROOT, SRC, Item, ItemTimeout, NoAnswer, \
    interleave, nonzero, require, split12_entries, squarefree, \
    trivial_e1_six, wall_cap

WEIGHTS = {
    "inv-small": 18, "inv50": 4, "inv100": 3, "inv200": 2, "dec": 6,
    "dec16": 1, "hyper": 6,
    "exists": 12, "f3": 8, "additive": 6, "f3-split6": 3,
    "val-tr": 12, "val-split": 2,
    "selftest": 5, "survey-script": 4, "table-script": 4,
}
EDGES = {3: "edge-nonjson", 11: "edge-zero", 19: "edge-e1"}
FAMILY = {"inv": "qf", "dec": "qf", "hyp": "qf", "exi": "alg", "f3": "alg",
          "f3-": "alg", "add": "alg", "val": "val", "sel": "batch",
          "sur": "batch", "tab": "batch", "edg": "edge"}   # by kind[:3]
CAP_S = 10.0
EDGE_CAP_S = 2.0
PRESENTATIONS = 4
REPRODUCER = {"entries": ["2305843009213693951", "1"]}
_TIMING = re.compile(rb'\n  "timing_ms": [0-9]+\n')


class CliMix:
    name = "cli"
    rss_items = 100  # peak RSS is read after this many timed items
    caps_itself = True

    def __init__(self, seed: int, workdir, mode: str):
        self.seed = seed
        self.dir = workdir / "inputs"
        self.mode = mode
        self.counters = {"exists.attempts": 0, "exists.witness": 0}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))
        self.stdout_hash: dict[tuple, str] = {}
        self.timing_ms: list[float] = []
        self.overhead_ms: list[float] = []
        self.report_bytes: list[int] = []
        self.snapshots: list[str] = []
        self._runs = 0
        self.excluded: list[str] = []

    # --- set-up -----------------------------------------------------------

    def setup(self) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        rng = Random(f"{self.seed}:cli")
        pools = {kind: self._screened_pool(kind, rng) for kind in WEIGHTS}
        pools.update({kind: [self._edge(kind, rng)]
                      for kind in EDGES.values()})
        regular = iter(interleave(WEIGHTS))
        seq = [EDGES[i] if i in EDGES else next(regular)
               for i in range(sum(WEIGHTS.values()) + len(EDGES))]
        seq += interleave(WEIGHTS) * 4
        seen = dict.fromkeys(pools, 0)
        self.items = []
        for kind in seq:
            pool = pools[kind]
            self.items.append(pool[seen[kind] % len(pool)])
            seen[kind] += 1

    def _screened_pool(self, kind: str, rng: Random) -> list[Item]:
        for _ in range(MAX_DRAWS):
            pool = self._pool(kind, rng)
            kept = [item for item in pool if self._screen(item)]
            if kept:
                return kept
        return pool     # every draw refused: the timed run shows it

    def _screen(self, item: Item) -> bool:
        """Run the command once in this process; False, with a note in
        `excluded`, if it refused on a budget or ran over its cap.  Any
        other outcome keeps it, so the timed run judges it."""
        argv = list(item.payload)
        saved = sys.argv
        try:
            with wall_cap(item.cap_s), redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                if argv[:2] == ["-m", "wittforge.cli"]:
                    from wittforge.cli import main as cli_main
                    code = cli_main(argv[2:])
                else:
                    sys.argv = argv
                    try:
                        runpy.run_path(argv[0], run_name="__main__")
                        code = 0
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 1
        except ItemTimeout as exc:
            reason = str(exc)
        except Exception:
            return True
        else:
            if code != 4 or 4 in item.meta.get("exit", (0,)):
                return True
            reason = "exit 4 (bound-exceeded)"
        finally:
            sys.argv = saved
        self.excluded.append(f"{item.kind}: {' '.join(argv)}: {reason}")
        return False

    def probes(self) -> list[Item]:
        return [self._item("edge-2p61", ["-m", "wittforge.cli", "qf",
                                         "invariants", self._write(
                                             "reproducer.json", REPRODUCER)],
                           EDGE_CAP_S, exit=(0, 4))]

    def _write(self, name: str, payload) -> str:
        path = self.dir / name
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text)
        return str(path)

    def _form(self, name: str, entries) -> str:
        return self._write(name, {"entries": [str(e) for e in entries]})

    def _item(self, kind, argv, cap=CAP_S, tag=None, **meta) -> Item:
        return Item(kind, FAMILY[kind[:3]], argv, cap, tag=tag, meta=meta)

    def _pool(self, kind: str, rng: Random) -> list[Item]:
        qf = ["-m", "wittforge.cli"]
        if kind.startswith("inv"):
            dims = {"inv-small": range(4, 13), "inv50": [50, 50, 50],
                    "inv100": [100, 100], "inv200": [200, 200]}[kind]
            out = []
            for j, dim in enumerate(dims):
                entries = [nonzero(rng, 9) for _ in range(dim)]
                path = self._form(f"{kind}-{j}.json", entries)
                out.append(self._item(kind, qf + ["qf", "invariants", path],
                                      tag=f"dim{dim}", entries=entries))
            return out
        if kind.startswith("dec"):
            counts = (2, 8, 12) if kind == "dec" else (16,)
            return [self._item(kind, qf + ["qf", "decompose12", self._form(
                f"dec-p{k}.json", split12_entries(rng, k))], tag=f"p{k}")
                for k in counts]
        if kind == "hyper":
            out = []
            for j in range(3):
                d = 1
                while d == 1:
                    d = squarefree(nonzero(rng, 30))
                phi = [nonzero(rng, 30) for _ in range(rng.randint(1, 3))]
                path = self._form(f"hyper-{j}.json",
                                  phi + [-d * e for e in phi])
                out.append(self._item(kind, qf + ["qf", "hyper-over", path,
                                                  "--d", str(d)]))
            return out
        if kind == "exists":
            return [self._item(kind, qf + ["alg", "exists"] + self._pair(rng))
                    for _ in range(6)]
        if kind in ("f3", "additive"):
            if not hasattr(self, "_presentations"):
                self._presentations = self._save_presentations(rng)
            return [self._item(kind, qf + ["alg", kind, path])
                    for path in self._presentations]
        if kind == "f3-split6":
            out = []
            for j in range(2):
                h = {slot: str(-rng.randint(1, 15)) for slot in "ab"}
                coords = [0, 0, 0]
                while not any(coords):
                    coords = [rng.randint(-6, 6) for _ in range(3)]
                phi = trivial_e1_six(*(nonzero(rng, 9) for _ in range(5)))
                pres = {"a0": {"split": {"entries": [str(e) for e in phi]}},
                        "h": {"alg": h, "i": {"alg": h, "coords": [
                            "0"] + [str(c) for c in coords]}}}
                path = self._write(f"split6-{j}.json", pres)
                out.append(self._item(kind, qf + ["alg", "f3", path]))
            return out
        if kind == "val-tr":
            return [self._item(kind, qf + ["val", "obstruction", self._write(
                f"slots-{j}.json", {"slots": self._ramified_slots(rng)})])
                for j in range(4)]
        if kind == "val-split":
            slots = self._ramified_slots(rng)
            slots[1][0] = [2 * x for x in slots[1][0]]
            return [self._item(kind, qf + ["val", "obstruction", self._write(
                "slots-split.json", {"slots": slots})], split=True)]
        if kind == "selftest":
            return [self._item(kind, qf + ["selftest", "--seed",
                                           str(rng.randint(0, 10 ** 6))])
                    for _ in range(2)]
        if kind == "survey-script":
            return [self._item(kind, [
                str(ROOT / "scripts" / "f3_survey.py"), "--trials", "20",
                "--seed", str(rng.randint(0, 10 ** 6))]) for _ in range(2)]
        assert kind == "table-script", kind
        return [self._item(kind, [
            str(ROOT / "scripts" / "obstruction_table.py"), "--slots",
            self._write(f"table-{j}.json",
                        {"slots": self._ramified_slots(rng)})])
            for j in range(2)]

    def _edge(self, kind: str, rng: Random) -> Item:
        qf = ["-m", "wittforge.cli", "qf"]
        if kind == "edge-nonjson":
            path = self._write("nonjson.json", "entries: [1, 2")
            return self._item(kind, qf + ["invariants", path], EDGE_CAP_S,
                              exit=(2,))
        if kind == "edge-zero":
            entries = [nonzero(rng, 9) for _ in range(4)]
            entries[rng.randrange(4)] = 0
            return self._item(kind, qf + ["invariants", self._form(
                "zero.json", entries)], EDGE_CAP_S, exit=(2,))
        assert kind == "edge-e1", kind
        entries = [nonzero(rng, 9) for _ in range(11)]
        # in dim 12, e1 is the determinant class; c times 2c makes it 2
        c = 1
        for e in entries:
            c = squarefree(c * e)
        return self._item(kind, qf + ["decompose12", self._form(
            "nontrivial-e1.json", entries + [2 * c])], EDGE_CAP_S, exit=(3,))

    @staticmethod
    def _pair(rng: Random) -> list[str]:
        return [f"--h{n}={squarefree(nonzero(rng, 15))},"
                f"{squarefree(nonzero(rng, 15))}" for n in (1, 2)]

    @staticmethod
    def _ramified_slots(rng: Random) -> list:
        """Four slot vectors in Z^4, independent mod 2."""
        while True:
            vecs = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            rows = [sum((v[i] % 2) << i for i in range(4)) for v in vecs]
            rank = 0
            for bit in range(4):
                pivot = next((r for r in rows if r >> bit & 1), None)
                if pivot is None:
                    continue
                rank += 1
                rows.remove(pivot)
                rows = [r ^ pivot if r >> bit & 1 else r for r in rows]
            if rank == 4:
                return [vecs[:2], vecs[2:]]

    def _save_presentations(self, rng: Random) -> list[str]:
        paths = []
        for _ in range(3 * PRESENTATIONS):
            argv = ["-m", "wittforge.cli", "alg", "exists"] + self._pair(rng)
            try:
                proc = subprocess.run([sys.executable] + argv, cwd=ROOT,
                                      env=self.env, capture_output=True,
                                      timeout=CAP_S)
            except subprocess.TimeoutExpired:
                continue
            if proc.returncode == 0:
                report = json.loads(proc.stdout)
                pres = report["outputs"]["presentation"]
                if report["outputs"]["status"] == "witness":
                    paths.append(self._write(f"pres-{len(paths)}.json", pres))
            if len(paths) == PRESENTATIONS:
                return paths
        raise RuntimeError("alg exists gave too few witnesses for set-up")

    # --- the timed call and its check ------------------------------------

    def _argv(self, item: Item) -> list[str]:
        argv = list(item.payload)
        timing = self.mode in ("plain", "traced")
        if timing and argv[:2] == ["-m", "wittforge.cli"]:
            argv = argv[:2] + ["--timing"] + argv[2:]
        if self.mode != "traced":
            return [sys.executable] + argv
        stats = self.dir / f"trace-{self._runs}.json"
        self._runs += 1
        self.snapshots.append(str(stats))
        launch = [sys.executable, str(Path(__file__).with_name("launch.py")),
                  "--stats", str(stats)]
        if item.tag:
            launch += ["--tag", item.tag]
        if argv[:2] == ["-m", "wittforge.cli"]:
            return launch + ["--"] + argv[2:]
        return launch + ["--script"] + argv

    def run(self, item: Item):
        argv = self._argv(item)
        t0 = perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env,
                                  capture_output=True, timeout=item.cap_s)
        except subprocess.TimeoutExpired:
            raise ItemTimeout(f"over the {item.cap_s} s cap") from None
        wall_ms = (perf_counter() - t0) * 1000.0
        return proc, wall_ms

    def check(self, item: Item, out) -> None:
        proc, wall_ms = out
        want = item.meta.get("exit", (0,))
        if proc.returncode not in want:
            raise NoAnswer(f"exit {proc.returncode}, documented {want}: "
                           f"{proc.stderr[-200:]!r}")
        if item.kind == "exists":
            self.counters["exists.attempts"] += 1
        stdout = proc.stdout
        if proc.returncode != 0:
            require(stdout == b"" and b'"error"' in proc.stderr,
                    f"{item.kind}: diagnostic shape")
            return
        key = tuple(item.payload)
        digest = hashlib.sha256(_TIMING.sub(b'\n  "timing_ms": null\n',
                                            stdout)).hexdigest()
        require(self.stdout_hash.setdefault(key, digest) == digest,
                f"{item.kind}: stdout differs on a repeated input")
        self.report_bytes.append(len(stdout))
        if item.family == "batch" and item.kind != "selftest":
            self._check_script(item, stdout)
            return
        report = json.loads(stdout)
        checks = report["checks"]
        require(all(v is not False for v in checks.values()),
                f"{item.kind}: a check flag is false: {checks}")
        if report.get("timing_ms") is not None:
            self.timing_ms.append(report["timing_ms"])
            self.overhead_ms.append(wall_ms - report["timing_ms"])
        outputs = report["outputs"]
        if item.kind.startswith("inv"):
            entries = item.meta["entries"]
            require(outputs["dim"] == len(entries), "invariants: dim")
            require(outputs["signature"] == sum(1 if e > 0 else -1
                                                for e in entries),
                    "invariants: signature")
        elif item.kind.startswith("dec"):
            require(checks.get("round_trip") is True,
                    "decompose12: round trip")
        elif item.kind == "hyper":
            require(outputs["hyperbolic"] is True, "hyper-over")
        elif item.kind == "exists":
            if outputs["status"] == "unknown":
                raise NoAnswer("alg exists: unknown")
            require(outputs["status"] == "witness"
                    and checks["trivial_invariants"] is True, "alg exists")
            self.counters["exists.witness"] += 1
        elif item.kind.startswith("f3"):
            require(outputs["agree"] is True, "alg f3: routes disagree")
        elif item.kind == "additive":
            group = {tuple(c) for c in outputs["group"]}
            require(checks["group_order"] == len(group), "alg additive")
        elif item.kind.startswith("val"):
            rows = outputs["table"]
            if item.meta.get("split"):
                require(outputs["split_factor"] is True
                        and outputs["obstructed"] is False and not rows,
                        "val: split factor")
            else:
                require(outputs["splittings"] == len(rows) == 560
                        and outputs["obstructed"]
                        == all(r["separated"] for r in rows), "val: table")
        elif item.kind == "selftest":
            require(outputs["ok"] is True, "selftest")

    @staticmethod
    def _check_script(item: Item, stdout: bytes) -> None:
        if item.kind == "survey-script":
            report = json.loads(stdout)
            require(report["disagreements"] == []
                    and sum(report["statuses"].values())
                    == report["config"]["trials"]
                    and "unknown" not in report["statuses"],
                    "f3_survey: statuses or disagreements")
        else:
            text = stdout.decode()
            require("splittings: 560" in text
                    and "split factor: False" in text, "obstruction_table")

    # --- what the worker reports besides the loop ------------------------

    def extra(self) -> dict:
        if self.mode != "plain":
            return {}
        return {"cli": {
            "start_ms": self._median_ms([sys.executable, "-c", "pass"]),
            "import_ms": self._median_ms(
                [sys.executable, "-c", "import wittforge.cli"]),
            "handler_ms": self.timing_ms, "overhead_ms": self.overhead_ms,
            "report_bytes": self.report_bytes}}

    def _median_ms(self, argv: list[str], repeats: int = 7) -> float:
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            subprocess.run(argv, cwd=ROOT, env=self.env, check=True,
                           capture_output=True, timeout=CAP_S)
            times.append((perf_counter() - t0) * 1000.0)
        return sorted(times)[repeats // 2]

    def trace_snapshot(self) -> dict:
        from tracer import empty_snapshot, merge
        total = empty_snapshot()
        for path in self.snapshots:
            if os.path.exists(path):
                with open(path) as fh:
                    merge(total, json.load(fh))
        return total
