"""Turn worker results into the named metrics of BENCHMARK.json.

End-to-end metrics come from an untraced `measure` run (plus the set-up
samples); per-layer metrics from a traced run and an untraced run over
the same fixed list of items.  Every function returns {name: (value,
samples)}; units live in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
from collections import Counter, defaultdict

from common import ROOT, SRC
from tracer import LAYERS

CLI_FAMILIES = ("qf", "alg", "val", "batch")
WITT_DIMS = (12, 50, 100, 200)
SPLIT12_PRIMES = (2, 8, 12, 16)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _family_medians(run: dict) -> dict:
    by_family = defaultdict(list)
    for fam, ms in zip(run["families"], run["latency_ms"]):
        by_family[fam].append(ms)
    return {f"cli_{fam}_ms_p50": (median(by_family[fam]), len(by_family[fam]))
            for fam in CLI_FAMILIES}


def end_to_end(run: dict, setup_samples: list[float],
               workload: str) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics, and the ones reported beside
    them: raw times, which follow the speed of the host, and metrics that
    are zero on some workload (so carry no bound).

    Item costs are bounded in units of a reference loop timed in the same
    process every tenth of a second (`worker.reference_ms`): dividing each
    item's latency by the mean of the timings just before and after it
    cancels the host's speed, which on a shared 2-vCPU VM moves raw times
    by 15-30 % between runs."""
    lat = run["latency_ms"]
    cost = [ms / ref for ms, ref in zip(lat, run["ref_ms"])]
    done = run["attempted"] - run["failed"]
    out = {
        "setup_s": (median(setup_samples), len(setup_samples)),
        "items_per_kref": (1000.0 * done / sum(cost), done),
        "item_ref_p50": (median(cost), len(cost)),
        "item_ref_p90": (quantile(cost, 0.9), len(cost)),
    }
    extra = {
        "rss_peak_mb": (run["rss_peak_mb"], run["rss_items"]),
        "items_per_s": (done / run["busy_s"], done),
        "item_ms_p50": (median(lat), len(lat)),
        "item_ms_p90": (quantile(lat, 0.9), len(lat)),
        "ref_ms": (median(run["ref_ms"]), len(set(run["ref_ms"]))),
        "fail_ratio": (run["failed"] / run["attempted"], run["attempted"]),
    }
    if workload == "cli":
        extra.update(_family_medians(run))
    return out, extra


def per_layer(plain: dict, traced: dict) -> dict:
    snap = traced["trace"]
    stats = snap["stats"]
    edges = Counter()
    for parent, child, n in snap["edges"]:
        edges[parent, child] += n
    under = Counter()
    for child, anc, n in snap["under"]:
        under[child, anc] += n

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_ms(name):
        return stats.get(name, [0, 0.0, 0.0])[2] * 1000.0

    def layer_self_ms(layer):
        return sum(v[2] for k, v in stats.items()
                   if k.startswith(layer + ".")) * 1000.0

    def tagged_p50(name, tag):
        values = snap["tagged"].get(f"{name}.{tag}", [])
        return median(values) * 1000.0, len(values)

    def ratio(num, den):
        return num / den if den else 0.0

    n_items = traced["attempted"]
    out = {}

    def put(name, value, samples=n_items):
        out[name] = (value, samples)

    hits, misses = snap["factor_hits"], snap["factor_misses"]
    put("qarith.factor.calls", calls("qarith.factor"))
    put("qarith.factor.cache_hit_ratio", ratio(hits, hits + misses),
        hits + misses)
    put("qarith.factor.self_ms", self_ms("qarith.factor"))
    put("qarith.hilbert_symbol.calls", calls("qarith.hilbert_symbol"))
    put("cohomology.brauer_from_symbol.calls",
        calls("cohomology.brauer_from_symbol"))
    put("cohomology.brauer_from_symbol.per_clifford",
        ratio(under["cohomology.brauer_from_symbol",
                    "quadform.clifford_class"],
              calls("quadform.clifford_class")),
        calls("quadform.clifford_class"))
    put("cohomology.find_quaternion_symbol.calls",
        calls("cohomology.find_quaternion_symbol"))
    put("quadform.clifford_class.calls", calls("quadform.clifford_class"))
    put("quadform.clifford_class.self_ms", self_ms("quadform.clifford_class"))
    put("quadform.witt_decompose.self_ms", self_ms("quadform.witt_decompose"))
    for dim in WITT_DIMS:
        put(f"quadform.witt_decompose.dim{dim}.ms_p50",
            *tagged_p50("quadform.witt_decompose", f"dim{dim}"))
    put("quadform.isotropic_vector.calls", calls("quadform.isotropic_vector"))
    put("quadform.isotropic_vector.self_ms",
        self_ms("quadform.isotropic_vector"))
    put("quadform.is_hyperbolic_over.calls",
        calls("quadform.is_hyperbolic_over"))
    put("quadform.divide_by_binary.self_ms",
        self_ms("quadform.divide_by_binary"))
    for name in ("quat.common_value_witness", "quat.three_pure_product"):
        put(f"{name}.self_ms", self_ms(name))
    for name in ("quat.anticommutant", "quat.complement_slot"):
        put(f"{name}.calls", calls(name))
    put("hermitian.to_quadratic_form.calls",
        calls("hermitian.to_quadratic_form"))
    put("hermitian.to_quadratic_form.self_ms",
        self_ms("hermitian.to_quadratic_form"))
    put("invol12.exists_involution.self_ms",
        self_ms("invol12.exists_involution"))
    counters = traced["counters"]
    put("invol12.exists_involution.witness_ratio",
        ratio(counters.get("exists.witness", 0),
              counters.get("exists.attempts", 0)),
        counters.get("exists.attempts", 0))
    for name in ("invol12.f3_via_norms", "invol12.f3_via_symbol",
                 "invol12.additive_decomposition"):
        put(f"{name}.self_ms", self_ms(name))
    for k in SPLIT12_PRIMES:
        put(f"invol12.decompose_split12.p{k}.ms_p50",
            *tagged_p50("invol12.decompose_split12", f"p{k}"))
    put("invol12.decompose_split12.hyper_over_per_call",
        ratio(edges["invol12.decompose_split12",
                    "quadform.is_hyperbolic_over"],
              calls("invol12.decompose_split12")),
        calls("invol12.decompose_split12"))
    put("ramlattice.analyze_obstruction.calls",
        calls("ramlattice.analyze_obstruction"))
    put("ramlattice.analyze_obstruction.self_ms",
        self_ms("ramlattice.analyze_obstruction"))
    for layer in LAYERS:
        put(f"{layer}.self_ms", layer_self_ms(layer))
        put(f"{layer}.raised", snap["raised"].get(layer, 0))

    cli = plain.get("cli")
    if cli is not None:
        start = cli["start_ms"]
        handler = cli["handler_ms"]
        overhead = cli["overhead_ms"]
        sizes = cli["report_bytes"]
        put("cli.start_ms", start, 7)
        put("cli.import_ms", cli["import_ms"] - start, 7)
        # --timing reports whole ms, so a median would sit on one integer
        put("cli.handler_ms", sum(handler) / len(handler) if handler else 0.0,
            len(handler))
        put("cli.overhead_ms", median(overhead), len(overhead))
        put("cli.report_kb",
            sum(sizes) / len(sizes) / 1024.0 if sizes else 0.0, len(sizes))
    else:
        for name in ("start_ms", "import_ms", "handler_ms", "overhead_ms",
                     "report_kb"):
            put(f"cli.{name}", 0.0, 0)
    out.update(_family_medians(plain) if cli is not None else
               {f"cli_{fam}_ms_p50": (0.0, 0) for fam in CLI_FAMILIES})
    put("rss_peak_mb", plain["rss_peak_mb"], plain["rss_items"])
    put("fail_ratio", plain["failed"] / plain["attempted"],
        plain["attempted"])
    put("defects.screened_out", len(plain["excluded"]), len(plain["excluded"]))
    put("defects.known_failed", len(plain["probe_failures"]),
        len(plain["probe_failures"]))
    put("trace.overhead_s", traced["busy_s"] - plain["busy_s"])
    put("trace.overhead_ratio", ratio(traced["busy_s"], plain["busy_s"]))
    return out


def provenance() -> dict:
    digest = hashlib.sha256()
    for base in (SRC, ROOT / "scripts"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
