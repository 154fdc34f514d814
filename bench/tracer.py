"""Span tracing of wittforge's public functions, installed from outside.

`Tracer.install` wraps every public function of the library layers and
rebinds the wrapper at every module namespace that holds the original, so
a call between layers (say `quadform` calling `qarith.factor` through its
own `from .qarith import factor`) is seen as well as a call from the
benchmark.  Each call is a span with a parent: the innermost traced call
that was open when it started.  Spans are folded into per-function totals
as they close rather than stored one by one, because a run makes millions
of them; the fold keeps what the per-layer metrics need:

- calls, total time and self time (the span minus the time its child
  spans cover) per function;
- call counts per (parent, child) edge;
- `DomainError`/`BoundExceeded` that left a layer through its public
  boundary, counted once per layer crossed;
- the durations of top-level calls of a few functions, grouped by a tag
  the caller sets (the dimension or prime count of the item).

The tracer never changes what a function returns or raises.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("qarith", "cohomology", "quadform", "quat", "hermitian",
          "invol12", "ramlattice")

# top-level calls of these are timed per tag, see `Tracer.tag`
TAGGED = ("quadform.witt_decompose", "invol12.decompose_split12")

# (child, ancestor): count child calls made anywhere below ancestor
UNDER = (("cohomology.brauer_from_symbol", "quadform.clifford_class"),)


def _is_public_function(module, name: str, obj) -> bool:
    if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
        return False
    if not (inspect.isfunction(obj)
            or isinstance(obj, functools._lru_cache_wrapper)):
        return False
    return getattr(obj, "__module__", None) == module.__name__


class Tracer:
    def __init__(self):
        self.stack: list[list] = []        # open spans: [name, child_time]
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.edges: Counter = Counter()    # (parent or "", child) -> calls
        self.raised: Counter = Counter()   # layer -> exceptions that left it
        self.under: Counter = Counter()    # (child, ancestor) -> calls
        self.open_count: Counter = Counter()
        self.tagged: dict[str, list[float]] = defaultdict(list)
        self.tag: str | None = None
        self.paused = False                # True while the benchmark checks
        self._factor_info0 = None

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        from wittforge import errors, qarith
        self._errors = (errors.DomainError, errors.BoundExceeded)
        self._factor = qarith.factor
        self._factor_info0 = qarith.factor.cache_info()
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"wittforge.{layer}")
            for name, obj in vars(module).items():
                if _is_public_function(module, name, obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}",
                                                         layer, obj))
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("wittforge."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def _wrap(self, name: str, layer: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, edges, raised = self.stack, self.edges, self.raised
        errors = self._errors
        tagged = name in TAGGED
        ancestors = [a for c, a in UNDER if c == name]
        watched = any(a == name for _, a in UNDER)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else ""
            edges[parent, name] += 1
            for anc in ancestors:
                if tracer.open_count[anc]:
                    tracer.under[name, anc] += 1
            if watched:
                tracer.open_count[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except errors:
                if parent.split(".", 1)[0] != layer:
                    raised[layer] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if watched:
                    tracer.open_count[name] -= 1
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                elif tagged and tracer.tag is not None:
                    tracer.tagged[f"{name}.{tracer.tag}"].append(dt)

        return wrapper

    # --- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data totals, mergeable across processes by `merge`."""
        info = self._factor.cache_info()
        info0 = self._factor_info0
        return {
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "raised": dict(self.raised),
            "under": [[c, a, n] for (c, a), n in self.under.items()],
            "tagged": dict(self.tagged),
            "factor_hits": info.hits - info0.hits,
            "factor_misses": info.misses - info0.misses,
        }


def empty_snapshot() -> dict:
    return {"stats": {}, "edges": [], "raised": {}, "under": [],
            "tagged": {}, "factor_hits": 0, "factor_misses": 0}


def merge(into: dict, snap: dict) -> dict:
    for name, (calls, total, self_s) in snap["stats"].items():
        acc = into["stats"].setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_s
    into["edges"].extend(snap["edges"])
    for layer, n in snap["raised"].items():
        into["raised"][layer] = into["raised"].get(layer, 0) + n
    into["under"].extend(snap["under"])
    for key, values in snap["tagged"].items():
        into["tagged"].setdefault(key, []).extend(values)
    into["factor_hits"] += snap["factor_hits"]
    into["factor_misses"] += snap["factor_misses"]
    return into
