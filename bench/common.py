"""Pieces shared by the workloads: items, the mix order, caps and checks.

Nothing here imports wittforge, so the orchestrator and the `cli`
workload can run without loading the library into their own process.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Item:
    kind: str                 # e.g. "inv200", "dec16", "val-tr"
    family: str               # the user-facing command family
    payload: object
    cap_s: float              # per-item wall cap; hitting it is a failure
    tag: str | None = None    # groups tagged per-layer durations
    meta: dict = field(default_factory=dict)


class Mismatch(Exception):
    """An output failed a benchmark check: a wrong answer, not an error."""


class NoAnswer(Exception):
    """The program gave no verified answer, e.g. an "unknown" status."""


class ItemTimeout(Exception):
    """The item ran past its wall cap."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def interleave(weights: dict[str, int]) -> list[str]:
    """One cycle of kinds in smooth weighted round-robin order.

    Every prefix of the cycle holds each kind close to its share, so a run
    that stops part way through still sees the fixed mix.
    """
    total = sum(weights.values())
    current = dict.fromkeys(weights, 0)
    out = []
    for _ in range(total):
        for kind, w in weights.items():
            current[kind] += w
        best = max(current, key=current.get)
        current[best] -= total
        out.append(best)
    return out


MAX_DRAWS = 8


def screen(run, item: Item, defect: type) -> str | None:
    """Run an item once, untimed and unchecked.  The reason it must leave
    the timed pool, or None: the library raised `defect` (its budget
    refusal) or the item ran over its wall cap.  Any other error keeps the
    item in, so the timed run counts it as a failure."""
    try:
        with wall_cap(item.cap_s):
            run(item)
    except ItemTimeout as exc:
        return str(exc)
    except defect as exc:
        return f"{type(exc).__name__}: {exc}"[:200]
    except Exception:
        pass
    return None


def build_pool(weights: dict[str, int], cycles: int, stream: str, make,
               run, defect: type) -> tuple[list[Item], list[str]]:
    """The timed items: `cycles` rounds of the interleaved mix, each item
    screened (see `screen`) as it is made, which also warms the library's
    caches on exactly the inputs the run times.

    make(kind, rng, index) builds the index-th item of a kind from that
    kind's own seeded stream, so adding a kind does not change the inputs
    of the others.  An item screened out is replaced by the next draw of
    its kind, so the mix stays fixed; it is reported, never hidden.  After
    MAX_DRAWS refusals in a row the last draw stays in and fails when
    timed.  Returns the items and one note per excluded draw."""
    rngs = {kind: Random(f"{stream}:{kind}") for kind in weights}
    kept = dict.fromkeys(weights, 0)
    items, excluded = [], []
    for kind in interleave(weights) * cycles:
        for _ in range(MAX_DRAWS):
            item = make(kind, rngs[kind], kept[kind])
            reason = screen(run, item, defect)
            if reason is None:
                break
            excluded.append(f"{item.kind}: {reason}")
        items.append(item)
        kept[kind] += 1
    return items, excluded


@contextmanager
def wall_cap(seconds: float):
    """Raise ItemTimeout in this (main) thread after `seconds` of wall."""
    def _expire(signum, frame):
        raise ItemTimeout(f"over the {seconds} s cap")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# --- integer helpers the checks and generators use instead of the library --

def small_primes(count: int) -> list[int]:
    out, n = [], 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


def prime_support(n: int) -> set[int]:
    """Primes dividing n, by trial division; only for the small entries the
    generators make."""
    n, out, p = abs(n), set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def squarefree(n: int) -> int:
    """Signed squarefree part of a nonzero int, by trial division."""
    sign, n, core, p = (-1 if n < 0 else 1), abs(n), 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            core *= p
            n //= p
        p += 1
    return sign * core * n


def nonzero(rng, bound: int) -> int:
    while True:
        n = rng.randint(-bound, bound)
        if n:
            return n


def trivial_e1_six(a1: int, a2: int, a3: int, s1: int, s2: int) -> list[int]:
    """<a1, -a1 s1, a2, -a2 s2, a3, -a3 s1 s2>: det is -1 times a square,
    so the signed discriminant e1 is trivial for every choice."""
    return [a1, -a1 * s1, a2, -a2 * s2, a3, -a3 * s1 * s2]


def split12_entries(rng, k: int) -> list[int]:
    """phi x <1, -d> with trivial e1(phi), so e1 and e2 vanish for every d
    and no redraw is ever needed.  The k - 1 smallest odd primes are dealt
    round-robin over a1, a2, a3, s1, s2 and d, so the entries and d involve
    exactly k distinct primes counting 2."""
    primes = small_primes(k)[1:]
    rng.shuffle(primes)
    slots = [1] * 6                       # a1 a2 a3 s1 s2 d
    for i, p in enumerate(primes):
        slots[i % 6] *= p
    a1, a2, a3, s1, s2, d = (rng.choice((1, -1)) * s for s in slots)
    if d == 1:
        d = -1
    phi = trivial_e1_six(a1, a2, a3, s1, s2)
    entries = phi + [-d * e for e in phi]
    assert len({2}.union(*map(prime_support, entries))) == k, (k, entries)
    return entries
