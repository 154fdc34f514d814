"""Survey f3 over Q on generated involution witnesses.

For every sampled pair of quaternion algebras the existence search returns
a presentation with trivial discriminant and Clifford invariant; this
script evaluates f3 on each witness by both routes and tallies the bits.
Every run reports f3 = 0 across the board, which shows less than it
seems: both routes read only the sign of d and the Brauer classes at the
real place, are identically 0 on their domain (README "Scripts" has the
case analysis), never see the signature of the degree 6 factor, and so
miss the real place together.  Vanishing is not a theorem for a split full algebra in
general: Split6(<1, 1, 1, 1, 1, -1>) with H = (1, 1) and
rho = Int(i + j + 2k) o conj has f3 = 1.  The tests pin f3 = 0 only on
the three degenerate presentations frozen in tests/test_invol12.py.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
from random import Random

from wittforge import sampling
from wittforge.invol12 import exists_involution, f3_via_norms, f3_via_symbol


def run_survey(seed: int = 0, trials: int = 200,
               coeff_bound: int = 15) -> dict:
    rng = Random(seed)
    statuses: Counter = Counter()
    bits: Counter = Counter()
    disagreements = []
    for _ in range(trials):
        h1 = sampling.random_algebra(rng, coeff_bound)
        h2 = sampling.random_algebra(rng, coeff_bound)
        outcome = exists_involution(h1, h2)
        statuses[outcome.status] += 1
        if outcome.presentation is None:
            continue
        p = outcome.presentation
        norms = f3_via_norms(p).bit
        symbol = f3_via_symbol(p).bit
        bits[norms] += 1
        if norms != symbol:
            disagreements.append({"h1": [str(h1.a), str(h1.b)],
                                  "h2": [str(h2.a), str(h2.b)],
                                  "norms": norms, "symbol": symbol})
    return {
        "config": {"seed": seed, "trials": trials,
                   "coeff_bound": coeff_bound},
        "statuses": dict(statuses),
        "f3_bits": {str(k): v for k, v in sorted(bits.items())},
        "disagreements": disagreements,
        "all_zero": set(bits) <= {0},
    }


def _at_least(low: int):
    # an argparse type: an int below low is a usage error, exit 2
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=_at_least(0), default=200)
    parser.add_argument("--coeff-bound", type=_at_least(1), default=15,
                        help="sup norm cap on sampled symbol slots")
    args = parser.parse_args()
    print(json.dumps(run_survey(args.seed, args.trials, args.coeff_bound),
                     indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
