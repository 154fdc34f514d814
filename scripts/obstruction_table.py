"""Print the per-splitting value table behind a valuation obstruction.

For a pair of totally ramified quaternion symbols over an iterated Laurent
series field, every candidate quaternion decomposition corresponds to a
splitting of (Z/2)^4 into two rank 2 subgroups.  The involution the pair
would need exists only if some splitting gives the two factors a common
norm value outside the base; the table shows the lattice intersection for
each splitting.  Coordinates are doubled throughout (a valuation v prints
as 2v) so half-integer lattices stay integral: the doubled base lattice
2*Gamma_F prints as 4Z^4, and a separated row is one whose intersection
collapses to exactly that.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from wittforge import ramlattice

DEFAULT_SLOTS = (((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1)))


def _load_slots(slots_path: str | None):
    if slots_path is None:
        return DEFAULT_SLOTS
    data = json.loads(Path(slots_path).read_text())
    return ramlattice.slots_from_json(data)


def _fmt(vectors) -> str:
    return " ".join("(" + ",".join(str(x) for x in v) + ")" for v in vectors)


def render_table(slots_path: str | None = None, limit: int = 8) -> None:
    slots = _load_slots(slots_path)
    report = ramlattice.analyze_obstruction(slots)
    separated = sum(1 for c in report.checks if c.separated)
    print(f"slots: {_fmt(slots[0])} | {_fmt(slots[1])}")
    print(f"split factor: {report.split_factor}")
    print(f"splittings: {len(report.checks)}, separated: {separated}")
    print(f"obstructed: {report.obstructed}")
    shown = report.checks if limit <= 0 else report.checks[:limit]
    for k, check in enumerate(shown):
        print(f"[{k:3d}] S=<{_fmt(check.splitting.s_gens())}> "
              f"T=<{_fmt(check.splitting.t_gens())}> "
              f"intersection rows {_fmt(check.intersection.rows)} "
              f"separated={check.separated}")
    if len(report.checks) > len(shown):
        print(f"... {len(report.checks) - len(shown)} more rows, "
              f"raise --limit (0 shows all)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slots", dest="slots_path", default=None,
                        help="slots JSON file; default is the totally "
                             "ramified pair on four independent monomials")
    parser.add_argument("--limit", type=int, default=8,
                        help="rows to print, 0 for the full table")
    args = parser.parse_args()
    render_table(args.slots_path, args.limit)


if __name__ == "__main__":
    main()
