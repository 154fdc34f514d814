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

Exit codes, as for `wittforge val obstruction`: 0 with the table on
stdout; 2 when the slots file is unreadable or malformed, 3 when the pair
is not totally ramified, each with a one-line JSON diagnostic on stderr
and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from wittforge import ramlattice
from wittforge.errors import DomainError

DEFAULT_SLOTS = (((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1)))


def _load_slots(slots_path: str | None):
    if slots_path is None:
        return DEFAULT_SLOTS
    with open(slots_path, "rb") as fh:
        data = json.loads(fh.read().decode("utf-8"))
    return ramlattice.slots_from_json(data)


def _fmt(vectors) -> str:
    return " ".join("(" + ",".join(str(x) for x in v) + ")" for v in vectors)


def render_table(slots, limit: int = 8) -> None:
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slots", dest="slots_path", default=None,
                        help="slots JSON file; default is the totally "
                             "ramified pair on four independent monomials")
    parser.add_argument("--limit", type=int, default=8,
                        help="rows to print, 0 for the full table")
    args = parser.parse_args()
    try:
        slots = _load_slots(args.slots_path)
    except (OSError, ValueError, RecursionError) as exc:
        # unreadable, not UTF-8, not JSON, or DomainError: not slots
        return _diagnose(2, "malformed-input", f"{args.slots_path}: {exc}")
    try:
        render_table(slots, args.limit)
    except DomainError as exc:
        return _diagnose(3, "domain", str(exc))
    return 0


def _diagnose(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}, sort_keys=True),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
