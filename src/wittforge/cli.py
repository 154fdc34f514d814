"""Command line surface: batch computation with machine-readable reports.

Every subcommand prints one JSON report to stdout with the same shape:
command echo, canonicalized inputs, outputs, verification flags, and a
timing slot that stays null unless --timing is passed, so identical inputs
give byte-identical reports.  Numbers that live in Q cross the boundary as
exact rational strings; dimensions, indices, counts and H^3 bits are JSON
integers; Brauer classes are lists of ramified places, real place first.

Exit codes: 0 success, 1 selftest failure, 2 unreadable or malformed
input, 3 mathematical domain error, 4 search bound exhausted, 5 a result
failed its verification or the computation broke unexpectedly (the
diagnostic says which: verification-failed or internal-error).  A reader
that closes stdout before the report ends (`| head -c 10`) cuts the report
short but leaves the exit code to the command, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import BoundExceeded, DomainError, require

__all__ = ["main"]

# Each handler imports the library modules it runs, so a cold command
# loads (and, without cached bytecode, compiles) only its own family:
# qf invariants and hyper-over load quadform, decompose12 and the alg
# commands invol12, val ramlattice, selftest sampling and the rest.


class _LoadError(Exception):
    """Input could not be read, parsed, or decoded into a domain object."""


def _read_source(path: str) -> str:
    # bytes decoded as UTF-8, the JSON encoding, whatever the locale
    try:
        if path == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
        return raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _LoadError(f"cannot read {path}: {exc}") from exc


def _load(path: str, decode):
    text = _read_source(path)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer literal past the interpreter's digit
        # limit for int(), or nesting deeper than the recursion limit
        raise _LoadError(f"{path}: not JSON: {exc}") from exc
    try:
        return decode(data)
    except DomainError as exc:
        raise _LoadError(f"{path}: {exc}") from exc


def _rational(text: str) -> Fraction:
    from .qarith import rational_from_json
    try:
        return rational_from_json(text)
    except DomainError as exc:
        raise _LoadError(f"not a rational number: {text!r}") from exc


def _symbol_pair(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _LoadError(f"expected 'a,b', got {text!r}")
    return _rational(parts[0]), _rational(parts[1])


# str() refuses an int past the interpreter's digit limit (4,300 by
# default), and a determinant class of a few large entries passes it; a
# report writes its ints in decimal chunks of this size instead
_CHUNK_DIGITS = 1000
_CHUNK = 10 ** _CHUNK_DIGITS


def _int_text(n: int) -> str:
    """The decimal text of an int of any size, as str(n) writes it."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    chunks = []
    rest = abs(n)
    while rest:
        rest, chunk = divmod(rest, _CHUNK)
        chunks.append(chunk)
    head, *tail = reversed(chunks)
    return ("-" if n < 0 else "") + str(head) + "".join(
        f"{chunk:0{_CHUNK_DIGITS}d}" for chunk in tail)


def _class_json(cls: BrauerClass) -> list[str]:
    return [v if isinstance(v, str) else _int_text(v) for v in cls.sort_key()]


def _report(command: str, inputs: dict, outputs: dict,
            checks: dict) -> dict:
    return {"command": command, "inputs": inputs, "outputs": outputs,
            "checks": checks, "timing_ms": None}


# --- qf ---------------------------------------------------------------------

def _cmd_qf_invariants(args) -> tuple[dict, int]:
    from . import quadform
    from .quadform import e1, e2, e3, signature, witt_index
    q = _load(args.form, quadform.from_json)
    det = e1(q)
    in_i2 = q.dim % 2 == 0 and det == 1
    cls = e2(q) if in_i2 else None
    in_i3 = in_i2 and cls.is_zero()
    outputs = {
        "dim": q.dim,
        "e1": _int_text(det),
        "e2": _class_json(cls) if in_i2 else None,
        "signature": signature(q),
        "witt_index": witt_index(q),
        "e3": e3(q).bit if in_i3 else None,
    }
    return _report("qf invariants", {"form": quadform.to_json(q)},
                   outputs, {}), 0


def _cmd_qf_decompose12(args) -> tuple[dict, int]:
    from . import invol12, quadform
    psi = _load(args.form, quadform.from_json)
    # decompose_split12 checks the reconstruction against psi before returning
    dec = invol12.decompose_split12(psi)
    outputs = {
        "d": _int_text(dec.d),
        "alphas": [str(a) for a in dec.alphas],
        "betas": [_int_text(b) for b in dec.betas],
    }
    checks = {"round_trip": True}
    return _report("qf decompose12", {"form": quadform.to_json(psi)},
                   outputs, checks), 0


def _cmd_qf_hyper_over(args) -> tuple[dict, int]:
    from . import quadform
    q = _load(args.form, quadform.from_json)
    d = _rational(args.d)
    out = quadform.is_hyperbolic_over(q, d)
    return _report("qf hyper-over",
                   {"form": quadform.to_json(q), "d": str(d)},
                   {"hyperbolic": out}, {}), 0


# --- alg --------------------------------------------------------------------

def _cmd_alg_f3(args) -> tuple[dict, int]:
    from . import invol12
    p = _load(args.presentation, invol12.presentation_from_json)
    via_norms = invol12.f3_via_norms(p)
    via_symbol = invol12.f3_via_symbol(p)
    outputs = {
        "f3_norms": via_norms.bit,
        "f3_symbol": via_symbol.bit,
        "f3": via_norms.bit,
        "agree": via_norms == via_symbol,
    }
    return _report("alg f3",
                   {"presentation": invol12.presentation_to_json(p)},
                   outputs, {}), 0


def _cmd_alg_exists(args) -> tuple[dict, int]:
    from . import invol12
    from .quat import algebra
    a1, b1 = _symbol_pair(args.h1)
    a2, b2 = _symbol_pair(args.h2)
    h1, h2 = algebra(a1, b1), algebra(a2, b2)
    outcome = invol12.exists_involution(h1, h2)
    pres = outcome.presentation
    outputs = {
        "status": outcome.status,
        "presentation": (invol12.presentation_to_json(pres)
                         if pres is not None else None),
    }
    checks = {"trivial_invariants": (invol12.has_trivial_invariants(pres)
                                     if pres is not None else None)}
    inputs = {"h1": [str(a1), str(b1)], "h2": [str(a2), str(b2)]}
    return _report("alg exists", inputs, outputs, checks), 0


def _cmd_alg_additive(args) -> tuple[dict, int]:
    from . import invol12
    p = _load(args.presentation, invol12.presentation_from_json)
    group = invol12.decomposition_group(p)
    pairs = zip(group[2::2], group[3::2])
    outputs = {
        "pairs": [[_class_json(h), _class_json(q)] for h, q in pairs],
        "group": [_class_json(c) for c in group],
    }
    checks = {"group_order": len(set(group))}
    return _report("alg additive",
                   {"presentation": invol12.presentation_to_json(p)},
                   outputs, checks), 0


# --- val --------------------------------------------------------------------

def _cmd_val_obstruction(args) -> tuple[dict, int]:
    from . import ramlattice
    slots = _load(args.slots, ramlattice.slots_from_json)
    rep = ramlattice.analyze_obstruction(slots)
    table = [{
        "s": [list(v) for v in check.splitting.s_gens()],
        "t": [list(v) for v in check.splitting.t_gens()],
        "intersection": [list(r) for r in check.intersection.rows],
        "separated": check.separated,
    } for check in rep.checks]
    outputs = {
        "obstructed": rep.obstructed,
        "split_factor": rep.split_factor,
        "splittings": len(rep.checks),
        "table": table,
    }
    return _report("val obstruction",
                   {"slots": ramlattice.slots_to_json(rep.slots)},
                   outputs, {}), 0


# where the val obstruction table sits while the rest of the report is
# encoded; no input or output string holds a NUL
_TABLE_SLOT = "\0table"


def _table_json(table: list[dict]) -> str:
    # the table as json.dumps(indent=2, sort_keys=True) writes it at its
    # depth in the report, for rows of the one shape the val handler
    # builds: sorted keys, each value a list of int vectors except the
    # "separated" flag
    def vectors(vecs):
        return ("[\n          [\n            "
                + "\n          ],\n          [\n            ".join(
                    ",\n            ".join(map(str, v)) for v in vecs)
                + "\n          ]\n        ]")
    rows = (f'      {{\n        "intersection": {vectors(row["intersection"])}'
            f',\n        "s": {vectors(row["s"])}'
            f',\n        "separated": {"true" if row["separated"] else "false"}'
            f',\n        "t": {vectors(row["t"])}\n      }}'
            for row in table)
    return "[\n" + ",\n".join(rows) + "\n    ]"


def _encode(report: dict) -> str:
    """The report as json.dumps(report, indent=2, sort_keys=True) writes it.

    With indent set, json runs its pure-Python encoder, which spends more
    than the whole certification on the ~450 KB val obstruction table; so
    the table is written by _table_json and spliced in.
    """
    table = report["outputs"].get("table")
    if not table:
        return json.dumps(report, indent=2, sort_keys=True)
    slotted = {**report,
               "outputs": {**report["outputs"], "table": _TABLE_SLOT}}
    text = json.dumps(slotted, indent=2, sort_keys=True)
    return text.replace(json.dumps(_TABLE_SLOT), _table_json(table), 1)


# --- selftest ---------------------------------------------------------------

def _suite_reciprocity(rng: Random, count: int) -> int:
    from . import sampling
    from .qarith import ramified_places
    for _ in range(count):
        a = sampling.nonzero_int(rng, 10 ** 4)
        b = sampling.nonzero_int(rng, 10 ** 4)
        require(len(ramified_places(a, b)) % 2 == 0, (a, b))
    return count


def _suite_witt_identity(rng: Random, count: int) -> int:
    from . import sampling
    from .quadform import direct_sum, pfister, scale, witt_equivalent
    for _ in range(count):
        lam, mu, nu = (sampling.square_class(rng) for _ in range(3))
        lhs = pfister(lam, mu * nu)
        rhs = direct_sum(pfister(lam, mu), scale(mu, pfister(lam, nu)))
        require(witt_equivalent(lhs, rhs), (lam, mu, nu))
    return count


def _suite_hermitian_disc(rng: Random, count: int) -> int:
    from . import hermitian, sampling
    from .quadform import e1
    for _ in range(count):
        alg = sampling.split_algebra(rng)
        form = sampling.random_skew_form(rng, alg, rng.randrange(1, 4))
        quad = hermitian.to_quadratic_form(form)
        require(hermitian.disc_adjoint(form) == e1(quad), form)
    return count


def _suite_decompose12(rng: Random, count: int) -> int:
    from . import invol12, sampling
    cases = max(1, count // 10)
    for _ in range(cases):
        psi, _, _ = sampling.split12_instance(rng)
        # raises AssertionError unless the reconstruction is isometric to psi
        invol12.decompose_split12(psi)
    return cases


def _suite_obstruction(rng: Random, count: int) -> int:
    from . import ramlattice
    slots = (((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1)))
    require(ramlattice.obstruction_check(slots))
    return 1


_SUITES = (
    ("reciprocity", _suite_reciprocity),
    ("witt-identity", _suite_witt_identity),
    ("hermitian-disc", _suite_hermitian_disc),
    ("decompose12", _suite_decompose12),
    ("obstruction", _suite_obstruction),
)


def _cmd_selftest(args) -> tuple[dict, int]:
    from random import Random
    suites = {}
    failed = False
    for name, run in _SUITES:
        # one independent stream per suite keeps results stable when
        # individual suites change their draw counts
        rng = Random(f"{args.seed}:{name}")
        try:
            cases = run(rng, args.count)
            suites[name] = {"cases": cases, "ok": True}
        except AssertionError as exc:
            failed = True
            suites[name] = {"cases": None, "ok": False,
                            "detail": repr(exc.args[0]) if exc.args else ""}
    report = _report("selftest", {"seed": args.seed, "count": args.count},
                     {"suites": suites, "ok": not failed}, {})
    return report, 1 if failed else 0


# --- driver -----------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    # a usage error, in the subcommand parsers too, is malformed input
    def error(self, message):
        raise SystemExit(_diagnose(2, "malformed-input", message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wittforge",
        description="Exact invariants of quadratic forms and degree 12 "
                    "involutions over Q.")
    parser.add_argument("--timing", action="store_true",
                        help="fill the timing_ms report field (off by "
                             "default so reports are reproducible)")
    sub = parser.add_subparsers(dest="command", required=True)

    qf = sub.add_parser("qf", help="quadratic forms over Q")
    qf_sub = qf.add_subparsers(dest="subcommand", required=True)
    p = qf_sub.add_parser("invariants",
                          help="dim, e1, e2, signature, Witt index, e3")
    p.add_argument("form", help="form JSON file, or - for stdin")
    p.set_defaults(handler=_cmd_qf_invariants)
    p = qf_sub.add_parser("decompose12",
                          help="three Pfister blocks times a common <<d>>")
    p.add_argument("form", help="form JSON file, or - for stdin")
    p.set_defaults(handler=_cmd_qf_decompose12)
    p = qf_sub.add_parser("hyper-over",
                          help="does the form become hyperbolic over "
                               "Q(sqrt(d))")
    p.add_argument("form", help="form JSON file, or - for stdin")
    p.add_argument("--d", required=True, help="square class, e.g. 5 or -1")
    p.set_defaults(handler=_cmd_qf_hyper_over)

    alg = sub.add_parser("alg", help="degree 12 algebras with involution")
    alg_sub = alg.add_subparsers(dest="subcommand", required=True)
    p = alg_sub.add_parser("f3", help="f3 by both routes plus agreement")
    p.add_argument("presentation", help="presentation JSON file, or -")
    p.set_defaults(handler=_cmd_alg_f3)
    p = alg_sub.add_parser("exists",
                           help="search for an involution with trivial "
                                "e1, e2 on M3(h1 x h2)")
    p.add_argument("--h1", required=True, metavar="a,b",
                   help="first quaternion algebra (a,b)")
    p.add_argument("--h2", required=True, metavar="a,b",
                   help="second quaternion algebra (a,b)")
    p.set_defaults(handler=_cmd_alg_exists)
    p = alg_sub.add_parser("additive",
                           help="the (H_i, Q_i) pairs and their group")
    p.add_argument("presentation", help="presentation JSON file, or -")
    p.set_defaults(handler=_cmd_alg_additive)

    val = sub.add_parser("val", help="value groups of ramified symbols")
    val_sub = val.add_subparsers(dest="subcommand", required=True)
    p = val_sub.add_parser("obstruction",
                           help="no splitting separates the two factors")
    p.add_argument("slots", help="slots JSON file, or - for stdin")
    p.set_defaults(handler=_cmd_val_obstruction)

    p = sub.add_parser("selftest", help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=25)
    p.set_defaults(handler=_cmd_selftest)
    return parser


def _diagnose(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}, sort_keys=True),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = args.handler(args)
    except _LoadError as exc:
        return _diagnose(2, "malformed-input", str(exc))
    except DomainError as exc:
        return _diagnose(3, "domain", str(exc))
    except BoundExceeded as exc:
        return _diagnose(4, "bound-exceeded", str(exc))
    except AssertionError as exc:
        return _diagnose(5, "verification-failed", str(exc))
    except Exception as exc:
        return _diagnose(5, "internal-error", f"{type(exc).__name__}: {exc}")
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - start) * 1000)
    try:
        print(_encode(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; devnull takes the interpreter's last flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
