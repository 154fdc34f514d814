"""End to end runs of the command line driver.

Everything is asserted through json.loads on captured stdout, never by eye:
the contract is byte-identical reports for identical inputs (sorted keys,
timing null unless --timing), machine-readable diagnostics on stderr, and
the exit codes 0 success / 1 selftest failure / 2 malformed input /
3 domain error / 4 bound exhausted / 5 failed verification or internal
error.
"""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

from wittforge import (cohomology, invol12, qarith, quadform, ramlattice,
                       sampling)
from wittforge.cli import main
from wittforge.errors import DomainError

TOTALLY_RAMIFIED_SLOTS = {"slots": [[[1, 0, 0, 0], [0, 1, 0, 0]],
                                    [[0, 0, 1, 0], [0, 0, 0, 1]]]}

# <<5>> tensor <29, -18, 44, -5, 38, 44>, a valid decompose12 input
SPLIT12_ENTRIES = [29, -145, -18, 90, 44, -220, -5, 25, 38, -190, 44, -220]


ROOT = Path(__file__).resolve().parents[1]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _form_file(tmp_path, entries) -> str:
    return _write(tmp_path, "form.json",
                  {"entries": [str(e) for e in entries]})


def test_invariants_of_the_hyperbolic_plane(tmp_path, capsys):
    code, out, err = _run(capsys, "qf", "invariants",
                          _form_file(tmp_path, [1, -1]))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["command"] == "qf invariants"
    assert report["outputs"] == {"dim": 2, "e1": "1", "e2": [],
                                 "signature": 0, "witt_index": 1, "e3": 0}
    assert report["timing_ms"] is None


def test_e2_is_null_outside_i2(tmp_path, capsys):
    # odd dimension
    code, out, _ = _run(capsys, "qf", "invariants",
                        _form_file(tmp_path, [1, 1, 1]))
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["e2"] is None and outputs["e3"] is None
    # even dimension but e1 = -1
    code, out, _ = _run(capsys, "qf", "invariants",
                        _form_file(tmp_path, [1, 1]))
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["e1"] == "-1"
    assert outputs["e2"] is None and outputs["e3"] is None


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    path = _form_file(tmp_path, [3, -5, 7, -11])
    _, first, _ = _run(capsys, "qf", "invariants", path)
    _, second, _ = _run(capsys, "qf", "invariants", path)
    assert first == second
    # and canonically serialized: sorted keys, indent 2
    assert first == json.dumps(json.loads(first), indent=2,
                               sort_keys=True) + "\n"


def test_timing_flag_fills_the_slot(tmp_path, capsys):
    code, out, _ = _run(capsys, "--timing", "qf", "invariants",
                        _form_file(tmp_path, [1, -1]))
    assert code == 0
    timing = json.loads(out)["timing_ms"]
    assert isinstance(timing, int) and timing >= 0


def test_form_on_stdin(monkeypatch, capsys):
    raw = json.dumps({"entries": ["1", "-1"]}).encode()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
    code, out, _ = _run(capsys, "qf", "invariants", "-")
    assert code == 0
    assert json.loads(out)["outputs"]["witt_index"] == 1


def test_decompose12_round_trips(tmp_path, capsys):
    code, out, _ = _run(capsys, "qf", "decompose12",
                        _form_file(tmp_path, SPLIT12_ENTRIES))
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["round_trip"] is True
    assert len(report["outputs"]["alphas"]) == 3
    assert len(report["outputs"]["betas"]) == 3
    int(report["outputs"]["d"])  # a square class, not a float


def test_decompose12_rejects_wrong_dimension(tmp_path, capsys):
    code, out, err = _run(capsys, "qf", "decompose12",
                          _form_file(tmp_path, [1, -1]))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "domain"


def test_hyper_over_quadratic_extension(tmp_path, capsys):
    path = _form_file(tmp_path, [1, -5])
    code, out, _ = _run(capsys, "qf", "hyper-over", path, "--d", "5")
    assert code == 0 and json.loads(out)["outputs"]["hyperbolic"] is True
    code, out, _ = _run(capsys, "qf", "hyper-over", path, "--d", "2")
    assert code == 0 and json.loads(out)["outputs"]["hyperbolic"] is False


def test_exists_witness_chains_into_f3(tmp_path, capsys):
    # dashes in the slot need the = form, which argparse accepts
    code, out, _ = _run(capsys, "alg", "exists", "--h1=-1,-1", "--h2=2,3")
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["status"] == "witness"
    assert report["checks"]["trivial_invariants"] is True
    pres = _write(tmp_path, "pres.json", report["outputs"]["presentation"])

    code, out, _ = _run(capsys, "alg", "f3", pres)
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["agree"] is True
    assert outputs["f3"] == outputs["f3_norms"] == outputs["f3_symbol"] == 0

    code, out, _ = _run(capsys, "alg", "additive", pres)
    assert code == 0
    report = json.loads(out)
    # always the eight classes {0, [A], H_i, Q_i}; distinct count varies
    group = report["outputs"]["group"]
    assert len(group) == 8
    assert report["checks"]["group_order"] == len({tuple(c) for c in group})
    for h_cls, q_cls in report["outputs"]["pairs"]:
        assert isinstance(h_cls, list) and isinstance(q_cls, list)


def test_obstruction_on_totally_ramified_slots(tmp_path, capsys):
    path = _write(tmp_path, "slots.json", TOTALLY_RAMIFIED_SLOTS)
    code, out, _ = _run(capsys, "val", "obstruction", path)
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["obstructed"] is True
    assert outputs["split_factor"] is False
    assert outputs["splittings"] == 560 == len(outputs["table"])
    row = outputs["table"][0]
    assert set(row) == {"s", "t", "intersection", "separated"}
    # obstruction means every candidate splitting fails the value test
    assert all(r["separated"] is True for r in outputs["table"])
    # the table has its own writer; the bytes are json.dumps's all the same
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_obstruction_reports_a_split_factor(tmp_path, capsys):
    slots = {"slots": [[[0, 0, 0, 0], [0, 1, 0, 0]],
                       [[0, 0, 1, 0], [0, 0, 0, 1]]]}
    path = _write(tmp_path, "slots.json", slots)
    code, out, _ = _run(capsys, "val", "obstruction", path)
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["split_factor"] is True
    assert outputs["obstructed"] is False
    assert outputs["table"] == []


def test_obstruction_rejects_dependent_monomials(tmp_path, capsys):
    slots = {"slots": [[[1, 0, 0, 0], [0, 1, 0, 0]],
                       [[1, 0, 0, 0], [0, 1, 0, 0]]]}
    path = _write(tmp_path, "slots.json", slots)
    code, out, err = _run(capsys, "val", "obstruction", path)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "domain"


@pytest.mark.parametrize("slots", [
    [1, 2], [[1, 2], [3, 4]], [[None, [0, 1, 0, 0]], [[0, 0, 1, 0], True]],
    [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], 1.5]], "ab"])
def test_obstruction_rejects_wrong_typed_slots(tmp_path, capsys, slots):
    # a number, null or bool where a list belongs is malformed input
    path = _write(tmp_path, "slots.json", {"slots": slots})
    code, out, err = _run(capsys, "val", "obstruction", path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed-input"


# a split degree 6 presentation; EXISTS_PRESENTATION below is a hermitian one
_SPLIT_PAYLOAD = {
    "a0": {"split": {"entries": ["3", "-6", "-5", "-55", "7", "154"]}},
    "h": {"alg": {"a": "-3", "b": "-7"},
          "i": {"alg": {"a": "-3", "b": "-7"},
                "coords": ["0", "1", "2", "-1"]}}}


def _loaders():
    return {
        "form": (quadform.from_json, {"entries": ["3", "-1/2", "5"]}),
        "m3h": (invol12.presentation_from_json, EXISTS_PRESENTATION),
        "split": (invol12.presentation_from_json, _SPLIT_PAYLOAD),
        "slots": (ramlattice.slots_from_json, TOTALLY_RAMIFIED_SLOTS),
    }


def _paths(data, prefix=()):
    # the path of every value in a JSON tree, the root included
    yield prefix
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(data, path, value):
    if not path:
        return value
    copy = dict(data) if isinstance(data, dict) else list(data)
    copy[path[0]] = _replaced(data[path[0]], path[1:], value)
    return copy


@pytest.mark.parametrize("bad", [None, True, 0, 1.5, "", "x", [], [1, 2], {},
                                 [[1, 2], [3, 4]]], ids=repr)
@pytest.mark.parametrize("kind", ["form", "m3h", "split", "slots"])
def test_loaders_raise_only_domain_errors(kind, bad):
    # whatever value sits at whatever path of a valid payload, a loader
    # answers or raises DomainError, which the driver maps to exit 2
    load, payload = _loaders()[kind]
    load(payload)
    for path in _paths(payload):
        try:
            load(_replaced(payload, path, bad))
        except DomainError:
            pass


def _env(**env_overrides) -> dict:
    # the package from this checkout first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    for name, value in env_overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _python(*args, stdin="", **env_overrides):
    # a fresh interpreter
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=_env(**env_overrides), input=stdin,
                          capture_output=True, text=True, timeout=60)


def test_closed_stdout_keeps_the_exit_code(tmp_path):
    # `wittforge val obstruction slots.json | head -c 10`: the reader
    # leaves after 10 bytes of a report far larger than the pipe buffer
    path = _write(tmp_path, "slots.json", TOTALLY_RAMIFIED_SLOTS)
    proc = subprocess.Popen(
        [sys.executable, "-m", "wittforge.cli", "val", "obstruction", path],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head == b'{\n  "check'
    assert err == b""


def _stdout(*args, stdin=""):
    proc = _python(*args, stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_obstruction_table_survives_python_O():
    # no work a report needs may sit inside an assert
    slots = json.dumps(TOTALLY_RAMIFIED_SLOTS)
    for args, stdin in (
            (["-m", "wittforge.cli", "val", "obstruction", "-"], slots),
            ([str(ROOT / "scripts" / "obstruction_table.py"),
              "--limit", "0"], "")):
        plain = _stdout(*args, stdin=stdin)
        assert plain.count("separated") >= 560
        assert _stdout("-O", *args, stdin=stdin) == plain
    args = ["-m", "wittforge.cli", "selftest", "--seed", "3", "--count", "5"]
    plain = _stdout(*args)
    assert json.loads(plain)["outputs"]["ok"] is True
    assert _stdout("-O", *args) == plain


def _cold_modules(*argv) -> set[str]:
    # the modules a fresh interpreter holds after running one command
    script = ("import json, os, sys\n"
              "from wittforge.cli import main\n"
              "out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
              "code = main(sys.argv[1:])\n"
              "out.write(json.dumps([code, sorted(sys.modules)]))\n")
    proc = _python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    return set(modules)


def test_qf_invariants_loads_only_quadform(tmp_path):
    loaded = _cold_modules("qf", "invariants",
                           _form_file(tmp_path, [1, 2, -3]))
    assert "wittforge.quadform" in loaded
    for name in ("invol12", "hermitian", "quat", "ramlattice", "sampling"):
        assert f"wittforge.{name}" not in loaded, name


def test_val_obstruction_loads_only_ramlattice(tmp_path):
    loaded = _cold_modules("val", "obstruction", _write(
        tmp_path, "slots.json", TOTALLY_RAMIFIED_SLOTS))
    ours = {m for m in loaded if m.startswith("wittforge")}
    # ramlattice and errors, plus what those two import
    assert ours == {"wittforge", "wittforge.cli", "wittforge.errors",
                    "wittforge.ramlattice", "wittforge._record"}


def test_no_command_loads_dataclasses(tmp_path):
    # dataclasses pulls in inspect, ast and dis: more start-up than the
    # arithmetic of most commands
    slots = _write(tmp_path, "slots.json", TOTALLY_RAMIFIED_SLOTS)
    pres = _write(tmp_path, "pres.json", EXISTS_PRESENTATION)
    form = _form_file(tmp_path, SPLIT12_ENTRIES)
    for argv in (["qf", "invariants", form], ["qf", "decompose12", form],
                 ["qf", "hyper-over", form, "--d", "5"],
                 ["alg", "exists", "--h1=-1,-1", "--h2=2,3"],
                 ["alg", "f3", pres], ["alg", "additive", pres],
                 ["val", "obstruction", slots],
                 ["selftest", "--count", "1"]):
        loaded = _cold_modules(*argv)
        assert "dataclasses" not in loaded and "inspect" not in loaded, argv


def test_missing_file_is_malformed_input(capsys):
    code, out, err = _run(capsys, "qf", "invariants", "/no/such/file.json")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed-input"


def test_broken_json_is_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = _run(capsys, "qf", "invariants", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed-input"


def test_deep_json_is_malformed_input(tmp_path, capsys):
    # nesting past the recursion limit stops the JSON decoder
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = _run(capsys, "qf", "invariants", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed-input"


def test_non_utf8_input_is_malformed_input(tmp_path, capsys, monkeypatch):
    # a file and stdin are read as bytes and decoded as UTF-8 alike, also
    # where the locale would let stdin smuggle the bytes in as surrogates
    raw = b'\xff\xfe{"entries": [1]}'
    path = tmp_path / "form.json"
    path.write_bytes(raw)
    code, out, err = _run(capsys, "qf", "invariants", str(path))
    assert code == 2 and out == ""
    from_file = json.loads(err)
    assert from_file["error"] == "malformed-input"
    for errors in ("strict", "surrogateescape"):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(raw), encoding="utf-8", errors=errors))
        code, out, err = _run(capsys, "qf", "invariants", "-")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "malformed-input",
            "message": from_file["message"].replace(str(path), "-")}


def test_bad_rational_is_malformed_input(tmp_path, capsys):
    path = _form_file(tmp_path, [1, -5])
    code, out, err = _run(capsys, "qf", "hyper-over", path, "--d", "sqrt2")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed-input"


def test_json_floats_are_malformed_input(tmp_path, capsys):
    # 1.1 is not 11/10 in binary; only strings and integers are exact
    path = _write(tmp_path, "form.json", {"entries": [1.1, 1]})
    code, out, err = _run(capsys, "qf", "invariants", path)
    assert code == 2 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "malformed-input"
    assert "float" in diagnostic["message"]
    pres = {"a0": {"split": {"entries": ["1"] * 6}},
            "h": {"alg": {"a": -1.0, "b": "-1"},
                  "i": {"alg": {"a": "-1", "b": "-1"},
                        "coords": ["0", "1", "0", "0"]}}}
    code, out, err = _run(capsys, "alg", "f3",
                          _write(tmp_path, "pres.json", pres))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed-input"
    # integers stay exact and are accepted as before
    code, out, _ = _run(capsys, "qf", "invariants",
                        _write(tmp_path, "ints.json", {"entries": [1, -1]}))
    assert code == 0 and json.loads(out)["outputs"]["witt_index"] == 1


def test_oversized_entries_are_malformed_input(tmp_path, capsys):
    # refused before the exact number is built, so they fail fast
    oversized = ({"entries": ["1e400000", "1"]},
                 {"entries": ["1", "9" * 1001]},
                 {"entries": [10 ** 1000, 1]})
    for payload in oversized:
        start = time.perf_counter()
        code, out, err = _run(capsys, "qf", "invariants",
                              _write(tmp_path, "big.json", payload))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "malformed-input"
    path = _form_file(tmp_path, [1, -5])
    for argv in (["qf", "hyper-over", path, "--d", "5e-400000"],
                 ["alg", "exists", "--h1=-1,1e400000", "--h2=2,3"]):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
    # an integer literal past int()'s digit limit is no JSON the
    # loader can read
    path = tmp_path / "long.json"
    path.write_text('{"entries": [1' + "0" * 5000 + ', 1]}')
    code, out, err = _run(capsys, "qf", "invariants", str(path))
    assert code == 2 and json.loads(err)["error"] == "malformed-input"


def test_square_of_a_large_prime_entry(tmp_path, capsys):
    # 1000003^2 leaves a cofactor above the trial division bound that is
    # the square of a prime, so its square class is 1
    code, out, _ = _run(capsys, "qf", "invariants",
                        _form_file(tmp_path, [1000003 ** 2, 1]))
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["e1"] == "-1" and outputs["witt_index"] == 0


def test_bad_symbol_pair_is_malformed_input(capsys):
    code, out, err = _run(capsys, "alg", "exists", "--h1=-1", "--h2=2,3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed-input"


def test_factoring_failure_is_bound_exceeded(tmp_path, capsys):
    # two primes just above the trial division bound
    code, out, err = _run(capsys, "qf", "invariants",
                          _form_file(tmp_path, [1000003 * 1000033, 1]))
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "bound-exceeded"


def test_large_primes_over_each_other(tmp_path, capsys):
    # the same two primes as numerator and denominator: each is factored
    # on its own, and the places are read off those factorizations rather
    # than off the class 1000036000099 they multiply to
    code, out, err = _run(capsys, "qf", "invariants",
                          _form_file(tmp_path, ["1000003/1000033", "1"]))
    assert code == 0 and err == ""
    outputs = json.loads(out)["outputs"]
    assert outputs["e1"] == "-1000036000099" and outputs["witt_index"] == 0


def test_exists_budget_while_checking_the_witness_is_unknown(capsys):
    # the witness is found, but checking it takes the class of d0, and
    # the numerator of one reduced norm leaves the cofactor
    # 6286199513399716467911, two primes past the trial division bound
    code, out, err = _run(capsys, "alg", "exists", "--h1=-1581,2158",
                          "--h2=-2310,-1672")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["outputs"] == {"status": "unknown", "presentation": None}
    assert report["checks"] == {"trivial_invariants": None}


def test_exists_checks_a_witness_with_a_large_fraction_in_d(capsys):
    # d = i^2 is a fraction whose numerator times denominator has 28
    # digits, past the proven Miller-Rabin range; its numerator and
    # denominator are factored apart, so the witness is checked
    code, out, err = _run(capsys, "alg", "exists", "--h1=15,-46",
                          "--h2=14,-33")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["outputs"]["status"] == "witness"
    assert report["checks"] == {"trivial_invariants": True}


def test_exists_with_a_fraction_slot_chains_into_f3(tmp_path, capsys,
                                                     monkeypatch):
    # the class 1000036000099 of 1000003/1000033 is past trial division;
    # the isotropy search and the Brauer symbols read their places off the
    # slots, so the witness is found and checked and f3 answers
    seen, factor = [], qarith.factor
    for module in (qarith, cohomology):
        monkeypatch.setattr(module, "factor", lambda n: (
            seen.append(n) if n == 1000036000099 else None) or factor(n))
    code, out, err = _run(capsys, "alg", "exists",
                          "--h1=1000003/1000033,-30", "--h2=5,-7")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["outputs"]["status"] == "witness"
    assert report["checks"] == {"trivial_invariants": True}
    pres = _write(tmp_path, "pres.json", report["outputs"]["presentation"])
    code, out, err = _run(capsys, "alg", "f3", pres)
    assert code == 0 and err == "" and json.loads(out)["outputs"]["agree"]
    assert seen == []


def test_additive_on_a_witness_with_a_fraction_slot(tmp_path, capsys):
    # H_i = (a_i, d) + (d, d0) by bilinearity, with (a_i, d) read off the
    # rational q_i^2: the class 1000036000099 of a_i d0 is never built,
    # so the command answers instead of exiting 4 on that cofactor
    code, out, _ = _run(capsys, "alg", "exists",
                        "--h1=1000003/1000033,-30", "--h2=5,-7")
    assert code == 0
    pres = _write(tmp_path, "pres.json",
                  json.loads(out)["outputs"]["presentation"])
    start = time.perf_counter()
    code, out, err = _run(capsys, "alg", "additive", pres)
    assert time.perf_counter() - start < 2.0
    assert code == 0 and err == ""
    report = json.loads(out)
    assert len(report["outputs"]["group"]) == 8
    assert report["checks"]["group_order"] == 4


def _odd_prime_runs(runs: int, digits: int) -> list[int]:
    # products of consecutive odd primes from 3, each run cut as soon as
    # its product passes `digits` digits
    limit = 20000
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    primes = iter(p for p in range(3, limit) if sieve[p])
    out = []
    for _ in range(runs):
        product = 1
        while product < 10 ** digits:
            product *= next(primes)
        out.append(product)
    return out


def test_e1_past_the_str_digit_limit_is_written_in_full(tmp_path, capsys):
    # five ~993-digit entries over distinct primes up to 11,587: the
    # determinant class is their ~4,960-digit product, past the 4,300
    # digits str() converts
    entries = _odd_prime_runs(5, 990)
    path = _form_file(tmp_path, entries)
    start = time.perf_counter()
    code, out, err = _run(capsys, "qf", "invariants", path)
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""
    outputs = json.loads(out)["outputs"]
    text = outputs.pop("e1")
    assert outputs == {"dim": 5, "e2": None, "signature": 5,
                       "witt_index": 0, "e3": None}
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    product = 1
    for e in entries:
        product *= e
    assert len(text) > 4300 and text[0] != "0" and value == product


def test_invariants_prove_no_place_prime_twice(tmp_path, capsys,
                                               monkeypatch):
    # Legendre symbols at places from factor skip the primality test;
    # only factor itself calls it
    from wittforge import qarith
    callers = []
    prime = qarith.is_prime
    monkeypatch.setattr(qarith, "is_prime", lambda n: callers.append(
        sys._getframe(1).f_code.co_name) or prime(n))
    entries = [999_983, -999_979, 999_961, 999_959 * 2, -999_953 * 3,
               999_931, 999_907 * 5, -999_883, 999_863, 999_853, 1, -7]
    code, out, _ = _run(capsys, "qf", "invariants",
                        _form_file(tmp_path, entries))
    assert code == 0
    assert set(callers) <= {"factor"}


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["qf", "frobnicate"])
    assert exc.value.code == 2


def test_usage_errors_print_one_diagnostic(tmp_path, capsys):
    # argparse reads "-3/4" after --d as an option, so the value is
    # missing: a malformed input, reported like any other; the = form
    # passes a negative value
    path = _form_file(tmp_path, [1, -1])
    with pytest.raises(SystemExit) as exc:
        main(["qf", "hyper-over", path, "--d", "-3/4"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    diagnostic = json.loads(captured.err)
    assert diagnostic["error"] == "malformed-input"
    assert set(diagnostic) == {"error", "message"}
    code, out, err = _run(capsys, "qf", "hyper-over", path, "--d=-3/4")
    assert code == 0 and err == ""
    assert json.loads(out)["inputs"]["d"] == "-3/4"


def test_selftest_is_deterministic(capsys):
    code, first, _ = _run(capsys, "selftest", "--seed", "3", "--count", "5")
    assert code == 0
    code, second, _ = _run(capsys, "selftest", "--seed", "3", "--count", "5")
    assert code == 0
    assert first == second
    outputs = json.loads(first)["outputs"]
    assert outputs["ok"] is True
    assert all(suite["ok"] for suite in outputs["suites"].values())
    assert set(outputs["suites"]) == {"reciprocity", "witt-identity",
                                      "hermitian-disc", "decompose12",
                                      "obstruction"}


def test_selftest_refuses_counts_below_1(capsys):
    for count in ("-3", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--count", count])
        assert exc.value.code == 2
        assert "--count: must be at least 1" in capsys.readouterr().err


def test_selftest_count_diagnostic_names_no_function(capsys):
    # a count that is not an integer: one JSON diagnostic, which does not
    # name the private type function argparse called
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--count", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "malformed-input",
        "message": "argument --count: must be an integer, got 'x'"}
    assert "_positive_int" not in captured.err


def test_obstruction_table_script_exit_codes(tmp_path):
    # as for val obstruction: one JSON diagnostic, nothing on stdout
    dependent = {"slots": [[[1, 0, 0, 0], [0, 1, 0, 0]],
                           [[1, 0, 0, 0], [0, 1, 0, 0]]]}
    (tmp_path / "broken.json").write_text("{\"slots\": [")
    cases = (
        (str(tmp_path / "missing.json"), 2, "malformed-input"),
        (str(tmp_path / "broken.json"), 2, "malformed-input"),
        (_write(tmp_path, "typed.json", {"slots": [1, 2]}), 2,
         "malformed-input"),
        (_write(tmp_path, "dependent.json", dependent), 3, "domain"),
    )
    script = str(ROOT / "scripts" / "obstruction_table.py")
    for path, code, kind in cases:
        proc = _python(script, "--slots", path)
        assert (proc.returncode, proc.stdout) == (code, ""), path
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"] == kind


def test_f3_survey_refuses_bounds_below_its_range():
    # --coeff-bound 0 used to spin in nonzero_int, a negative one to
    # traceback; both, and a negative --trials, are usage errors
    script = str(ROOT / "scripts" / "f3_survey.py")
    for flag, value, low in (("--coeff-bound", "0", 1),
                             ("--coeff-bound", "-4", 1),
                             ("--trials", "-1", 0)):
        proc = _python(script, flag, value)
        assert (proc.returncode, proc.stdout) == (2, ""), flag
        assert f"{flag}: must be at least {low}, got {value}" in proc.stderr


def test_nonzero_int_refuses_a_bound_below_1():
    for bound in (0, -3):
        with pytest.raises(DomainError):
            sampling.nonzero_int(Random(0), bound)
    assert sampling.nonzero_int(Random(0), 1) in (-1, 1)


def test_selftest_fails_under_python_O():
    # a broken invariant must fail the suite even with asserts stripped
    script = ("import sys\n"
              "import wittforge.quadform as qf\n"
              "from wittforge.cli import main\n"
              "qf.witt_equivalent = lambda q1, q2: False\n"
              "sys.exit(main(['selftest', '--seed', '0']))\n")
    proc = _python("-O", "-c", script)
    assert proc.returncode == 1, proc.stderr
    outputs = json.loads(proc.stdout)["outputs"]
    assert outputs["ok"] is False
    assert outputs["suites"]["witt-identity"]["ok"] is False
    assert outputs["suites"]["reciprocity"]["ok"] is True


def test_witness_check_survives_python_O():
    # a wrong vector from the search must not escape isotropic_vector
    # even with asserts stripped
    script = ("import wittforge.quadform as qf\n"
              "qf._int_isotropic = lambda s, places: (1,) * len(s)\n"
              "try:\n"
              "    qf.isotropic_vector(qf.diagonal(1, -1, 3))\n"
              "except AssertionError:\n"
              "    print('refused')\n")
    proc = _python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


def test_represented_value_check_survives_python_O():
    # a wrong vector from isotropic_vector must not escape represent_value
    # through its integer check q(w) = c t^2, even with asserts stripped
    script = ("from fractions import Fraction\n"
              "import wittforge.quadform as qf\n"
              "qf.isotropic_vector = lambda q: (Fraction(1),) * q.dim\n"
              "try:\n"
              "    qf.represent_value(qf.diagonal(1, 1), 3)\n"
              "except AssertionError:\n"
              "    print('refused')\n")
    proc = _python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


def test_kernel_check_survives_python_O():
    # a built kernel with the wrong Clifford class, or with an entry that
    # is not squarefree (<2, 3, 20> is isometric to <2, 3, 5>), must not
    # escape witt_decompose even with asserts stripped; nor may the symbol
    # solve answer for a slot with a prime outside the places it is given
    script = ("import wittforge.quadform as qf\n"
              "from wittforge.cohomology import ZERO, second_slot\n"
              "for wrong in ((1, 2, 15), (2, 3, 20)):\n"
              "    kernel = qf.diagonal(*wrong)\n"
              "    qf._anisotropic_rep = lambda inv, at: (kernel, at)\n"
              "    try:\n"
              "        qf.witt_decompose(qf.diagonal(2, 3, 5))\n"
              "    except AssertionError:\n"
              "        print('refused')\n"
              "try:\n"
              "    second_slot(15, ZERO, [2, 3, 'real'])\n"
              "except AssertionError:\n"
              "    print('refused')\n")
    proc = _python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n" * 3


def test_transport_check_survives_python_O():
    # a block off the line of w (g patched out of He), or a block with
    # ac - b^2 = 0 (an entry of reduced norm 0, set past the constructor),
    # must not escape to_quadratic_form even with asserts stripped
    script = ("import wittforge.hermitian as hm\n"
              "from wittforge._record import set_field\n"
              "from wittforge.quat import algebra, pure\n"
              "h = algebra(1, 1)\n"
              "basis = hm._split_module_basis\n"
              "singular = hm.skew_form(h, h.i())\n"
              "set_field(singular, 'entries', (pure(h, 1, 0, 1),))\n"
              "for patched, form in (\n"
              "        (lambda alg: (basis(alg)[0], alg.j()),\n"
              "         hm.skew_form(h, h.i())), (basis, singular)):\n"
              "    hm._split_module_basis = patched\n"
              "    try:\n"
              "        hm.to_quadratic_form(form)\n"
              "    except AssertionError:\n"
              "        print('refused')\n")
    proc = _python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n" * 2


def test_decompose12_check_survives_python_O():
    # a reconstruction that fails its isometry check must not escape
    # decompose_split12 even with asserts stripped
    script = ("import wittforge.invol12 as invol12\n"
              "from wittforge.quadform import hyperbolic\n"
              "invol12.isometric = lambda q1, q2: False\n"
              "try:\n"
              "    invol12.decompose_split12(hyperbolic(6))\n"
              "except AssertionError:\n"
              "    print('refused')\n")
    proc = _python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


def test_pure_value_check_survives_python_O():
    # a pure quaternion whose value lands in Gamma_F would share norm
    # values with the other factor: the obstruction table must not be
    # built on it, even with asserts stripped
    script = ("import wittforge.ramlattice as rl\n"
              "rl.armature_valuation = lambda coeffs, basis: (2, 0, 0, 0)\n"
              "try:\n"
              "    rl.analyze_obstruction([[(1, 0, 0, 0), (0, 1, 0, 0)],\n"
              "                            [(0, 0, 1, 0), (0, 0, 0, 1)]])\n"
              "except AssertionError:\n"
              "    print('refused')\n")
    proc = _python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


def test_failed_verification_exits_5():
    # the same refusal through the driver: a diagnostic, not a traceback
    script = ("import sys\n"
              "import wittforge.invol12 as invol12\n"
              "from wittforge.cli import main\n"
              "invol12.isometric = lambda q1, q2: False\n"
              "sys.exit(main(['qf', 'decompose12', '-']))\n")
    form = json.dumps({"entries": ["1", "-1"] * 6})
    proc = _python("-O", "-c", script, stdin=form)
    assert proc.returncode == 5 and proc.stdout == ""
    diagnostic = json.loads(proc.stderr)
    assert diagnostic["error"] == "verification-failed"
    assert set(diagnostic) == {"error", "message"}


def test_unexpected_exception_exits_5(tmp_path, capsys, monkeypatch):
    def broken(psi):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr("wittforge.invol12.decompose_split12", broken)
    path = _form_file(tmp_path, SPLIT12_ENTRIES)
    code, out, err = _run(capsys, "qf", "decompose12", path)
    assert code == 5 and out == ""
    assert json.loads(err) == {"error": "internal-error",
                               "message": "ZeroDivisionError: division by "
                                          "zero"}


# a presentation saved from `alg exists --h1=-2,-5 --h2=7,-3`
_D = {"a": "-2", "b": "-5"}
EXISTS_PRESENTATION = {
    "a0": {"m3h": {"alg": _D, "entries": [
        {"alg": _D, "coords": ["0", "0", "0", "-1/2"]},
        {"alg": _D, "coords": ["0", "0", "-1/5", "0"]},
        {"alg": _D, "coords": ["0", "1", "0", "0"]}]}},
    "h": {"alg": {"a": "7", "b": "-3"},
          "i": {"alg": {"a": "7", "b": "-3"},
                "coords": ["0", "4/3", "1", "0"]}}}


def test_factor_base_cap_diagnostic_ignores_the_hash_seed():
    # the Witt kernel of <-6, -21> is a binary form <b, 14 b> with (b, -14)
    # ramified at {real, 2}; the generators on its rows, -1, 2 and 7, span
    # only {real, 7}, so a factor base capped below 3 runs out, and the
    # diagnostic lists the places in a fixed order, whatever the string
    # hash seed
    script = ("from wittforge import cohomology\n"
              "from wittforge.errors import BoundExceeded\n"
              "from wittforge.quadform import diagonal, witt_decompose\n"
              "cohomology.FACTOR_BOUND = 1\n"
              "try:\n"
              "    witt_decompose(diagonal(-6, -21))\n"
              "except BoundExceeded as exc:\n"
              "    print(exc)\n")
    proc = _python("-c", script, PYTHONHASHSEED="0")
    assert proc.returncode == 0, proc.stderr
    assert "primes up to 1 " in proc.stdout
    assert proc.stdout.endswith("{real, 2}\n")
    for seed in "123":
        again = _python("-c", script, PYTHONHASHSEED=seed)
        assert again.stdout == proc.stdout, seed


def test_f3_norms_check_survives_python_O():
    # a class [A] that disagrees with [H] + [H'] at the real place puts the
    # difference of norm forms outside I^3 (signature -4 here); that must
    # be refused even with asserts stripped
    script = ("import json, sys\n"
              "import wittforge.invol12 as invol12\n"
              "from wittforge.cohomology import ZERO\n"
              "p = invol12.presentation_from_json(json.load(sys.stdin))\n"
              "invol12.ProductPresentation.a_class = lambda self: ZERO\n"
              "try:\n"
              "    invol12.f3_via_norms(p)\n"
              "except AssertionError:\n"
              "    print('refused')\n")
    proc = _python("-O", "-c", script, stdin=json.dumps(EXISTS_PRESENTATION))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


def test_quaternion_witness_checks_survive_python_O():
    # a wrong common value, or a pure that fails to anticommute, must not
    # escape the quaternion constructors behind `alg exists` with asserts
    # stripped
    script = ("import wittforge.quat as quat\n"
              "h1, h2 = quat.algebra(-1, -1), quat.algebra(1, 1)\n"
              "right = quat.represent_value\n"
              "quat.represent_value = lambda q, v: (1, 1, 1)\n"
              "try:\n"
              "    quat.common_value_witness(h1, h2)\n"
              "except AssertionError:\n"
              "    print('refused')\n"
              "quat.represent_value = right\n"
              "quat._orthogonal_pure = lambda alg, p: p\n"
              "try:\n"
              "    quat.anticommutant(h1, h1.i())\n"
              "except AssertionError:\n"
              "    print('refused')\n")
    proc = _python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\nrefused\n"


def test_reciprocity_check_survives_python_O():
    # an odd set of ramified places must not reach BrauerClass even with
    # asserts stripped
    script = ("import wittforge.qarith as qarith\n"
              "qarith._hilbert_core = "
              "lambda a, b, v: -1 if v == qarith.REAL else 1\n"
              "try:\n"
              "    qarith.ramified_places(-1, -1)\n"
              "except AssertionError:\n"
              "    print('refused')\n")
    proc = _python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


def test_alg_additive_decomposes_once(tmp_path, capsys, monkeypatch):
    calls = []
    decompose = invol12.additive_decomposition
    monkeypatch.setattr(invol12, "additive_decomposition",
                        lambda p: calls.append(p) or decompose(p))
    path = _write(tmp_path, "pres.json", EXISTS_PRESENTATION)
    code, out, _ = _run(capsys, "alg", "additive", path)
    assert code == 0 and len(calls) == 1
    outputs = json.loads(out)["outputs"]
    assert outputs["pairs"] == [outputs["group"][2:4], outputs["group"][4:6],
                                outputs["group"][6:8]]
