"""Golden reports: refactors must leave every report byte-identical.

Each case runs one fixed `wittforge.cli.main` call and compares the sha256
of its stdout and its exit code with digests captured before the code they
guard was last refactored.  A digest that moves means a report changed; if
the change is intended, recapture the digest in the same change and say so.
The frozen isotropic vectors pin the search that splits off a common value
when both halves of a form are anisotropic, and the conic descent below
it: another first candidate, or another descent step, gives another
vector, so each is also checked to be a primitive zero of its form.  The
frozen Witt kernels pin the F2 solve for the second slot that builds
binary and ternary kernels in the same way.  The reports are replayed a
second time in one `python -O` process, where bare asserts are stripped,
and once more under each other supported Python found on PATH.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random

import pytest

from split12 import split12_with_primes
from wittforge import cohomology, invol12, quadform, quat
from wittforge.cli import main
from wittforge.quadform import diagonal, isotropic_vector, witt_decompose

FORMS = {
    "dim2": ["3", "-5"],
    "dim3": ["3", "5", "-7"],
    "dim4": ["3", "-5", "7", "-11"],
    "dim5": ["1", "1", "1", "7", "5"],
    "dim8-definite": ["1", "2", "3", "5", "7", "11", "13", "17"],
    "dim12": ["-18/9", "-10/7", "24/8", "-42/8", "36/1", "29/6", "22/4",
              "37/4", "33/6", "-52/2", "59/1", "6/7"],
    "dim50": [str(e) for e in (
        -4, -55, -27, 59, 11, -54, 23, -41, 3, -29, 16, 11, 31, 41, -32, -27,
        55, 58, -6, -43, -35, 10, -34, 18, 21, 51, -52, -39, 13, 14, -30, 11,
        49, 6, 41, 20, 36, -5, 48, 10, 53, -39, 52, 34, -34, 5, 3, 24, -5,
        999983)],
}

# presentations saved from `alg exists` on (1, 1) x (2, 3), a split first
# factor, and on (-2, -5) x (7, -3); f3 also runs on a split degree 6
# factor <3, -6, -5, -55, 7, 154>, whose e1 is trivial
_H = {"a": "1", "b": "1"}
_D = {"a": "-2", "b": "-5"}
PRESENTATIONS = {
    "exists-1,1-2,3": {
        "a0": {"m3h": {"alg": _H, "entries": [
            {"alg": _H, "coords": ["0", "0", "-3/2", "-1/2"]},
            {"alg": _H, "coords": ["0", "0", "1", "0"]},
            {"alg": _H, "coords": ["0", "1", "0", "0"]}]}},
        "h": {"alg": {"a": "2", "b": "3"},
              "i": {"alg": {"a": "2", "b": "3"},
                    "coords": ["0", "0", "1", "0"]}}},
    "exists--2,-5-7,-3": {
        "a0": {"m3h": {"alg": _D, "entries": [
            {"alg": _D, "coords": ["0", "0", "0", "-1/2"]},
            {"alg": _D, "coords": ["0", "0", "-1/5", "0"]},
            {"alg": _D, "coords": ["0", "1", "0", "0"]}]}},
        "h": {"alg": {"a": "7", "b": "-3"},
              "i": {"alg": {"a": "7", "b": "-3"},
                    "coords": ["0", "4/3", "1", "0"]}}},
}
SPLIT6 = {"a0": {"split": {"entries": ["3", "-6", "-5", "-55", "7", "154"]}},
          "h": {"alg": {"a": "-3", "b": "-7"},
                "i": {"alg": {"a": "-3", "b": "-7"},
                      "coords": ["0", "1", "2", "-1"]}}}

# over (-1, -1) with x = (0, 1102061, 14414, 246): a complementary slot of
# (-1, -1) at x^2 has the cofactor 1214746211117 = 1002017 * 1212301, past
# the factor bound, so these answer only because no slot is built
_M = {"a": "-1", "b": "-1"}
_X = {"alg": _M, "coords": ["0", "1102061", "14414", "246"]}
_I = {"alg": _M, "coords": ["0", "1", "0", "0"]}
SLOT_COFACTOR = {
    "additive": {"a0": {"m3h": {"alg": _M, "entries": [_X, _X, _I]}},
                 "h": {"alg": _M, "i": _I}},
    "f3": {"a0": {"split": {"entries": ["1", "1", "1", "1", "1", "-1"]}},
           "h": {"alg": _M, "i": _X}},
}

TOTALLY_RAMIFIED = {"slots": [[[1, 0, 0, 0], [0, 1, 0, 0]],
                              [[0, 0, 1, 0], [0, 0, 0, 1]]]}
SPLIT_FACTOR = {"slots": [[[0, 0, 0, 0], [0, 1, 0, 0]],
                          [[0, 0, 1, 0], [0, 0, 0, 1]]]}

EXISTS_PAIRS = (("-1,-1", "2,3"), ("2,5", "-1,-1"), ("-3,-1", "-1,2"),
                ("1,1", "2,3"), ("1,1", "1,-1"), ("-2,-5", "7,-3"))


def _split12(seed: int, k: int) -> dict:
    q = split12_with_primes(Random(seed), k)
    return {"entries": [str(e) for e in q.entries]}


def _cases() -> dict:
    """name -> (argv with {file} placeholders, payload for that file)."""
    cases = {}
    for name, entries in FORMS.items():
        cases[f"invariants-{name}"] = (["qf", "invariants", "{file}"],
                                      {"entries": entries})
    for seed, k in ((1, 2), (2, 5), (3, 8)):
        cases[f"decompose12-s{seed}-p{k}"] = (["qf", "decompose12", "{file}"],
                                              _split12(seed, k))
    cases["hyper-over-1-5"] = (["qf", "hyper-over", "{file}", "--d", "5"],
                               {"entries": ["1", "-5"]})
    cases["hyper-over-dim12"] = (["qf", "hyper-over", "{file}", "--d", "-1"],
                                 _split12(4, 3))
    for h1, h2 in EXISTS_PAIRS:
        cases[f"exists-{h1}-{h2}"] = (
            ["alg", "exists", f"--h1={h1}", f"--h2={h2}"], None)
    for name, pres in PRESENTATIONS.items():
        cases[f"f3-{name}"] = (["alg", "f3", "{file}"], pres)
        cases[f"additive-{name}"] = (["alg", "additive", "{file}"], pres)
    cases["f3-split6"] = (["alg", "f3", "{file}"], SPLIT6)
    for command, pres in SLOT_COFACTOR.items():
        cases[f"{command}-slot-cofactor"] = (["alg", command, "{file}"], pres)
    cases["obstruction-ramified"] = (["val", "obstruction", "{file}"],
                                     TOTALLY_RAMIFIED)
    cases["obstruction-split"] = (["val", "obstruction", "{file}"],
                                  SPLIT_FACTOR)
    cases["selftest-3-5"] = (["selftest", "--seed", "3", "--count", "5"],
                             None)
    return cases


# supported interpreters besides the 3.11 that runs the test suite; the
# digests must not depend on the version
OTHER_PYTHONS = ("python3.10", "python3.12", "python3.13")

# name -> (exit code, sha256 of stdout)
GOLDEN = {
    "invariants-dim2": (
        0, "bfc2d70fe90ec14b431b6cf95cd9844b32b5e0672967ded6bf2011d82809a67d"),
    "invariants-dim3": (
        0, "98f812f35b7f9bbc226e2ed6350aef693d26dd473db5e965b6ef55030c53d955"),
    "invariants-dim4": (
        0, "44e3e95ab81167492b72b3a973bd8d146ba8def73832d336e4caed5bbb5fecd4"),
    "invariants-dim5": (
        0, "17c75a4d1687848144fd06d7274f90b6c818e0ec4852fe26c7444104ab8d4f51"),
    "invariants-dim8-definite": (
        0, "35f7b9c90a9c6f94d311464101136138388dee7b9a058b7a1b584c9b0806d73d"),
    "invariants-dim12": (
        0, "03506b63e71f219bdec1b14c10f9d836304aa5a645089627cddeb61f69e9f7ef"),
    "invariants-dim50": (
        0, "04a68e1c5ff5594ad2eaf0056dafb046c5f48c57139d83e671c9a0a84cfec902"),
    "decompose12-s1-p2": (
        0, "931befd1ab540f800798ffe3be4b2735a3bd13269c402bca69075d22310e7320"),
    "decompose12-s2-p5": (
        0, "5f6ab0b8ae9b5958642b270eedb916146702caa04b2bfbdd382a0a159d0edeed"),
    "decompose12-s3-p8": (
        0, "2ca4fe71bdb6886cf2560c940b86adb8b4249497f72095a9b76606b9d7cd7f0b"),
    "hyper-over-1-5": (
        0, "73a18010ee30261280766b2f257d2a9c76dbde5f10b4effd001e8ffba113525e"),
    "hyper-over-dim12": (
        0, "06ad02f3a2d57f3571ef729e91b29b40a882d4ceb2cfab3139f09280979f7661"),
    "exists--1,-1-2,3": (
        0, "5556e841a10944102ff3e4a03a57e0c4a6537a7d1b9982554240f144bab286e2"),
    "exists-2,5--1,-1": (
        0, "100b6af9bb8ae72ac5e6cc9144f1a848c2c3f95c55922b828c327e16a40388d1"),
    "exists--3,-1--1,2": (
        0, "e35c383905be9e0ce860468d9a5dbcfdbce78df203a386f535164b602f2889f8"),
    "exists-1,1-2,3": (
        0, "93b30db8b6f25cb24c4dcac26f58f8da7d0a2de8eef622f94c41d04b216e945b"),
    "exists-1,1-1,-1": (
        0, "e3c61814a99d6ae509db07114a6684b6b513cb3d77ba1abbafbca943eb018693"),
    "exists--2,-5-7,-3": (
        0, "c3062cd9c6f7d37dbbb165a7560d937192f60058d52cee9f4a9a834d44f8c43a"),
    "f3-exists-1,1-2,3": (
        0, "5ecb6aac7a2ca0da4ac7707797314150013bcc61abcd6434bfb0e8691876fcb4"),
    "additive-exists-1,1-2,3": (
        0, "fd0ae06b36ad6059a87be04a088f62692cf071adf93b1f4d4968fca480e8ab66"),
    "f3-exists--2,-5-7,-3": (
        0, "e865d0909158918e51c5450dde4ae9d2d6b7401c6a130dbb4d07fe3cd26a92c5"),
    "additive-exists--2,-5-7,-3": (
        0, "94fe3fe83588cae97ff7b5572feeaa045717636a439dbc1b521623e6b21a7841"),
    "f3-split6": (
        0, "a9753d40b23b687a02dbc1e5be5e890ceeaa6bb5e096e21244bae197826caed6"),
    "additive-slot-cofactor": (
        0, "bcf980aaf7c4ef0083ca6de77a8ed51b1650b665528ada4a1664eeaf66d4bf73"),
    "f3-slot-cofactor": (
        0, "babe683dde6a1f2a58d95cb9083b9da54969c75029f4f7abe045357eb418f3b3"),
    "obstruction-ramified": (
        0, "a948ec43273deca8215af5df97ad573581a8dd01b53daaa872569c96b0ab132d"),
    "obstruction-split": (
        0, "6c4ac653d6367a958461c92f4a1228329ba8e8138134430633eb643f00bcb755"),
    "selftest-3-5": (
        0, "825d8d06516f3599b3f27eca103cad62f0aa6537c7d3743934da6bd2d64adb46"),
}

# (entries, isotropic_vector output); neither <s0, s1> nor the rest of
# the diagonal is isotropic, and no pair of entries cancels
FROZEN_ISOTROPIC = (
    (["-32", "6", "-18", "-36"],
     ["3", "12", "0", "4"]),
    (["241", "-363", "-215", "290"],
     ["-132715", "215265", "189552", "-264583"]),
    (["22", "110", "-133", "396"],
     ["-15555945387", "-154044014625", "-325354631778", "170139756068"]),
    (["-17/9", "-39", "-19", "5"],
     ["-3", "-11", "-24", "56"]),
    (["-23", "31", "27", "32"],
     ["2022", "756", "878", "-1317"]),
    (["13/4", "-122", "25", "229"],
     ["-210", "35", "4", "5"]),
    (["38", "37", "-1", "3"],
     ["0", "-1", "8", "-3"]),
    (["2", "-21", "-38", "-6"],
     ["-8", "-2", "1", "1"]),
    (["-19", "210", "69", "362", "6"],
     ["-5721850972496043", "916409220617660", "-270204557758341",
      "172254088130898", "8464769782138307"]),
    (["312", "42", "328", "132", "-373"],
     ["11756625", "23513250", "-317810", "10765524", "-14797672"]),
    (["189", "-74", "266", "386", "338"],
     ["-74", "-444", "225", "15", "0"]),
    (["-34/3", "-387", "110", "113", "108"],
     ["2795821299", "103548937", "-711077070", "338006361", "-473447376"]),
    (["-21", "3", "-39", "18", "-20"],
     ["4", "2", "36", "-54", "9"]),
    (["-35/4", "13", "-2", "13", "-24"],
     ["-38012", "33150", "-6844", "-6844", "-9483"]),
    (["3", "6", "-34", "-22", "-19"],
     ["-91", "-91", "18", "9", "-57"]),
    # the longest splitting-value walk of the seed-1 survey pool: 3,732
    # candidates
    (["-14", "-15", "-210", "91"],
     ["-453", "70", "31", "186"]),
)


# (entries, witt_decompose kernel, Witt index): kernels of dim 0 to 4 of
# either sign, and a definite kernel past dim 4 of each sign
FROZEN_KERNELS = (
    ([6, -3, 8, 3, -6, -2, -1, 8, 8, -6, 6, -1],
     [], 6),
    ([2, 5, -8],
     ["5"], 1),
    ([-7, -1, 2],
     ["-14"], 1),
    ([4, 47, -24, 47],
     ["47", "282"], 1),
    ([-61, -69, 94, -105],
     ["-69", "-602070"], 1),
    ([23, 14, -7, -38],
     ["2", "-874"], 1),
    ([-8, 3, 6, 9, 3],
     ["1", "1", "3"], 1),
    ([1, -1, -8, -9, -3],
     ["-3", "-1", "-2"], 1),
    ([-10, -94, 78, 126, -76],
     ["-798", "-231", "1411410"], 1),
    ([9, -4, 6, 5, 5, 5],
     ["1", "15", "5", "10"], 1),
    ([6, -31, -10, -10, -15, -25],
     ["-1", "-10", "-1", "-31"], 1),
    ([-6, 21, 49, 1, -31, -31, -18, 43],
     ["1", "-27993", "43", "-3999"], 2),
    ([155, -156, 66, 91, 32, -14, -46, 4],
     ["1", "5642", "-4774", "46345"], 2),
    ([30, 18, 46, 49, 42, -1, 14, 32],
     ["1", "1", "1", "23", "1", "5"], 1),
    ([4, -3, -6, -9, -8, -9, 4, -1, -3],
     ["-1", "-1", "-1", "-1", "-3"], 2),
)


def _run(tmp_path, argv, payload):
    path = tmp_path / "input.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(path) if a == "{file}" else a for a in argv])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _replay(tmp_path) -> dict:
    return {name: _run(tmp_path, argv, payload)
            for name, (argv, payload) in _cases().items()}


def test_golden_reports(tmp_path):
    start = time.perf_counter()
    got = _replay(tmp_path)
    assert time.perf_counter() - start < 10
    assert got == GOLDEN


# the replay of _run in a fresh interpreter, which needs neither pytest nor
# this file: the case table arrives on stdin as JSON, digests leave on stdout
_REPLAY = """\
import contextlib, hashlib, io, json, pathlib, sys
from wittforge.cli import main
path = pathlib.Path(sys.argv[1]) / "input.json"
got = {}
for name, (argv, payload) in json.load(sys.stdin).items():
    if payload is not None:
        path.write_text(json.dumps(payload))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(path) if a == "{file}" else a for a in argv])
    got[name] = (code, hashlib.sha256(out.getvalue().encode()).hexdigest())
print(json.dumps(got))
"""


def _replay_under(tmp_path, *interpreter) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([*interpreter, "-c", _REPLAY, str(tmp_path)],
                          input=json.dumps(_cases()), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {name: tuple(v) for name, v in json.loads(proc.stdout).items()}


def test_golden_reports_survive_python_O(tmp_path):
    # no work a report needs may sit inside an assert: the same digests
    # in one interpreter with asserts stripped
    assert _replay_under(tmp_path, sys.executable, "-O") == GOLDEN


def _runs_a_supported_python(exe: str) -> bool:
    try:
        probe = subprocess.run(
            [exe, "-c", "import sys; print(sys.version_info >= (3, 10))"],
            capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return False
    return probe.returncode == 0 and probe.stdout == "True\n"


def test_golden_reports_under_the_other_pythons(tmp_path):
    # the same digests under each other supported interpreter on PATH;
    # a name that is missing, or that fails its probe (a shim for a
    # version that is not installed), is skipped
    found = [exe for exe in map(shutil.which, OTHER_PYTHONS)
             if exe and _runs_a_supported_python(exe)]
    if not found:
        pytest.skip(f"none of {', '.join(OTHER_PYTHONS)} runs here")
    for exe in found:
        assert _replay_under(tmp_path, exe) == GOLDEN, exe


def test_f3_symbol_runs_no_slot_walk(tmp_path, monkeypatch):
    # both f3 routes read Brauer classes at the real place, and no command
    # builds a Witt kernel, so every golden report and both routes answer
    # the same with the symbol solver refused wherever it is bound
    def solve(*args):
        raise RuntimeError("symbol solver called")

    for module in (cohomology, quadform, quat, invol12):
        monkeypatch.setattr(module, "second_slot", solve, raising=False)
    assert _replay(tmp_path) == GOLDEN
    for pres in (*PRESENTATIONS.values(), SPLIT6):
        p = invol12.presentation_from_json(pres)
        assert invol12.f3_via_norms(p).bit == 0
        assert invol12.f3_via_symbol(p).bit == 0


def test_alg_reports_build_no_complementary_slot(tmp_path, monkeypatch):
    # f3 and the additive decomposition read Brauer classes only, so their
    # reports stay the same with every anticommuting pure, the source of a
    # complementary slot, refused
    def refuse(*args, **kwargs):
        raise RuntimeError("anticommuting pure built")

    for module in (quat, invol12):
        monkeypatch.setattr(module, "anticommutant", refuse)
    cases = {name: case for name, case in _cases().items()
             if name.startswith(("f3-", "additive-"))}
    assert len(cases) == 7
    for name, (argv, payload) in cases.items():
        assert _run(tmp_path, argv, payload) == GOLDEN[name], name


@pytest.mark.parametrize("entries, vector", FROZEN_ISOTROPIC)
def test_isotropic_vector_frozen(entries, vector):
    q = diagonal(*(Fraction(e) for e in entries))
    pinned = tuple(Fraction(x) for x in vector)
    assert q(pinned) == 0 and gcd(*(int(x) for x in vector)) == 1
    assert isotropic_vector(q) == pinned


@pytest.mark.parametrize("entries, kernel, index", FROZEN_KERNELS)
def test_witt_kernel_frozen(entries, kernel, index):
    wd = witt_decompose(diagonal(*entries))
    assert wd.kernel.entries == tuple(Fraction(x) for x in kernel)
    assert wd.index == index
