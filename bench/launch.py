"""Run one wittforge command with the span tracer installed.

    python3 bench/launch.py --stats out.json [--tag dim200] -- qf invariants f.json
    python3 bench/launch.py --stats out.json --script scripts/f3_survey.py --trials 20

The tracer wraps the library before the command runs, so the command's
process is otherwise the one a user starts; on exit the folded spans go to
--stats as JSON and the command's exit code is passed through.
"""

from __future__ import annotations

import json
import runpy
import sys

from common import SRC
from tracer import Tracer


def main(argv: list[str]) -> int:
    stats = tag = script = None
    while argv and argv[0] in ("--stats", "--tag"):
        if argv[0] == "--stats":
            stats = argv[1]
        else:
            tag = argv[1]
        argv = argv[2:]
    if argv[:1] == ["--script"]:
        script, argv = argv[1], argv[2:]
    elif argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    tracer.install()
    tracer.tag = tag
    try:
        if script is None:
            from wittforge.cli import main as cli_main
            code = cli_main(argv)
        else:
            sys.argv = [script] + argv
            try:
                runpy.run_path(script, run_name="__main__")
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if stats is not None:
            with open(stats, "w") as fh:
                json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
