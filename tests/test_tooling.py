"""Checks on the source itself rather than on what it computes."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "wittforge").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")])


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"_record.py", "cli.py", "f3_survey.py"} <= names


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_assert_statements(path):
    # python -O strips assert, so a check written as one stops checking;
    # verification goes through errors.require or an explicit raise
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at lines {lines}"
