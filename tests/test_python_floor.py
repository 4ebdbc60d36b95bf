"""Every Python file of the project parses at the oldest Python that
pyproject.toml declares, so code that needs a newer grammar fails here on
any interpreter, not only on one of the floor's version."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# read with a pattern: tomllib is not in the floor's standard library
FLOOR = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                                 (ROOT / "pyproject.toml").read_text(), re.M).groups()))
SOURCES = sorted(path for top in ("src", "tests", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_file_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def test_newer_grammar_is_rejected():
    # except* is Python 3.11 grammar
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
