"""Every Python file of the project parses under the declared floor.

pyproject.toml declares requires-python >= 3.10, and the CI job that runs
the suite on 3.10 may not run at all, so this check reads each file with
the 3.10 grammar on whichever interpreter runs the suite: syntax newer
than the floor (`except*`, for one) fails here first.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


def test_every_file_parses_under_the_floor():
    files = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def test_syntax_above_the_floor_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
