"""Every Python file of the repository parses at the oldest Python the
package declares (``requires-python`` in ``pyproject.toml``).

``ast.parse(..., feature_version=...)`` rejects syntax newer than that
version, such as ``except*`` or a PEP 695 ``type`` statement, on any
interpreter that runs the tests.  The floor is read with a regex, since
``tomllib`` is not in the 3.10 standard library."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = re.search(
    r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M
)
SOURCES = sorted(
    path for tree in ("src", "tests", "demos", "bench") for path in (ROOT / tree).rglob("*.py")
)


def test_the_floor_is_declared():
    assert FLOOR is not None
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(int(FLOOR[1]), int(FLOOR[2])))
