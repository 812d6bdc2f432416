"""Every name a package module imports is read in that module.

The exceptions are names the benchmark's tracer patches in a module that
does not call them (see ``test_bench_hooks.py``): the tracer replaces a
module's own binding, so the module must hold one.  Any other unread
import, such as one a refactor left behind, fails here."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "react_irs"

TRACER_ONLY = {
    "engine.py": {"effective_cost", "response_benefit"},
    "selection.py": {"effective_cost", "response_benefit"},
    "harness.py": {"inner_loop", "generate_candidates", "event_impact"},
}


def _unread_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return bound - read


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text(encoding="utf-8")) == TRACER_ONLY.get(path.name, set())


def test_an_unread_import_is_found():
    source = "from itertools import chain\nimport os.path\nfrom operator import attrgetter as get\nos\n"
    assert _unread_imports(source) == {"chain", "get"}
