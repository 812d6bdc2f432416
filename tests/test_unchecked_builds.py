"""Only the values ``model``'s docstring lists are built without their
checks.  ``object.__new__`` skips a type's ``__init__`` and
``__post_init__``, and ``model._changed`` is built on it, so each may be
referenced only where a value is derived from checked parts.  A new
reference anywhere else, such as a refactor that builds an event or a
vector around its checks, fails here until the list and the docstring
name it."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "react_irs"

SKIPS_CHECKS = {
    "object.__new__": {
        "model._changed", "model.ImpactVector._unchecked", "model.ResponseSpec.with_benefit",
    },
    "_changed": {"model.IntrusionEvent.at_velocity", "model.IntrusionEvent._with_facts"},
}


def _skip_references(module: str, source: str) -> dict[str, set[str]]:
    """For each of ``SKIPS_CHECKS``'s names, the qualified names of the
    functions and classes of ``module`` that reference it."""
    found = {name: set() for name in SKIPS_CHECKS}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr == "__new__" and (
            isinstance(node.value, ast.Name) and node.value.id == "object"
        ):
            found["object.__new__"].add(scope)
        elif (isinstance(node, ast.Name) and node.id == "_changed") or (
            isinstance(node, ast.Attribute) and node.attr == "_changed"
        ):
            found["_changed"].add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_only_the_listed_builds_skip_checks():
    found = {name: set() for name in SKIPS_CHECKS}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, scopes in _skip_references(path.stem, path.read_text(encoding="utf-8")).items():
            found[name] |= scopes
    assert found == SKIPS_CHECKS


def test_a_new_reference_is_found():
    source = (
        "from .model import _changed\n"
        "class Spec:\n"
        "    def bump(self):\n"
        "        new = object.__new__\n"
        "        return _changed(self)\n"
        "def build(event):\n"
        "    return model._changed(event)\n"
    )
    assert _skip_references("mod", source) == {
        "object.__new__": {"mod.Spec.bump"},
        "_changed": {"mod.Spec.bump", "mod.build"},
    }
