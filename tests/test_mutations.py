"""Type-swap mutations of every shipped document: a parser either accepts
the mutated document or raises ``SchemaError``, never anything else."""
import json

import pytest

from react_irs.cli import main
from react_irs.files import SchemaError, data_dir, parse_architecture, parse_catalog, parse_scenario
from _support import CliRunner

#: null, a bool, a string, a list, an object, a negative number, a
#: non-integer and an integer too large for a float.
VALUES = (None, True, "x", [], {}, -1, 0.5, 10**400)


def _paths(node, path=()):
    """Every JSON path in ``node``, its root included; of a catalog's
    responses only the first and the last are walked."""
    yield path
    if isinstance(node, dict):
        keys = node.keys()
    elif isinstance(node, list):
        keys = sorted({0, len(node) - 1}) if path == ("responses",) and node else range(len(node))
    else:
        return
    for key in keys:
        yield from _paths(node[key], path + (key,))


def _replaced(node, path, value):
    """A copy of ``node`` with ``value`` at ``path``; only the containers
    along the path are copied."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    copy = list(node) if isinstance(node, list) else dict(node)
    copy[head] = _replaced(node[head], rest, value)
    return copy


def _parse_catalog(doc):
    parse_catalog(doc, base_dir=data_dir())


def _parse_scenario(doc):
    parse_scenario(doc, base_dir=data_dir()).event()


PARSERS = {"architecture": parse_architecture, "catalog": _parse_catalog,
           "scenario": _parse_scenario}
DOCUMENTS = sorted(path.name for path in data_dir().glob("*.json"))


def test_the_shipped_documents_cover_every_kind():
    kinds = {json.loads((data_dir() / name).read_text())["kind"] for name in DOCUMENTS}
    assert kinds == set(PARSERS)


@pytest.mark.parametrize("name", DOCUMENTS)
def test_a_swapped_value_fails_only_as_a_schema_error(tmp_path, name):
    """Each value at each path; one rejected mutation per value also goes
    through ``react validate``, which must exit 2."""
    doc = json.loads((data_dir() / name).read_text())
    parse = PARSERS[doc["kind"]]
    escapes, rejected = [], {}
    for path in _paths(doc):
        for value in VALUES:
            mutated = _replaced(doc, path, value)
            try:
                parse(mutated)
            except SchemaError:
                rejected.setdefault(repr(value), mutated)
            except Exception as exc:
                escapes.append(f"{path} = {repr(value)[:20]}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes[:10])
    assert rejected

    for needed in ("architecture.json", doc.get("extends")):
        if needed:
            (tmp_path / needed).write_bytes((data_dir() / needed).read_bytes())
    runner = CliRunner()
    for value, mutated in rejected.items():
        path = tmp_path / name
        path.write_text(json.dumps(mutated))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2, (value, result.output)
