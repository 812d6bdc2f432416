"""Mutations of every shipped document, value swaps and a seeded
structural pass: a parser either accepts the mutated document or raises
``SchemaError``, never anything else."""
import json
import random
from functools import reduce
from operator import getitem

import pytest

from react_irs.cli import MODES, main
from react_irs.files import (
    SchemaError,
    data_dir,
    load_architecture,
    load_catalog,
    parse_architecture,
    parse_catalog,
    parse_scenario,
)
from react_irs.selection import ALGORITHMS
from _support import CliRunner

#: null, a bool, a string, a list, an object, a negative number, a
#: non-integer, an integer too large for a float, and two strings no path
#: can hold: a lone surrogate and one with a NUL.
VALUES = (None, True, "x", [], {}, -1, 0.5, 10**400, "\ud800", "a\u0000b")


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
    """The scenario, and what a run of it reads: its event, its
    architecture and the catalog of every mode and algorithm."""
    scenario = parse_scenario(doc, base_dir=data_dir())
    scenario.event()
    load_architecture(scenario.architecture_path())
    for path in {scenario.catalog_path(mode, algo) for mode in MODES for algo in ALGORITHMS}:
        load_catalog(path)


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

    for shipped in data_dir().glob("*.json"):
        (tmp_path / shipped.name).write_bytes(shipped.read_bytes())
    runner = CliRunner()
    for value, mutated in rejected.items():
        path = tmp_path / name
        path.write_text(json.dumps(mutated))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2, (value, result.output)


#: What the structural pass writes over a value: an int past 64 bits,
#: negative zero, a float whose weighted sums overflow, and each swap value.
WRITES = (2**63, -0.0, 1e308, *VALUES)


def _structural(rng, doc, path):
    """``doc`` with one change at ``path``: its value wrapped in a list or
    an object or overwritten from ``WRITES``, or its key deleted, or, in a
    list, its entry duplicated."""
    value = reduce(getitem, path, doc)
    changes = ["list", "object", "write"]
    if path:
        parent = reduce(getitem, path[:-1], doc)
        changes += ["delete", "duplicate"] if isinstance(parent, list) else ["delete"]
    change = rng.choice(changes)
    if change == "list":
        return _replaced(doc, path, [value])
    if change == "object":
        return _replaced(doc, path, {"value": value})
    if change == "write":
        return _replaced(doc, path, rng.choice(WRITES))
    copy = list(parent) if isinstance(parent, list) else dict(parent)
    if change == "delete":
        del copy[path[-1]]
    else:
        copy.insert(path[-1], value)
    return _replaced(doc, path[:-1], copy)


#: Mutations per shipped document; together they take about a second.
STRUCTURAL_MUTATIONS = 500


def test_a_structural_mutation_fails_only_as_a_schema_error():
    """A fixed-seed pass over every shipped document, at the paths the
    swap test walks."""
    rng = random.Random(12)
    escapes, rejected = [], 0
    for name in DOCUMENTS:
        doc = json.loads((data_dir() / name).read_text())
        parse, paths = PARSERS[doc["kind"]], list(_paths(doc))
        for _ in range(STRUCTURAL_MUTATIONS):
            path = rng.choice(paths)
            mutated = _structural(rng, doc, path)
            try:
                parse(mutated)
            except SchemaError:
                rejected += 1
            except Exception as exc:
                escapes.append(f"{name} {path}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes[:10])
    assert rejected
