"""JSON file formats: architecture, response catalog, and scenario.

Every document carries ``schema_version`` and a ``kind`` discriminator.
Parsing is strict: unknown enum values, bad levels, non-boolean flags,
duplicate indices and unresolvable references all raise
:class:`SchemaError`, and so do a path the file system cannot take (a
NUL, a lone surrogate), a file that cannot be read or is not UTF-8, JSON
nested too deep or with an int of too many digits, and a top level that
is not a JSON object: a loader lets no other error escape.  Keys the
schema does not name are ignored.  A rule the model states is applied
here through it, its message given the JSON path: ``model.check_facts``
for a scenario's facts and each ``effects`` entry, ``check_weight`` for
its velocity and environment weight, ``check_total`` for its impact at
E = 100, ``ResponseSpec`` for an entry's index, flags and applies rule,
and ``CatalogResponses`` for a catalog's one terminal entry.
An architecture loads as the set of its asset ids.  A scenario's
``effects`` keys are response indices spelt as ``str`` spells them, and
its ``catalog_overrides`` keys are ``<mode>:<algorithm>`` or
``<mode>:*``.  A scenario loads its event as the model's
``IntrusionEvent``, built once: ``Scenario.initial_event``, which
``Scenario.event`` hands out with facts of the caller's own.

A catalog may be an overlay: it ``extends`` a full catalog, drops the
base indices it lists in ``remove``, and its ``responses`` replace base
entries or add new ones by index, the result in index order.  Its base
may not itself be an overlay.

A catalog is parsed once per path and file content: ``load_catalog``
reads the file's bytes on every call, and an overlay's base's bytes too,
and returns the catalog it kept for that path while both are unchanged.
A returned catalog is therefore shared between callers; it is immutable,
like everything it holds, but for one cache: its ``responses`` are a
``CatalogResponses`` tuple, which keeps the candidate sets generated from
it, so generation is paid once per loaded catalog and (result, infected,
affected) key.  A rewritten file is parsed into a new tuple, whose sets
start empty.

Within one parse, equal values are built once: every entry with the same
precondition text holds one ``Precondition``, and equal ``applies_to``
sets and stop rules are one object each.  Nothing is shared between two
parses, not even with an overlay's base, so a rewritten file gets fresh
objects throughout.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping

from .model import (
    AssetKind,
    CostVector,
    DomainError,
    EnvironmentTerm,
    ImpactVector,
    IntrusionEvent,
    IntrusionResult,
    Place,
    ResponseSpec,
    StopCondition,
    StopKind,
    VehicleState,
    check_facts,
    check_total,
    check_weight,
    environment_from_velocity,
)
from .preconditions import Precondition, PreconditionError
from .responses import CatalogResponses
from .selection import ALGORITHMS

SCHEMA_VERSION = 1


class SchemaError(DomainError):
    """A document does not conform to the expected schema."""


def data_dir() -> Path:
    """Directory of the packaged data files (catalogs, scenarios, fixtures)."""
    return Path(str(resources.files(__package__) / "data"))


def _require(doc: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in doc:
        raise SchemaError(f"{context}: missing required field {key!r}")
    return doc[key]


def _check_header(doc: Any, kind: str, context: str) -> None:
    doc = _object(doc, context)
    version = _require(doc, "schema_version", context)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(
            f"{context}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    actual = _require(doc, "kind", context)
    if actual != kind:
        raise SchemaError(f"{context}: expected kind {kind!r}, got {actual!r}")


def _enum(enum_cls, value: Any, context: str):
    try:
        return enum_cls(value)
    except ValueError:
        valid = ", ".join(m.value for m in enum_cls)
        raise SchemaError(f"{context}: {value!r} is not one of: {valid}") from None


def _object(value: Any, context: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise SchemaError(f"{context}: expected a JSON object, got {value!r}")
    return value


def _list(value: Any, context: str) -> list[Any]:
    if not isinstance(value, list):
        raise SchemaError(f"{context}: expected a JSON array, got {value!r}")
    return value


def _str(value: Any, context: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{context}: expected a string, got {value!r}")
    return value


def _build(context: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, with a ``DomainError`` (a ``SchemaError`` too)
    raised as a ``SchemaError`` that ``context`` prefixes."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise SchemaError(f"{context}: {exc}") from None


def _checked(check: Callable[[Any, str], Any], value: Any, context: str) -> Any:
    """``check(value, context)``, a model rule, raising its error as a ``SchemaError``."""
    try:
        return check(value, context)
    except DomainError as exc:
        raise SchemaError(str(exc)) from None


# --------------------------------------------------------------------------
# architecture


def parse_architecture(doc: Mapping[str, Any]) -> frozenset[str]:
    """The declared asset ids; each asset's ``name`` and ``kind`` are checked, not kept."""
    _check_header(doc, "architecture", "architecture")
    ids: set[str] = set()
    entries = _list(_require(doc, "assets", "architecture"), "architecture.assets")
    for i, entry in enumerate(entries):
        context = f"architecture.assets[{i}]"
        entry = _object(entry, context)
        asset_id = _str(_require(entry, "id", context), f"{context}.id")
        _str(entry.get("name", asset_id), f"{context}.name")
        _enum(AssetKind, _require(entry, "kind", context), f"{context}.kind")
        if asset_id in ids:
            raise SchemaError(f"{context}.id: duplicate asset id {asset_id!r}")
        ids.add(asset_id)
    return frozenset(ids)


def load_architecture(path: str | Path) -> frozenset[str]:
    return parse_architecture(_read_json(path))


# --------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class Catalog:
    name: str
    responses: tuple[ResponseSpec, ...]


def _parse_vector(doc: Any, context: str, make: Callable[..., Any], levels: tuple[str, ...]) -> Any:
    """``make(*levels, *weights)``: each level key is required, and each
    ``w_<level>`` weight is 1.0 unless given."""
    doc = _object(doc, context)
    values = [_require(doc, key, context) for key in levels]
    return _build(context, make, *values, *[doc.get(f"w_{key}", 1.0) for key in levels])


def _parse_stop(doc: Any, context: str) -> StopCondition:
    doc = _object(doc, context)
    kind = _enum(StopKind, _require(doc, "kind", context), f"{context}.kind")
    return _build(context, StopCondition, kind, doc.get("seconds"))


def _parse_response(doc: Any, context: str, shared: dict[Any, Any]) -> ResponseSpec:
    """One entry, built from the values its catalog has already parsed:
    ``shared`` maps each precondition text to its parse, and each
    ``applies_to`` set and stop rule to the first one equal to it.  The
    ``ResponseSpec`` checks the index, both flags and the applies rule."""
    doc = _object(doc, context)
    index = _require(doc, "index", context)
    applies = frozenset(
        _enum(IntrusionResult, value, f"{context}.applies_to")
        for value in _list(doc.get("applies_to", []), f"{context}.applies_to")
    )
    text = _str(doc.get("precondition", "true"), f"{context}.precondition")
    precondition = shared.get(text)
    if precondition is None:
        try:
            precondition = shared[text] = Precondition.parse(text)
        except PreconditionError as exc:
            raise SchemaError(f"{context}.precondition: {exc}") from None
    benefit = _parse_vector(_require(doc, "benefit", context), f"{context}.benefit",
                            ImpactVector, ("s", "f", "o", "p"))
    action = _str(_require(doc, "action", context), f"{context}.action")
    place = _enum(Place, doc.get("place", "destination"), f"{context}.place")
    stop = _parse_stop(doc.get("stop", {"kind": "persistent"}), f"{context}.stop")
    return _build(
        context, ResponseSpec,
        index=index,
        action=action,
        applicable_results=shared.setdefault(applies, applies),
        is_general=doc.get("general", False),
        precondition=precondition,
        place=place,
        stop=shared.setdefault(stop, stop),
        cost=_parse_vector(_require(doc, "cost", context), f"{context}.cost",
                           CostVector, ("a", "perf")),
        benefit=benefit,
        original_benefit=benefit,
        terminal=doc.get("terminal", False),
    )


def parse_catalog(doc: Mapping[str, Any], base_dir: str | Path = ".") -> Catalog:
    """Parse a catalog; an overlay's ``extends`` is relative to ``base_dir``."""
    return _parse_catalog(doc, base_dir)[0]


def _parse_catalog(
    doc: Mapping[str, Any], base_dir: str | Path
) -> tuple[Catalog, tuple[str, bytes] | None]:
    """The catalog, and for an overlay its base's path and bytes."""
    _check_header(doc, "catalog", "catalog")
    entries = _list(_require(doc, "responses", "catalog"), "catalog.responses")
    responses: dict[int, ResponseSpec] = {}
    shared: dict[Any, Any] = {}
    for i, entry in enumerate(entries):
        context = f"catalog.responses[{i}]"
        spec = _parse_response(entry, context, shared)
        if spec.index in responses:
            raise SchemaError(f"{context}.index: duplicate response index {spec.index}")
        responses[spec.index] = spec
    base = None
    if "extends" in doc:
        ref = _str(doc["extends"], "catalog.extends")
        path = str(Path(base_dir) / ref)
        data, catalog, _ = _build(f"catalog.extends: {ref}", _load, path, True)
        kept = {spec.index: spec for spec in catalog.responses}
        for i, index in enumerate(_list(doc.get("remove", []), "catalog.remove")):
            if type(index) is not int or kept.pop(index, None) is None:
                raise SchemaError(f"catalog.remove[{i}]: {ref} has no response index {index!r}")
        base, responses = (path, data), dict(sorted({**kept, **responses}.items()))
    elif "remove" in doc:
        raise SchemaError("catalog.remove: only an overlay (with extends) removes entries")
    specs = _build("catalog", CatalogResponses, responses.values())
    return Catalog(_str(doc.get("name", ""), "catalog.name"), specs), base


#: Path as given -> (its bytes, their catalog, an overlay's base path and bytes or None).
_catalogs: dict[str, tuple[bytes, Catalog, tuple[str, bytes] | None]] = {}


def load_catalog(path: str | Path) -> Catalog:
    """Load a catalog file, parsing it only when its bytes have changed.

    Every call reads the file, and an overlay's call also reads its base.
    When the bytes of both equal the ones kept for this path, the kept
    catalog is returned: the same shared, immutable object.  Content is
    compared, not mtime or size, so a same-size rewrite within one mtime
    tick is still seen.  A load that fails stores nothing.  Two threads
    loading the same changed file at once at worst both parse it.  A parse
    builds each distinct precondition text, ``applies_to`` set and stop
    rule once and shares it between that catalog's entries.
    """
    return _load(str(path))[1]


def _load(path: str, as_base: bool = False) -> tuple[bytes, Catalog, tuple[str, bytes] | None]:
    """The cache entry for ``path``, parsed again unless the file's bytes,
    and an overlay's base's, are the kept ones; a base may not be an overlay."""
    data = _read_bytes(path)
    kept = _catalogs.get(path)
    if kept is not None and kept[0] == data and (
        kept[2] is None or not as_base and _read_bytes(kept[2][0]) == kept[2][1]
    ):
        return kept
    doc = _decode_json(data, path)
    if as_base and "extends" in _object(doc, "catalog"):
        raise SchemaError("an overlay's base must be a full catalog, not another overlay")
    kept = _catalogs[path] = (data, *_parse_catalog(doc, Path(path).parent))
    return kept


# --------------------------------------------------------------------------
# scenario

#: The run modes; a scenario's ``catalog_overrides`` keys name one of them.
MODES = ("static", "dynamic-success", "dynamic-fail", "velocity-sweep")

#: An ``effects`` key: a response index as ``str(index)`` spells it, within
#: the 4,300 digits ``int`` converts (a JSON index cannot have more either).
_INDEX_KEY = re.compile("0|[1-9][0-9]{0,4299}")


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario document.  It stores copies of the initial facts,
    of both levels of ``effects`` and of ``catalog_overrides`` as read-only
    ``MappingProxyType`` views, so no caller can change what a later
    ``event()`` or run reads."""

    name: str
    architecture_ref: str
    initial_event: IntrusionEvent
    catalog_ref: str
    catalog_overrides: Mapping[str, str]
    effects: Mapping[int, Mapping[str, bool]]
    base_dir: Path = field(default=Path("."), compare=False)

    def __post_init__(self) -> None:
        event, put = self.initial_event, object.__setattr__
        facts = MappingProxyType(dict(event.vehicle.facts))
        put(self, "initial_event",
            replace(event, vehicle=VehicleState(event.vehicle.velocity_kmh, facts)))
        put(self, "catalog_overrides", MappingProxyType(dict(self.catalog_overrides)))
        put(self, "effects", MappingProxyType(
            {index: MappingProxyType(dict(flags)) for index, flags in self.effects.items()}
        ))

    def event(self, velocity_kmh: float | None = None) -> IntrusionEvent:
        """``initial_event`` with a facts dict of its own, so a run that
        changes its facts leaves the scenario's as they were; at
        ``velocity_kmh``, if given, with E derived from it and ``w_e`` kept."""
        event = self.initial_event
        velocity = event.vehicle.velocity_kmh if velocity_kmh is None else velocity_kmh
        env = EnvironmentTerm(environment_from_velocity(velocity), event.env.w_e)
        return replace(event, env=env, vehicle=VehicleState(velocity, dict(event.vehicle.facts)))

    def catalog_path(self, mode: str, algorithm: str) -> Path:
        """The catalog for a run mode/algorithm combination, under ``base_dir``.

        Lookup order: exact "mode:algorithm" override, then "mode:*",
        then the default ``catalog_ref``.
        """
        ref = self.catalog_overrides.get(f"{mode}:{algorithm}")
        if ref is None:
            ref = self.catalog_overrides.get(f"{mode}:*")
        if ref is None:
            ref = self.catalog_ref
        return self.base_dir / ref

    def architecture_path(self) -> Path:
        return self.base_dir / self.architecture_ref

    def __reduce__(self):
        """Copy and pickle through the constructor, with plain dicts: a
        ``MappingProxyType`` cannot be pickled."""
        event = self.initial_event
        vehicle = VehicleState(event.vehicle.velocity_kmh, dict(event.vehicle.facts))
        effects = {index: dict(flags) for index, flags in self.effects.items()}
        return Scenario, (self.name, self.architecture_ref, replace(event, vehicle=vehicle),
                          self.catalog_ref, dict(self.catalog_overrides), effects, self.base_dir)


def parse_scenario(doc: Mapping[str, Any], base_dir: str | Path = ".") -> Scenario:
    _check_header(doc, "scenario", "scenario")
    context = "scenario"
    effects: dict[int, dict[str, bool]] = {}
    for index, updates in _object(doc.get("effects", {}), f"{context}.effects").items():
        if not (isinstance(index, str) and _INDEX_KEY.fullmatch(index)):
            raise SchemaError(f"{context}.effects.{index}: key is not a response index")
        path = f"{context}.effects.{index}"
        effects[int(index)] = _checked(check_facts, _object(updates, path), path)
    overrides: dict[str, str] = {}
    declared = _object(doc.get("catalog_overrides", {}), f"{context}.catalog_overrides")
    for key, ref in declared.items():
        mode, _, algorithm = str(key).partition(":")
        if mode not in MODES or algorithm != "*" and algorithm not in ALGORITHMS:
            raise SchemaError(
                f"{context}.catalog_overrides.{key}: not <mode>:<algorithm> or <mode>:* "
                f"(modes: {', '.join(MODES)}; algorithms: {', '.join(ALGORITHMS)})"
            )
        overrides[key] = _str(ref, f"{context}.catalog_overrides.{key}")
    name = _str(_require(doc, "name", context), f"{context}.name")
    architecture_ref = _str(doc.get("architecture_ref", "architecture.json"),
                            f"{context}.architecture_ref")
    infected = _str(_require(doc, "infected_asset", context), f"{context}.infected_asset")
    affected = _str(_require(doc, "affected_asset", context), f"{context}.affected_asset")
    result = _enum(IntrusionResult, _require(doc, "intrusion_result", context),
                   f"{context}.intrusion_result")
    velocity = _checked(check_weight, _require(doc, "velocity_kmh", context),
                        f"{context}.velocity_kmh")
    params = _parse_vector(_require(doc, "impact_params", context), f"{context}.impact_params",
                           ImpactVector, ("s", "f", "o", "p"))
    w_e = _checked(check_weight, doc.get("environment_weight", 1.0), f"{context}.environment_weight")
    facts = _object(doc.get("facts", {}), f"{context}.facts")
    vehicle = VehicleState(velocity, _checked(check_facts, facts, f"{context}.facts"))
    catalog_ref = _str(_require(doc, "catalog_ref", context), f"{context}.catalog_ref")
    # E is at most 100, so no velocity gives a larger impact than this.
    _checked(check_total, params.total + w_e * 100,
             f"{context}.environment_weight: impact at E = 100")
    event = IntrusionEvent(infected, affected, result, params,
                           EnvironmentTerm(environment_from_velocity(velocity), w_e), vehicle)
    return Scenario(name, architecture_ref, event, catalog_ref, overrides, effects, Path(base_dir))


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    scenario = parse_scenario(_read_json(path), base_dir=path.parent)
    architecture = _build(f"scenario.architecture_ref: {scenario.architecture_ref}",
                          load_architecture, scenario.architecture_path())
    event = scenario.initial_event
    for role, asset_id in (
        ("infected_asset", event.infected_asset),
        ("affected_asset", event.affected_asset),
    ):
        if asset_id not in architecture:
            raise SchemaError(f"scenario.{role}: {asset_id!r} not in architecture")
    return scenario


# --------------------------------------------------------------------------
# generic entry points


def _read_bytes(path: str | Path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}") from None
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except ValueError as exc:  # a NUL, or a lone surrogate the file system cannot encode
        raise SchemaError(f"{str(path)!r}: not a usable path ({exc})") from None


def _decode_json(data: bytes, path: str | Path) -> Any:
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    except (ValueError, RecursionError) as exc:  # too many int digits, or nested too deep
        raise SchemaError(f"{path}: beyond the JSON parser's limits ({exc})") from None


def _read_json(path: str | Path) -> Any:
    return _decode_json(_read_bytes(path), path)


def validate_file(path: str | Path) -> str:
    """Validate any known document kind; returns the kind on success.

    A scenario is loaded as ``load_scenario`` loads it, and then so is every
    catalog it names, its ``catalog_ref`` and each ``catalog_overrides``
    value, relative to the scenario's directory."""
    doc = _object(_read_json(path), str(path))
    kind = doc.get("kind")
    if kind == "architecture":
        parse_architecture(doc)
    elif kind == "catalog":
        parse_catalog(doc, base_dir=Path(path).parent)
    elif kind == "scenario":
        scenario = load_scenario(path)
        refs = {"catalog_ref": scenario.catalog_ref}
        refs.update((f"catalog_overrides.{key}", ref)
                    for key, ref in scenario.catalog_overrides.items())
        for name, ref in refs.items():
            _build(f"scenario.{name}: {ref}", load_catalog, scenario.base_dir / ref)
    else:
        raise SchemaError(f"{path}: unknown document kind {kind!r}")
    return str(kind)


def resolve_scenario_ref(ref: str) -> Path:
    """Accept either a filesystem path or the name of a packaged scenario."""
    path = Path(ref)
    if path.exists():
        return path
    packaged = data_dir() / (ref if ref.endswith(".json") else f"{ref}.json")
    if packaged.exists():
        return packaged
    raise SchemaError(f"scenario not found: {ref!r} (no such file or packaged scenario)")
