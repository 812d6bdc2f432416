"""JSON file formats: architecture, response catalog, and scenario.

Every document carries ``schema_version`` and a ``kind`` discriminator.
Parsing is strict: unknown enum values, bad levels, non-boolean flags,
duplicate indices and unresolvable references all raise
:class:`SchemaError`, and so do a file that cannot be read or is not
UTF-8 and a top level that is not a JSON object: a loader lets no other
error escape.  Keys the schema does not name are ignored.

A catalog is parsed once per path and file content: ``load_catalog``
reads the file's bytes on every call and returns the catalog it kept for
that path while they are unchanged.  A returned catalog is therefore
shared between callers; it is immutable, like everything it holds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .model import (
    Asset,
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
    check_weight,
)
from .preconditions import Precondition, PreconditionError

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
    if version != SCHEMA_VERSION:
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


def _bool(value: Any, context: str) -> bool:
    if type(value) is not bool:
        raise SchemaError(f"{context}: expected true or false, got {value!r}")
    return value


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


def _flags(doc: Any, context: str) -> dict[str, bool]:
    return {str(k): _bool(v, f"{context}.{k}") for k, v in _object(doc, context).items()}


# --------------------------------------------------------------------------
# architecture


def parse_architecture(doc: Mapping[str, Any]) -> dict[str, Asset]:
    _check_header(doc, "architecture", "architecture")
    assets: dict[str, Asset] = {}
    entries = _list(_require(doc, "assets", "architecture"), "architecture.assets")
    for i, entry in enumerate(entries):
        context = f"architecture.assets[{i}]"
        entry = _object(entry, context)
        asset = Asset(
            id=_str(_require(entry, "id", context), f"{context}.id"),
            name=_str(entry.get("name", entry["id"]), f"{context}.name"),
            kind=_enum(AssetKind, _require(entry, "kind", context), f"{context}.kind"),
        )
        if asset.id in assets:
            raise SchemaError(f"{context}.id: duplicate asset id {asset.id!r}")
        assets[asset.id] = asset
    return assets


def load_architecture(path: str | Path) -> dict[str, Asset]:
    return parse_architecture(_read_json(path))


# --------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class Catalog:
    name: str
    responses: tuple[ResponseSpec, ...]

    def by_index(self, index: int) -> ResponseSpec:
        for spec in self.responses:
            if spec.index == index:
                return spec
        raise KeyError(index)


def _parse_impact_vector(doc: Any, context: str) -> ImpactVector:
    doc = _object(doc, context)
    try:
        return ImpactVector(
            s=_require(doc, "s", context),
            f=_require(doc, "f", context),
            o=_require(doc, "o", context),
            p=_require(doc, "p", context),
            w_s=doc.get("w_s", 1.0),
            w_f=doc.get("w_f", 1.0),
            w_o=doc.get("w_o", 1.0),
            w_p=doc.get("w_p", 1.0),
        )
    except DomainError as exc:
        raise SchemaError(f"{context}: {exc}") from None


def _parse_cost_vector(doc: Any, context: str) -> CostVector:
    doc = _object(doc, context)
    try:
        return CostVector(
            a=_require(doc, "a", context),
            perf=_require(doc, "perf", context),
            w_a=doc.get("w_a", 1.0),
            w_perf=doc.get("w_perf", 1.0),
        )
    except DomainError as exc:
        raise SchemaError(f"{context}: {exc}") from None


def _parse_stop(doc: Any, context: str) -> StopCondition:
    doc = _object(doc, context)
    kind = _enum(StopKind, _require(doc, "kind", context), f"{context}.kind")
    try:
        return StopCondition(kind=kind, seconds=doc.get("seconds"))
    except DomainError as exc:
        raise SchemaError(f"{context}: {exc}") from None


def _parse_response(doc: Any) -> ResponseSpec:
    doc = _object(doc, "response")
    index = _require(doc, "index", "response")
    context = f"response {index!r}"
    if type(index) is not int:
        raise SchemaError(f"{context}: index must be an integer")
    is_general = _bool(doc.get("general", False), f"{context}.general")
    applies = frozenset(
        _enum(IntrusionResult, value, f"{context}.applies_to")
        for value in _list(doc.get("applies_to", []), f"{context}.applies_to")
    )
    if not is_general and not applies:
        raise SchemaError(f"{context}: needs applies_to entries or general=true")
    try:
        precondition = Precondition.parse(
            _str(doc.get("precondition", "true"), f"{context}.precondition")
        )
    except PreconditionError as exc:
        raise SchemaError(f"{context}: bad precondition: {exc}") from None
    benefit = _parse_impact_vector(_require(doc, "benefit", context), f"{context}.benefit")
    return ResponseSpec(
        index=index,
        action=_str(_require(doc, "action", context), f"{context}.action"),
        applicable_results=applies,
        is_general=is_general,
        precondition=precondition,
        place=_enum(Place, doc.get("place", "destination"), f"{context}.place"),
        stop=_parse_stop(doc.get("stop", {"kind": "persistent"}), f"{context}.stop"),
        cost=_parse_cost_vector(_require(doc, "cost", context), f"{context}.cost"),
        benefit=benefit,
        original_benefit=benefit,
        terminal=_bool(doc.get("terminal", False), f"{context}.terminal"),
    )


def parse_catalog(doc: Mapping[str, Any]) -> Catalog:
    _check_header(doc, "catalog", "catalog")
    entries = _list(_require(doc, "responses", "catalog"), "catalog.responses")
    responses = tuple(_parse_response(d) for d in entries)
    seen: set[int] = set()
    for spec in responses:
        if spec.index in seen:
            raise SchemaError(f"duplicate response index {spec.index}")
        seen.add(spec.index)
    terminals = [spec for spec in responses if spec.terminal]
    if len(terminals) != 1:
        raise SchemaError(f"catalog needs exactly one terminal entry, found {len(terminals)}")
    return Catalog(name=_str(doc.get("name", ""), "catalog.name"), responses=responses)


#: Path as given -> (the file's bytes, the catalog parsed from them).
_catalogs: dict[str, tuple[bytes, Catalog]] = {}


def load_catalog(path: str | Path) -> Catalog:
    """Load a catalog file, parsing it only when its bytes have changed.

    Every call reads the file.  When its bytes equal the ones kept for this
    path, the kept catalog is returned: the same shared, immutable object.
    Content is compared, not mtime or size, so a same-size rewrite within
    one mtime tick is still seen.  A load that fails stores nothing.  Two
    threads loading the same changed file at once at worst both parse it.
    """
    data = _read_bytes(path)
    key = str(path)
    kept = _catalogs.get(key)
    if kept is not None and kept[0] == data:
        return kept[1]
    catalog = parse_catalog(_decode_json(data, path))
    _catalogs[key] = (data, catalog)
    return catalog


# --------------------------------------------------------------------------
# scenario


@dataclass(frozen=True)
class Scenario:
    name: str
    architecture_ref: str
    infected_asset: str
    affected_asset: str
    intrusion_result: IntrusionResult
    velocity_kmh: float
    impact_params: ImpactVector
    environment_weight: float
    facts: Mapping[str, bool]
    catalog_ref: str
    catalog_overrides: Mapping[str, str]
    effects: Mapping[int, Mapping[str, bool]]
    base_dir: Path = field(default=Path("."), compare=False)

    def event(self, velocity_kmh: float | None = None) -> IntrusionEvent:
        from .risk import environment_from_velocity

        velocity = self.velocity_kmh if velocity_kmh is None else velocity_kmh
        return IntrusionEvent(
            infected_asset=self.infected_asset,
            affected_asset=self.affected_asset,
            result=self.intrusion_result,
            impact_params=self.impact_params,
            env=EnvironmentTerm(
                e=environment_from_velocity(velocity), w_e=self.environment_weight
            ),
            vehicle=VehicleState(velocity_kmh=velocity, facts=dict(self.facts)),
        )

    def catalog_path(self, mode: str, algorithm: str) -> Path:
        """Resolve the catalog for a run mode/algorithm combination.

        Lookup order: exact "mode:algorithm" override, then "mode:*",
        then the default ``catalog_ref``.
        """
        ref = self.catalog_overrides.get(f"{mode}:{algorithm}")
        if ref is None:
            ref = self.catalog_overrides.get(f"{mode}:*")
        if ref is None:
            ref = self.catalog_ref
        return (self.base_dir / ref).resolve()

    def architecture_path(self) -> Path:
        return (self.base_dir / self.architecture_ref).resolve()


def parse_scenario(doc: Mapping[str, Any], base_dir: str | Path = ".") -> Scenario:
    _check_header(doc, "scenario", "scenario")
    context = f"scenario {doc.get('name', '?')!r}"
    effects: dict[int, dict[str, bool]] = {}
    for index, updates in _object(doc.get("effects", {}), f"{context}.effects").items():
        try:
            key = int(index)
        except ValueError:
            raise SchemaError(f"{context}: effects keys must be response indices") from None
        effects[key] = _flags(updates, f"{context}.effects.{index}")
    overrides = _object(doc.get("catalog_overrides", {}), f"{context}.catalog_overrides")
    overrides = {k: _str(v, f"{context}.catalog_overrides.{k}") for k, v in overrides.items()}
    velocity = _require(doc, "velocity_kmh", context)
    try:
        velocity = check_weight(velocity, "velocity_kmh")
        environment_weight = check_weight(doc.get("environment_weight", 1.0), "environment_weight")
    except DomainError as exc:
        raise SchemaError(f"{context}: {exc}") from None
    return Scenario(
        name=_str(_require(doc, "name", context), f"{context}.name"),
        architecture_ref=_str(doc.get("architecture_ref", "architecture.json"),
                              f"{context}.architecture_ref"),
        infected_asset=_str(_require(doc, "infected_asset", context), f"{context}.infected_asset"),
        affected_asset=_str(_require(doc, "affected_asset", context), f"{context}.affected_asset"),
        intrusion_result=_enum(
            IntrusionResult,
            _require(doc, "intrusion_result", context),
            f"{context}.intrusion_result",
        ),
        velocity_kmh=velocity,
        impact_params=_parse_impact_vector(
            _require(doc, "impact_params", context), f"{context}.impact_params"
        ),
        environment_weight=environment_weight,
        facts=_flags(doc.get("facts", {}), f"{context}.facts"),
        catalog_ref=_str(_require(doc, "catalog_ref", context), f"{context}.catalog_ref"),
        catalog_overrides=overrides,
        effects=effects,
        base_dir=Path(base_dir),
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    scenario = parse_scenario(_read_json(path), base_dir=path.parent)
    architecture = load_architecture(scenario.architecture_path())
    for role, asset_id in (
        ("infected_asset", scenario.infected_asset),
        ("affected_asset", scenario.affected_asset),
    ):
        if asset_id not in architecture:
            raise SchemaError(
                f"scenario {scenario.name!r}: {role} {asset_id!r} not in architecture"
            )
    return scenario


# --------------------------------------------------------------------------
# generic entry points


def _read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}") from None
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc.strerror or exc})") from None


def _decode_json(data: bytes, path: str | Path) -> Any:
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


def _read_json(path: str | Path) -> Any:
    return _decode_json(_read_bytes(path), path)


def validate_file(path: str | Path) -> str:
    """Validate any known document kind; returns the kind on success."""
    doc = _object(_read_json(path), str(path))
    kind = doc.get("kind")
    if kind == "architecture":
        parse_architecture(doc)
    elif kind == "catalog":
        parse_catalog(doc)
    elif kind == "scenario":
        load_scenario(path)
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
