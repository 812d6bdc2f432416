"""Domain types shared by every layer: the asset kinds an architecture
may declare, intrusion events, the four-level impact bundles, and
response catalog entries, with the velocity bands that set the
environment level E (``environment_from_velocity``).

Impact-style values live on the discrete level scale {0, 1, 10, 100};
weights are non-negative reals.  Every type here is immutable, safe to
share between threads: no field can be reassigned, and a
``VehicleState`` keeps a read-only copy of the facts it checked, never
its caller's mapping, so no write after the build reaches a decision;
that copy makes it and its ``IntrusionEvent`` unhashable.  Not so
``responses.CatalogResponses``, which fills its memo of sets lazily.
Each input rule is stated here once, in a ``check_*`` function or a
``__post_init__``, and the other modules apply it.  Each type checks its
fields where it is built, never coercing them: a vector its levels and
weights, a ``VehicleState`` its velocity and facts, an
``IntrusionEvent`` its result and the types of its parts, a
``ResponseSpec`` its index, flags, place, applies rule and the types of
its parts.  An ``IntrusionEvent`` also derives its ``impact`` there,
once, and checks that it is finite, so an overflowing impact is rejected
when the event is built, not when it is decided on.  Only values derived
from checked ones skip the checks: adaptation's
``ImpactVector._unchecked`` and ``ResponseSpec.with_benefit``, and an
``IntrusionEvent``'s ``at_velocity``, which checks the new velocity,
once, and ``_with_facts``, which merges an engine's checked effects.

The records the decision loop builds per candidate, ranking step,
attempt, iteration and emitted row (``CandidateInstance`` here,
``selection.SelectionOutcome``, ``engine.Attempt``,
``engine.IterationRecord``, ``harness.SelectionRow``) are
``typing.NamedTuple``s: cheaper to build than frozen dataclasses, whose
``__init__`` calls ``object.__setattr__`` per field.  Those built per
ranking step or decision, every ``SelectionOutcome`` a selection ranker
yields, every ``Attempt`` of ``engine.inner_loop`` and every
``IterationRecord`` of ``engine.Engine.run``, are built with
``tuple.__new__`` directly: a NamedTuple's own ``__new__`` is a Python
function that makes the same call after checking the arity, so this
spares a frame per record, and ``tests/test_records.py`` pins the arity
instead.  The records are immutable and hashable, and also equal to a
plain tuple of their fields.  A ``CandidateInstance`` is built from its
spec and target alone and derives its other four fields, the catalog
index, the static cost and benefit totals and the terminal flag, from
the spec, so the hot path reads each in one field load.  The input types
stay frozen dataclasses; ``ImpactVector`` and ``CostVector`` are slotted.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .preconditions import FACT_NAME, Precondition, is_fact_name

#: The only admissible discrete impact levels.
LEVELS = (0, 1, 10, 100)
#: For the vectors' one test of their common form: a set and a global are
#: faster to read there than the tuple and ``math.inf``.
_LEVEL_SET = frozenset(LEVELS)
_INF = math.inf


class DomainError(ValueError):
    """A value outside the modeled domain (bad level, negative velocity, ...)."""


def check_level(value: int, what: str = "level") -> int:
    # ``True == 1``, so a JSON ``true`` would pass the membership test alone.
    if value not in LEVELS or type(value) is bool:
        raise DomainError(f"{what} must be one of {LEVELS}, got {value!r}")
    return value


def check_weight(value: float, what: str = "weight") -> float:
    """A finite non-negative number, as given: an int stays an int.  Rejects
    bool, non-numbers, infinities, NaN, which fails the range test because
    every comparison with it is false, ``-0.0``, which passes it, and ints
    too large to convert to a float, on which ``math.copysign`` overflows."""
    try:
        if 0 <= value < math.inf and type(value) is not bool and math.copysign(1, value) > 0:
            return value
    except (TypeError, OverflowError):
        pass
    raise DomainError(f"{what} must be a finite non-negative number, got {value!r}")


def check_total(total: float, what: str = "weighted total") -> float:
    """Accept a weighted sum that a float holds: finite levels and weights
    can still overflow one to infinity, or int weights to an int no float
    can hold."""
    if total <= sys.float_info.max:
        return total
    raise DomainError(f"{what} must be finite, got {total!r}")


def check_flag(value: bool, what: str) -> bool:
    """A flag, as given: a ``bool``, not ``0``, ``1`` or a string."""
    if type(value) is not bool:
        raise DomainError(f"{what}: expected true or false, got {value!r}")
    return value


def check_facts(facts: Mapping[str, bool], what: str) -> Mapping[str, bool]:
    """A fact map, as given: names a precondition can read, each to a flag."""
    if not isinstance(facts, Mapping):
        raise DomainError(f"{what}: expected a mapping of facts to flags, got {facts!r}")
    for name, value in facts.items():
        if not is_fact_name(name):
            raise DomainError(f"{what}.{name}: not a fact name ({FACT_NAME}, not true or false)")
        check_flag(value, f"{what}.{name}")
    return facts


def environment_from_velocity(velocity_kmh: float) -> int:
    """Map velocity (km/h) onto the discrete environment level E.

    Bands are half-open: [0, 30) -> 0, [30, 50) -> 1, [50, 75) -> 10,
    [75, inf) -> 100.  The velocity must pass ``check_weight``, as in
    ``VehicleState``: a negative number, ``-0.0``, an infinity, NaN, a bool,
    a non-number or an int too large for a float is a ``DomainError``.
    """
    velocity_kmh = check_weight(velocity_kmh, "velocity")
    if velocity_kmh >= 75:
        return 100
    if velocity_kmh >= 50:
        return 10
    if velocity_kmh >= 30:
        return 1
    return 0


def _changed(value, **changes):
    """``dataclasses.replace(value, **changes)`` without ``__post_init__``:
    only for changes that are checked or derived from checked values.
    Fields are set one by one, as ``__init__`` sets them: writing the
    instance ``__dict__`` instead would make it a dict of its own, about
    50 bytes more per object than the layout instances of a class share."""
    new = object.__new__(type(value))
    for name in value.__dataclass_fields__:
        object.__setattr__(new, name, changes[name] if name in changes else getattr(value, name))
    return new


def _check_type(value, kind: type, what: str) -> None:
    """A part of a built value must be a ``kind``, as given, not something
    that only reads like one."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{what} must be {article} {kind.__name__}, got {value!r}")


class AssetKind(str, Enum):
    SENSOR = "sensor"
    ECU = "ecu"
    GATEWAY = "gateway"
    BUS = "bus"


class IntrusionResult(str, Enum):
    """The five modeled classes of what an intrusion does to a system."""

    FALSIFY_ALTER_INFORMATION = "falsify_alter_information"
    FALSIFY_ALTER_TIMING = "falsify_alter_timing"
    INFORMATION_DISCLOSURE = "information_disclosure"
    SYSTEM_UNAVAILABILITY = "system_unavailability"
    FALSIFY_ALTER_BEHAVIOR = "falsify_alter_behavior"


class Place(str, Enum):
    """Where a response is applied relative to the intrusion path."""

    SOURCE = "source"
    DESTINATION = "destination"
    BOTH = "both"


class StopKind(str, Enum):
    AFTER_DURATION = "after_duration"
    POLICY_REESTABLISHED = "policy_reestablished"
    PERSISTENT = "persistent"


@dataclass(frozen=True, slots=True)
class ImpactVector:
    """Safety/financial/operational/privacy levels with their weights.

    Used both for intrusion impact parameters and for response benefits.
    ``total`` is the weighted sum, computed once when the vector is built
    and left out of ``==``, ``hash`` and ``repr``: the vector is immutable,
    and adaptation builds a new one.  The sum starts at int 0, as
    ``sum()`` did on Python 3.10 and 3.11, so its type and bits match:
    int weights give an int total.

    One test accepts the form every shipped and generated catalog carries:
    ``int`` levels in ``LEVELS`` and ``float`` weights with
    ``0.0 < w < inf``.  Any other value, valid or not, goes through
    ``check_level`` and ``check_weight`` field by field, which still accept
    an int or ``0.0`` weight and a float level, and raise the message of
    the first field that fails.
    """

    s: int
    f: int
    o: int
    p: int
    w_s: float = 1.0
    w_f: float = 1.0
    w_o: float = 1.0
    w_p: float = 1.0
    total: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        s, f, o, p, w_s, w_f, w_o, w_p = (
            self.s, self.f, self.o, self.p, self.w_s, self.w_f, self.w_o, self.w_p
        )
        if not (type(s) is type(f) is type(o) is type(p) is int
                and s in _LEVEL_SET and f in _LEVEL_SET and o in _LEVEL_SET and p in _LEVEL_SET
                and type(w_s) is type(w_f) is type(w_o) is type(w_p) is float
                and 0.0 < w_s < _INF and 0.0 < w_f < _INF and 0.0 < w_o < _INF and 0.0 < w_p < _INF):
            for name in ("s", "f", "o", "p"):
                check_level(getattr(self, name), name.upper())
            for name in ("w_s", "w_f", "w_o", "w_p"):
                check_weight(getattr(self, name), name)
        object.__setattr__(self, "total", check_total(0 + w_s * s + w_f * f + w_o * o + w_p * p))

    @classmethod
    def _unchecked(
        cls, s: int, f: int, o: int, p: int, w_s: float, w_f: float, w_o: float, w_p: float
    ) -> ImpactVector:
        """A vector built without validation, equal to ``cls(...)`` with the
        same ``total``.  Only adaptation (``engine.adapt_on_failure`` and
        ``engine.adapt_on_success``) calls it, with levels and weights that
        it derived from a valid vector and checked where they could fail.
        """
        new = object.__new__(cls)
        put = object.__setattr__
        put(new, "s", s)
        put(new, "f", f)
        put(new, "o", o)
        put(new, "p", p)
        put(new, "w_s", w_s)
        put(new, "w_f", w_f)
        put(new, "w_o", w_o)
        put(new, "w_p", w_p)
        put(new, "total", 0 + w_s * s + w_f * f + w_o * o + w_p * p)
        return new

    def levels(self) -> tuple[int, int, int, int]:
        return (self.s, self.f, self.o, self.p)

    def weights(self) -> tuple[float, float, float, float]:
        return (self.w_s, self.w_f, self.w_o, self.w_p)


@dataclass(frozen=True)
class EnvironmentTerm:
    """The dynamic context level E (derived from velocity) and its weight."""

    e: int
    w_e: float = 1.0

    def __post_init__(self) -> None:
        check_level(self.e, "E")
        check_weight(self.w_e, "w_e")


@dataclass(frozen=True)
class VehicleState:
    """Velocity and a read-only copy of the facts.  Copies and pickles go
    through the constructor: a ``MappingProxyType`` cannot be pickled."""

    velocity_kmh: float
    facts: Mapping[str, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_weight(self.velocity_kmh, "velocity_kmh")
        object.__setattr__(self, "facts", MappingProxyType(dict(check_facts(self.facts, "facts"))))

    def __reduce__(self):
        return VehicleState, (self.velocity_kmh, dict(self.facts))


@dataclass(frozen=True)
class IntrusionEvent:
    """One detector report: who attacked whom, what it does, how bad it is.

    ``impact`` is I = w_S*S + w_F*F + w_O*O + w_P*P + w_E*E, with E derived
    from the vehicle's velocity (the stored ``env.e`` is not read).  It is
    computed and checked to be finite once, when the event is built, and
    left out of ``==`` and ``repr``, like ``ImpactVector.total``.
    """

    infected_asset: str
    affected_asset: str
    result: IntrusionResult
    impact_params: ImpactVector
    env: EnvironmentTerm
    vehicle: VehicleState
    impact: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_type(self.result, IntrusionResult, "result")
        _check_type(self.impact_params, ImpactVector, "impact_params")
        _check_type(self.env, EnvironmentTerm, "env")
        _check_type(self.vehicle, VehicleState, "vehicle")
        object.__setattr__(self, "impact", check_total(
            self.impact_params.total
            + self.env.w_e * environment_from_velocity(self.vehicle.velocity_kmh),
            "event impact",
        ))

    def at_velocity(self, velocity_kmh: float) -> IntrusionEvent:
        """This event at ``velocity_kmh``, with E derived from it, ``w_e``
        kept and the read-only facts shared.  Only the velocity is checked,
        once, and the impact computed and checked again; the other parts
        were checked when this event was built."""
        e = environment_from_velocity(velocity_kmh)
        return _changed(
            self,
            env=_changed(self.env, e=e),
            vehicle=_changed(self.vehicle, velocity_kmh=velocity_kmh),
            impact=check_total(self.impact_params.total + self.env.w_e * e, "event impact"),
        )

    def _with_facts(self, updates: Mapping[str, bool]) -> IntrusionEvent:
        """This event with ``updates`` merged into a new read-only copy of
        its facts, equal to ``replace(self, vehicle=VehicleState(velocity,
        {**facts, **updates}))`` and keeping the impact, which does not read
        them.  Nothing is checked again: only ``engine.Engine.run`` calls
        it, with effects it checked when it was built."""
        facts = MappingProxyType({**self.vehicle.facts, **updates})
        return _changed(self, vehicle=_changed(self.vehicle, facts=facts))


@dataclass(frozen=True, slots=True)
class CostVector:
    """Availability / performance cost levels of applying a response;
    ``total`` is the weighted sum, computed once when the vector is built
    and left out of ``==``, ``hash`` and ``repr``, and the common form is
    accepted in one test, both like ``ImpactVector``."""

    a: int
    perf: int
    w_a: float = 1.0
    w_perf: float = 1.0
    total: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        a, perf, w_a, w_perf = self.a, self.perf, self.w_a, self.w_perf
        if not (type(a) is type(perf) is int and a in _LEVEL_SET and perf in _LEVEL_SET
                and type(w_a) is type(w_perf) is float and 0.0 < w_a < _INF and 0.0 < w_perf < _INF):
            check_level(a, "A")
            check_level(perf, "Perf")
            check_weight(w_a, "w_a")
            check_weight(w_perf, "w_perf")
        object.__setattr__(self, "total", check_total(w_a * a + w_perf * perf))


@dataclass(frozen=True)
class StopCondition:
    kind: StopKind
    seconds: float | None = None

    def __post_init__(self) -> None:
        if self.kind is StopKind.AFTER_DURATION:
            if self.seconds is None or check_weight(self.seconds, "seconds") <= 0:
                raise DomainError("after_duration stop requires positive seconds")
        elif self.seconds is not None:
            raise DomainError(f"{self.kind.value} stop takes no duration")


@dataclass(frozen=True)
class ResponseSpec:
    """One catalog entry.

    ``original_benefit`` is the pristine copy taken at load time; the
    adaptation logic restores levels from it and never mutates it.
    ``terminal`` marks the always-applicable "No Action" entry whose
    effective cost is pegged to the current intrusion impact.
    """

    index: int
    action: str
    applicable_results: frozenset[IntrusionResult]
    is_general: bool
    precondition: Precondition
    place: Place
    stop: StopCondition
    cost: CostVector
    benefit: ImpactVector
    original_benefit: ImpactVector
    terminal: bool = False

    def __post_init__(self) -> None:
        if type(self.index) is not int:
            raise DomainError(f"index: expected an integer, got {self.index!r}")
        check_flag(self.is_general, "general")
        check_flag(self.terminal, "terminal")
        if not self.is_general and not self.applicable_results:
            raise DomainError("needs applies_to entries or general=true")
        _check_type(self.place, Place, "place")
        _check_type(self.precondition, Precondition, "precondition")
        _check_type(self.stop, StopCondition, "stop")
        _check_type(self.cost, CostVector, "cost")
        _check_type(self.benefit, ImpactVector, "benefit")
        _check_type(self.original_benefit, ImpactVector, "original_benefit")

    def applies_to(self, result: IntrusionResult) -> bool:
        return self.is_general or result in self.applicable_results

    def with_benefit(self, benefit: ImpactVector) -> ResponseSpec:
        """A new spec equal to ``dataclasses.replace(self, benefit=benefit)``.

        It copies the instance ``__dict__`` and swaps ``benefit``, skipping
        the constructor: ``__post_init__`` would check fields this spec has
        passed, and the new ``ImpactVector`` validated itself when built.
        """
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, benefit=benefit)
        return new


# ``typing.NamedTuple`` forbids a ``__new__`` in the class body, so the
# fields live on this base and ``CandidateInstance`` defines the constructor.
class _CandidateFields(NamedTuple):
    response: ResponseSpec
    target_asset: str
    response_index: int
    cost: float
    benefit: float
    terminal: bool


class CandidateInstance(_CandidateFields):
    """A response bound to a concrete target asset.

    The same catalog entry can appear twice in a candidate set — once per
    involved asset — which is why selection operates on instances rather
    than on raw specs.

    Built as ``CandidateInstance(response, target_asset)``; the other four
    fields are derived from the spec when the instance is built: its
    ``index``, the static ``cost.total`` and ``benefit.total``, and
    ``terminal``.  The rankers and the inner loop read them in one field
    load each, not a chain through the spec.  The spec is immutable, so
    they never go stale: adaptation builds a new instance, ``_replace``
    derives them again, ``_make`` checks them, and ``copy``, ``deepcopy``
    and ``pickle`` rebuild the instance from the two arguments
    ``__getnewargs__`` returns.
    """

    __slots__ = ()

    def __new__(cls, response: ResponseSpec, target_asset: str) -> CandidateInstance:
        return tuple.__new__(cls, (
            response, target_asset, response.index, response.cost.total,
            response.benefit.total, response.terminal,
        ))

    def __getnewargs__(self) -> tuple[ResponseSpec, str]:
        return self[:2]

    def _replace(self, **changes) -> CandidateInstance:
        """A new instance with ``response`` or ``target_asset`` changed and
        the derived fields derived again; changing a derived field is a
        ``ValueError``."""
        new = CandidateInstance(
            changes.pop("response", self.response), changes.pop("target_asset", self.target_asset)
        )
        if changes:
            raise ValueError(f"cannot replace derived or unknown fields {sorted(changes)!r}")
        return new

    @classmethod
    def _make(cls, iterable) -> CandidateInstance:
        """The instance whose six fields ``iterable`` yields, built from the
        first two; derived fields that disagree are a ``ValueError``."""
        fields = tuple(iterable)
        new = cls(*fields[:2])
        if new != fields:
            raise ValueError(f"derived fields {fields[2:]!r} disagree with the spec's")
        return new
