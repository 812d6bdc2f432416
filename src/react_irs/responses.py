"""Response scoring and candidate-set generation.

A response's cost and benefit are weighted sums of discrete levels, in
the same shape as the intrusion impact:

    cost    c = w_A*A + w_Perf*Perf
    benefit b = w_S*S + w_F*F + w_O*O + w_P*P

Both sums are the vectors' cached ``total``s, so each is computed once
per vector however often a selection asks for it.  ``response_cost``,
``response_benefit`` and ``effective_cost`` remain the public scoring
API; the selectors and the inner loop read ``.total`` directly instead,
one attribute read per score rather than a call.

``generate_candidates`` turns a catalog plus an intrusion event into the
ordered list of concrete (response, target asset) instances the decision
loop selects from.
"""
from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Sequence

from .model import (
    CandidateInstance,
    CostVector,
    DomainError,
    ImpactVector,
    IntrusionEvent,
    Place,
    ResponseSpec,
)


class CatalogError(DomainError):
    """The catalog violates a structural requirement (e.g. no terminal entry)."""


_INDEX = attrgetter("index")


def response_cost(cost: CostVector) -> float:
    return cost.total


def response_benefit(benefit: ImpactVector) -> float:
    return benefit.total


def effective_cost(candidate: CandidateInstance, impact: float) -> float:
    """Cost used during selection.

    The terminal "No Action" entry carries no static cost; doing nothing
    costs exactly whatever the intrusion currently costs, so its
    effective cost is pegged to the impact at selection time.
    """
    if candidate.response.terminal:
        return float(impact)
    return response_cost(candidate.response.cost)


def generate_candidates(
    event: IntrusionEvent, catalog: Sequence[ResponseSpec]
) -> list[CandidateInstance]:
    """All applicable responses for an event, instantiated per target asset.

    Output order is fixed so traces are reproducible: result-specific
    entries first, then general ones, each group by ascending index; for
    duplicated entries the infected-asset instance precedes the
    affected-asset one.  An entry lies at its place; a ``both`` entry gets
    one instance per involved asset when the two assets differ.  When no
    applicable entry is terminal, the catalog's first terminal entry is
    appended.
    """
    result = event.result
    specific: list[ResponseSpec] = []
    general: list[ResponseSpec] = []
    terminal: ResponseSpec | None = None
    for spec in catalog:
        if spec.is_general:
            general.append(spec)
        elif result in spec.applicable_results:
            specific.append(spec)
        if terminal is None and spec.terminal:
            terminal = spec
    if terminal is None:
        raise CatalogError("catalog is missing the terminal 'No Action' entry")
    specific.sort(key=_INDEX)
    general.sort(key=_INDEX)
    if not terminal.applies_to(result) and not any(
        spec.terminal for spec in chain(specific, general)
    ):
        general.append(terminal)

    infected, affected = event.infected_asset, event.affected_asset
    same = infected == affected
    candidates: list[CandidateInstance] = []
    append = candidates.append
    for spec in chain(specific, general):
        # Destination first: most entries take this branch with a single
        # enum member lookup, which is slow on Python 3.11.
        if spec.place is Place.DESTINATION or same:
            append(CandidateInstance(spec, affected))
        elif spec.place is Place.SOURCE:
            append(CandidateInstance(spec, infected))
        else:
            append(CandidateInstance(spec, infected))
            append(CandidateInstance(spec, affected))
    return candidates
