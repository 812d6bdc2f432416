"""Response scoring and candidate-set generation.

A response's cost and benefit are weighted sums of discrete levels, in
the same shape as the intrusion impact:

    cost    c = w_A*A + w_Perf*Perf
    benefit b = w_S*S + w_F*F + w_O*O + w_P*P

Both sums are the vectors' cached ``total``s, so each is computed once
per vector however often a selection asks for it.

``generate_candidates`` turns a catalog plus an intrusion event into the
ordered list of concrete (response, target asset) instances the decision
loop selects from.
"""
from __future__ import annotations

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


def _instantiate(spec: ResponseSpec, event: IntrusionEvent) -> list[CandidateInstance]:
    """One instance at the entry's place; a ``both`` entry gets one per
    involved asset, infected first, when the two assets differ."""
    infected, affected = event.infected_asset, event.affected_asset
    # Destination first: most entries take this branch with a single enum
    # member lookup, which is slow on Python 3.11.
    if spec.place is Place.DESTINATION or infected == affected:
        return [CandidateInstance(spec, affected)]
    if spec.place is Place.SOURCE:
        return [CandidateInstance(spec, infected)]
    return [CandidateInstance(spec, infected), CandidateInstance(spec, affected)]


def generate_candidates(
    event: IntrusionEvent, catalog: Sequence[ResponseSpec]
) -> list[CandidateInstance]:
    """All applicable responses for an event, instantiated per target asset.

    Output order is fixed so traces are reproducible: result-specific
    entries first, then general ones, each group by ascending index; for
    duplicated entries the infected-asset instance precedes the
    affected-asset one.
    """
    if not any(spec.terminal for spec in catalog):
        raise CatalogError("catalog is missing the terminal 'No Action' entry")

    specific = sorted(
        (s for s in catalog if not s.is_general and event.result in s.applicable_results),
        key=lambda s: s.index,
    )
    general = sorted((s for s in catalog if s.is_general), key=lambda s: s.index)

    candidates: list[CandidateInstance] = []
    for spec in (*specific, *general):
        candidates.extend(_instantiate(spec, event))

    if not any(c.response.terminal for c in candidates):
        terminal = next(s for s in catalog if s.terminal)
        candidates.extend(_instantiate(terminal, event))
    return candidates
