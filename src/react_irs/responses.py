"""Response scoring and candidate-set generation.

A response's cost and benefit are weighted sums of discrete levels, in
the same shape as the intrusion impact:

    cost    c = w_A*A + w_Perf*Perf
    benefit b = w_S*S + w_F*F + w_O*O + w_P*P

Both sums are the vectors' ``total``s, computed once when each vector is
built, and each ``CandidateInstance`` copies them into its ``cost`` and
``benefit`` fields when it is built.  The selectors and the inner loop
read the candidate's fields, one field load per score.
``response_benefit`` and ``effective_cost`` remain because the
benchmark's tracer patches them to count scoring calls.

``generate_candidates`` turns a catalog plus an intrusion event into the
ordered list of concrete (response, target asset) instances the decision
loop selects from.  The set depends only on the catalog and the event's
(result, infected asset, affected asset) key.  Every catalog that
``files`` parses or an ``Engine`` decides on is a ``CatalogResponses``
tuple of uniquely indexed entries with one terminal entry, which keeps
each set it has generated and one instance per (index, target) that all
of them share: every later call copies the kept set into a new list.
Any other sequence is wrapped in a new ``CatalogResponses`` first.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .model import (
    CandidateInstance,
    DomainError,
    ImpactVector,
    IntrusionEvent,
    IntrusionResult,
    Place,
    ResponseSpec,
)


class CatalogError(DomainError):
    """A catalog with a repeated index, or without exactly one terminal entry."""


def response_benefit(benefit: ImpactVector) -> float:
    return benefit.total


def effective_cost(candidate: CandidateInstance, impact: float) -> float:
    """Cost used during selection.

    The terminal "No Action" entry carries no static cost; doing nothing
    costs exactly whatever the intrusion currently costs, so its
    effective cost is pegged to the impact at selection time.
    """
    return float(impact) if candidate.terminal else candidate.cost


class CatalogResponses(tuple):
    """A parsed catalog's entries, with the candidate sets generated from
    them so far.

    A repeated index, or other than one terminal entry, is a
    ``CatalogError``; ``terminal`` keeps the one.  ``sets`` maps each
    (result, infected, affected) key that ``generate_candidates`` has met
    to its set, a tuple of the one instance per (index, target) that
    ``instances`` keeps: the generic catalog's 320 sets hold 8,480
    positions but 264 instances.  Both fill lazily and live as long as
    this tuple, for a loaded catalog as long as its ``load_catalog`` entry.
    """

    def __new__(cls, specs: Iterable[ResponseSpec]):
        self = super().__new__(cls, specs)
        indices = [spec.index for spec in self]
        if len(set(indices)) < len(indices):
            raise CatalogError(f"response index {max(indices, key=indices.count)} is repeated")
        terminals = [spec for spec in self if spec.terminal]
        if len(terminals) != 1:
            raise CatalogError(f"needs exactly one terminal entry, found {len(terminals)}")
        self.terminal = terminals[0]
        self.sets: dict[tuple[IntrusionResult, str, str], tuple[CandidateInstance, ...]] = {}
        self.instances: dict[tuple[int, str], CandidateInstance] = {}
        return self


def generate_candidates(
    event: IntrusionEvent, catalog: Sequence[ResponseSpec]
) -> list[CandidateInstance]:
    """All applicable responses for an event, instantiated per target asset.

    Output order is fixed so traces are reproducible: result-specific
    entries first, then general ones, each group by ascending index; for
    duplicated entries the infected-asset instance precedes the
    affected-asset one.  An entry lies at its place; a ``both`` entry gets
    one instance per involved asset when the two assets differ.  The
    terminal entry is appended when it does not apply to the result.

    Every call returns a new list, which the caller may change.  The set
    is generated once per key and copied from the kept tuple on every later
    call, with the same instances in the same order, and each (index,
    target) is one instance across all keys.  Any other sequence is
    wrapped in a new ``CatalogResponses``, which checks its indices and terminal.
    """
    if not isinstance(catalog, CatalogResponses):
        catalog = CatalogResponses(catalog)
    key = (event.result, event.infected_asset, event.affected_asset)
    kept = catalog.sets.get(key)
    if kept is None:
        result, infected, affected = key
        specs = sorted(
            (spec for spec in catalog if spec.applies_to(result)),
            key=lambda spec: (spec.is_general, spec.index),
        )
        if not catalog.terminal.applies_to(result):
            specs.append(catalog.terminal)
        shared = catalog.instances.setdefault
        kept = catalog.sets[key] = tuple(
            shared((spec.index, target), CandidateInstance(spec, target))
            for spec in specs
            for target in (
                (affected,) if infected == affected or spec.place is Place.DESTINATION
                else (infected,) if spec.place is Place.SOURCE
                else (infected, affected)
            )
        )
    return list(kept)
