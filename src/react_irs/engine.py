"""The decision loops.

Inner loop: select the optimal candidate, check its precondition, and on
rejection take the next candidate of the selector's ranking — guaranteed
to terminate because the terminal "No Action" entry is always applicable.

Outer loop: apply the chosen response, ask the detector for a verdict,
and adapt the catalog parameters — benefit levels decay one step per
failure; on success the levels are restored and the benefit weights get
a random nudge in [R_MIN, R_MAX].  Adaptation is tracked per (response
index, target asset) instance for the lifetime of the engine, so the
nudges compound.  A factor's log has mean -0.0067: a response that keeps
working sinks in an ``lp-max`` ranking, its benefit total a median 0.70
of the pristine one after 100 successes, 0.0071 after 1,000 and 5e-27
after 10,000 (20 seeds), yet no weight overflows or turns negative.

``Engine.decide`` is the one decision step (candidate set, inner loop)
and returns a plain tuple; it decides at the impact the event computed
when it was built (``IntrusionEvent.impact``).  ``Engine.run`` is the
outer loop in one body: decide, apply the effects, ask for the verdict,
adapt and record, then stop, keep the event or take the new intrusion's.
An engine keeps one candidate set, the current intrusion's.  On a new
(intrusion result, infected asset, affected asset) key it copies the set
from its ``CatalogResponses``, which generates each set once for all its
engines, and writes in the adaptations recorded so far; an adaptation
replaces the adapted instance, found by identity, in that one set.

Also hosts the analytic estimator comparing the two possible loop
orderings (check-all-preconditions-first vs select-first-then-check).
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from .model import (
    CandidateInstance,
    DomainError,
    ImpactVector,
    IntrusionEvent,
    IntrusionResult,
    ResponseSpec,
    VehicleState,
    check_facts,
    check_total,
    check_weight,
)
from .responses import CatalogResponses, generate_candidates
# Read by bench/tracing.py, which patches these names; the hot path reads
# the totals that each candidate holds.
from .responses import effective_cost, response_benefit
from .selection import SelectionOutcome

#: Benefit level decay applied on a failure verdict.
FAILURE_DECAY = {100: 10, 10: 1, 1: 0, 0: 0}

#: Band of the uniform factor that nudges each benefit weight on success.
R_MIN, R_MAX = 0.8, 1.2

#: Safety bound on outer-loop iterations.
DEFAULT_MAX_ITERATIONS = 10

# A selector takes (candidates, impact, event) and returns the head
# SelectionOutcome of its ranking; ``rest`` carries the later outcomes.
Selector = Callable[[Sequence[CandidateInstance], float, IntrusionEvent], SelectionOutcome]
PreconditionPolicy = Callable[[CandidateInstance], bool]


@dataclass(frozen=True)
class Success:
    """The applied response ended the intrusion."""


@dataclass(frozen=True)
class Failure:
    """The intrusion persists; the response did not work."""


@dataclass(frozen=True)
class NewIntrusion:
    """The previous intrusion is handled but a follow-up was detected."""

    event: IntrusionEvent


FeedbackVerdict = Union[Success, Failure, NewIntrusion]

# Feedback is injected: (iteration, applied candidate) -> verdict.
FeedbackSource = Callable[[int, CandidateInstance], FeedbackVerdict]


@dataclass(frozen=True)
class AdaptationConfig:
    rng_seed: int = 7


class Attempt(NamedTuple):
    """One selection inside the inner loop and its precondition outcome."""

    response_index: int
    target_asset: str
    score: float
    cost: float
    benefit: float
    precondition_passed: bool
    selection_time_ms: float = 0.0


_new = tuple.__new__


class IterationRecord(NamedTuple):
    iteration: int
    velocity_kmh: float
    impact: float
    candidate_count: int
    attempts: tuple[Attempt, ...]
    applied: Attempt
    verdict: str
    adapted_weights: tuple[float, float, float, float] | None
    adapted_levels: tuple[int, int, int, int] | None
    selection_time_ms: float


@dataclass
class EngineTrace:
    records: list[IterationRecord] = field(default_factory=list)


def adapt_on_failure(spec: ResponseSpec) -> ResponseSpec:
    """Decay each benefit level one step (100->10->1->0); weights unchanged.

    Level order is preserved: the mapping is monotone, so a metric that
    dominated before the decay still dominates after it.  The decayed
    levels come from ``FAILURE_DECAY`` and the weights are copied, so the
    new vector needs no check.
    """
    b = spec.benefit
    decayed = ImpactVector._unchecked(
        FAILURE_DECAY[b.s], FAILURE_DECAY[b.f], FAILURE_DECAY[b.o], FAILURE_DECAY[b.p],
        b.w_s, b.w_f, b.w_o, b.w_p,
    )
    return spec.with_benefit(decayed)


def adapt_on_success(spec: ResponseSpec, rng: random.Random) -> ResponseSpec:
    """Restore pristine benefit levels, then nudge each current weight by an
    independent uniform factor in [R_MIN, R_MAX].

    The factors compound across repeated successes; each single call stays
    within [R_MIN * w, R_MAX * w] of the pre-call weight.  The restored
    levels are valid, and a product of a valid weight and a positive
    factor is finite unless it overflows, which raises the ``DomainError``
    naming that weight.  A total that overflows raises the error the
    validating constructor raises.
    """
    orig, cur = spec.original_benefit, spec.benefit
    # ``random.Random.uniform``'s own formula, bit for bit, without its frame.
    draw, span = rng.random, R_MAX - R_MIN
    weights = (
        cur.w_s * (R_MIN + span * draw()),
        cur.w_f * (R_MIN + span * draw()),
        cur.w_o * (R_MIN + span * draw()),
        cur.w_p * (R_MIN + span * draw()),
    )
    adapted = ImpactVector._unchecked(orig.s, orig.f, orig.o, orig.p, *weights)
    # An infinite weight makes the total infinite, or NaN at a level of 0.
    if not adapted.total < math.inf:
        for name, weight in zip(("w_s", "w_f", "w_o", "w_p"), weights):
            check_weight(weight, name)
        check_total(adapted.total)
    return spec.with_benefit(adapted)


# Read by bench/tracing.py, which patches this name; ``inner_loop`` calls
# it through the module global, once per decision.
def event_impact(event: IntrusionEvent) -> float:
    """Weighted impact of an event, as the event computed and checked it
    when it was built (``IntrusionEvent.impact``)."""
    return event.impact


def inner_loop(
    event: IntrusionEvent,
    candidates: Sequence[CandidateInstance],
    selector: Selector,
    facts: Mapping[str, bool],
    precondition_policy: PreconditionPolicy | None = None,
) -> tuple[CandidateInstance, list[Attempt]]:
    """Select-then-check until a candidate's precondition holds.

    The selector runs once; each rejection moves on to the next outcome
    of its ranking, which the head outcome's ``rest`` yields.  Returns the
    applicable instance and the full attempt record (rejections included).
    ``precondition_policy`` overrides normal evaluation — static mode
    passes one through ``Engine.decide`` to force rejections; the terminal
    entry is exempt and always passes.  ``facts`` other than the event's
    own, the read-only copy its ``VehicleState`` checked, pass ``check_facts``.
    The impact is the event's own, read once through ``event_impact``.
    """
    if facts is not event.vehicle.facts:
        check_facts(facts, "facts")
    impact = event_impact(event)
    # The terminal entry's cost is pegged to the impact (``effective_cost``).
    pegged = float(impact)
    attempts: list[Attempt] = []
    clock = time.perf_counter
    t0 = clock()
    head = selector(candidates, impact, event)
    for cand, score, _, _, _ in chain((head,), head.rest):
        elapsed_ms = (clock() - t0) * 1000.0
        spec, target, index, cost, benefit, terminal = cand
        if terminal:
            passed = True
            cost = pegged
        elif precondition_policy is not None:
            passed = precondition_policy(cand)
        else:
            passed = spec.precondition.evaluate(facts)
        # Positional, through ``tuple.__new__``: the records paragraph of the
        # ``model`` docstring says why.
        attempts.append(_new(Attempt, (
            index, target, score, cost, benefit, passed, elapsed_ms,
        )))
        if passed:
            return cand, attempts
        t0 = clock()
    raise DomainError("candidate set exhausted without an applicable response")


class Engine:
    """One engine instance handles one intrusion sequence or harness run.

    Keeps the per-instance adaptation state, the seeded RNG and the
    current event's candidate set with its key; not meant to be shared
    between threads.  On a new key the engine writes the adaptations
    recorded so far into the new list ``generate_candidates`` returns;
    each later adaptation replaces its (index, target) instance in it.

    A ``CatalogResponses`` is kept as given, so the sets of a loaded
    catalog are generated once for every engine on it; any other sequence
    is copied into a new one, which raises ``CatalogError`` on a repeated
    response index.  The selector must be callable and ``adaptation`` an
    ``AdaptationConfig`` with an ``int`` seed.  ``effects`` maps a response
    index (an ``int``) to the fact map its application sets, copied once
    ``model.check_facts`` accepts it; else a ``DomainError`` names the entry.
    """

    def __init__(
        self,
        catalog: Sequence[ResponseSpec],
        selector: Selector,
        adaptation: AdaptationConfig = AdaptationConfig(),
        effects: Mapping[int, Mapping[str, bool]] | None = None,
    ):
        if not callable(selector):
            raise DomainError(f"selector: expected a callable, got {selector!r}")
        if not isinstance(adaptation, AdaptationConfig):
            raise DomainError(f"adaptation: expected an AdaptationConfig, got {adaptation!r}")
        if type(adaptation.rng_seed) is not int:
            raise DomainError(f"adaptation.rng_seed: expected an int, got {adaptation.rng_seed!r}")
        if not isinstance(catalog, CatalogResponses):
            catalog = CatalogResponses(catalog)
        self._catalog = catalog
        self._selector = selector
        self._rng = random.Random(adaptation.rng_seed)
        if effects is None:
            effects = {}
        elif not isinstance(effects, Mapping):
            raise DomainError(f"effects: expected a mapping of response indices, got {effects!r}")
        self._effects = {}
        for index, flags in effects.items():
            if type(index) is not int:
                raise DomainError(f"effects key {index!r} is not a response index (an int)")
            self._effects[index] = dict(check_facts(flags, f"effects[{index}]"))
        self._adapted: dict[tuple[int, str], CandidateInstance] = {}
        self._key: tuple[IntrusionResult, str, str] | None = None
        self._candidates: list[CandidateInstance] = []

    def _candidates_for(self, event: IntrusionEvent) -> list[CandidateInstance]:
        """The event's candidate set: the current one while its key stays
        the same, else a new list from ``generate_candidates``."""
        key = (event.result, event.infected_asset, event.affected_asset)
        if key != self._key:
            candidates = generate_candidates(event, self._catalog)
            if self._adapted:
                for pos, cand in enumerate(candidates):
                    adapted = self._adapted.get((cand.response_index, cand.target_asset))
                    if adapted is not None:
                        candidates[pos] = adapted
            self._key, self._candidates = key, candidates
        return self._candidates

    def _record(self, chosen: CandidateInstance, spec: ResponseSpec) -> None:
        """Record ``spec`` as ``chosen``'s adaptation and swap the new
        instance in for ``chosen``, found by identity, in the current set
        if it holds it (at most once).  The changed set is a new list, so a
        list already handed to a selector never changes under it."""
        target = chosen.target_asset
        instance = self._adapted[spec.index, target] = CandidateInstance(spec, target)
        for pos, cand in enumerate(self._candidates):
            if cand is chosen:
                candidates = self._candidates = list(self._candidates)
                candidates[pos] = instance
                break

    def decide(
        self, event: IntrusionEvent, precondition_policy: PreconditionPolicy | None = None
    ) -> tuple[CandidateInstance, int, tuple[Attempt, ...], float, float]:
        """``inner_loop`` on the event's candidate set, timing the set's
        lookup or generation and the loop; nothing is applied or adapted.

        Returns ``(chosen, candidate_count, attempts, generation_s,
        selection_ms)``: the applied instance, the set's size, every
        attempt (the applied one last), and the seconds the set's lookup or
        generation took and the milliseconds of the loop.  The impact it
        decided at is ``event.impact``.
        """
        t0 = time.perf_counter()
        candidates = self._candidates_for(event)
        t1 = time.perf_counter()
        chosen, attempts = inner_loop(
            event, candidates, self._selector, event.vehicle.facts, precondition_policy
        )
        selection_ms = (time.perf_counter() - t1) * 1000.0
        return chosen, len(candidates), tuple(attempts), t1 - t0, selection_ms

    def run(
        self,
        initial_event: IntrusionEvent,
        feedback: FeedbackSource,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> EngineTrace:
        if type(max_iterations) is not int or max_iterations < 1:
            raise DomainError(f"max_iterations must be an int >= 1, got {max_iterations!r}")
        trace = EngineTrace()
        event = initial_event
        for iteration in range(1, max_iterations + 1):
            chosen, count, attempts, _, selection_ms = self.decide(event)
            updates = self._effects.get(chosen.response_index)
            if updates:
                facts = {**event.vehicle.facts, **updates}
                vehicle = VehicleState(velocity_kmh=event.vehicle.velocity_kmh, facts=facts)
                event = replace(event, vehicle=vehicle)
            verdict = feedback(iteration, chosen)
            match verdict:
                case Success():
                    spec = adapt_on_success(chosen.response, self._rng)
                    verdict_name = "success"
                case Failure():
                    spec = adapt_on_failure(chosen.response)
                    verdict_name, next_event = "failure", event
                case NewIntrusion(event=IntrusionEvent() as next_event):
                    spec = adapt_on_success(chosen.response, self._rng)
                    verdict_name = "new_intrusion"
                case _:
                    raise DomainError(f"unknown feedback verdict: {verdict!r}")
            self._record(chosen, spec)

            b = spec.benefit
            trace.records.append(_new(IterationRecord, (
                iteration, event.vehicle.velocity_kmh, event.impact, count,
                attempts, attempts[-1], verdict_name,
                (b.w_s, b.w_f, b.w_o, b.w_p), (b.s, b.f, b.o, b.p), selection_ms,
            )))
            if verdict_name == "success":
                break
            event = next_event
        return trace


class LoopOrder(Enum):
    CHECK_FIRST = "check-first"
    SELECT_FIRST = "select-first"


def estimate_loop_time(
    order: LoopOrder,
    t_check: float,
    t_select: float,
    t_execute: float,
    p: float,
    n: int,
) -> float:
    """Analytic per-intrusion handling time for the two loop orderings.

    ``p`` is the probability that a selected response's precondition
    holds; ``n`` the candidate count.  Check-first always evaluates every
    precondition; select-first pays for expected reselections instead.
    ``t_select`` is the cost of one ranking step: the selector ranks once,
    and each reselection takes the next outcome of that ranking.
    """
    if not 0 <= p <= 1:
        raise DomainError(f"p must be in [0, 1], got {p!r}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    if order is LoopOrder.CHECK_FIRST:
        return n * t_check + t_select + t_execute
    return t_select + t_check + p * t_execute + (1 - p) * (n - 1) * (t_select + t_check)
