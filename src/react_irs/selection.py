"""Selection strategies over a candidate set.

Three strategies plus a test oracle:

* ``saw_select`` — adapted simple additive weighting: normalize benefit
  (higher is better) and cost (lower is better) per candidate, take the
  weighted sum, and prefer the highest value below an impact-derived
  bound.
* ``lp_select_max_benefit`` / ``lp_select_min_cost`` — the exactly-one
  selection problem under the budget constraint cost < impact.  Because
  exactly one candidate is chosen, the 0/1 program reduces to a filtered
  argmax/argmin, solved exactly without an external solver.
* ``brute_force_oracle`` — a deliberately naive scan used to cross-check
  the optimizers.

Each strategy ranks a set once: it returns the first outcome, and that
outcome's ``rest`` yields the later ones, each equal to selecting again
without the earlier choices.

Ties break by lowest catalog index, then by candidate-set position
(which places the infected-asset instance before the affected-asset one).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from .model import CandidateInstance, DomainError, IntrusionEvent
# Read by bench/tracing.py, which patches these names; the hot path reads .total.
from .responses import effective_cost, response_benefit
from .risk import environment_term


#: Scale of the impact-derived SAW preference bound ``RHO * sum(alphas)``.
RHO = 1.0
#: Substitute for a zero-valued criterion before SAW normalization, so
#: every division stays defined.
EPSILON = 1e-6


@dataclass(frozen=True)
class SawConfig:
    """Criterion weights of the additive-weighting strategy: ``w_benefit``
    in [0, 1], and the cost weight is its complement."""

    w_benefit: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 <= self.w_benefit <= 1.0:
            raise DomainError(f"w_benefit must lie in [0, 1], got {self.w_benefit!r}")

    @property
    def w_cost(self) -> float:
        return 1.0 - self.w_benefit


class SelectionOutcome(NamedTuple):
    """Result of one selection: the chosen instance, its score (preference
    for SAW, objective value for the optimizers), how many candidates were
    feasible/eligible, and whether the fallback path produced the choice.

    ``rest`` iterates over the later outcomes of the same ranking: each is
    the choice the selector would make with every earlier choice removed.
    Every outcome of one ranking shares that iterator; by default it is
    one shared, empty iterator.

    ``rest`` is a compared field, like every field of a tuple: outcomes of
    different rankings differ even when they make the same choice.  To
    compare choices, compare ``outcome[:4]``."""

    chosen: CandidateInstance
    score: float
    feasible_count: int
    fallback: bool = False
    rest: Iterator[SelectionOutcome] = iter(())


class _Ranking:
    """Iterator of ``SelectionOutcome``s over (chosen, score,
    feasible_count, fallback) steps; each outcome's ``rest`` is the
    ranking itself."""

    __slots__ = ("_steps",)

    def __init__(self, steps: Iterator[tuple[CandidateInstance, float, int, bool]]):
        self._steps = steps

    def __iter__(self) -> _Ranking:
        return self

    def __next__(self) -> SelectionOutcome:
        chosen, score, feasible_count, fallback = next(self._steps)
        return SelectionOutcome(chosen, score, feasible_count, fallback, self)


def _head(steps: Iterator[tuple[CandidateInstance, float, int, bool]]) -> SelectionOutcome:
    return next(_Ranking(steps))


def saw_preferences(
    candidates: Sequence[CandidateInstance], cfg: SawConfig, impact: float
) -> list[tuple[CandidateInstance, float]]:
    """Per-candidate preference values.

    Benefit normalizes as v/max(v), cost as min(v)/v; zeros are replaced
    by ``EPSILON`` before any division (including max/min).  The impact is
    needed to peg the terminal entry's cost.
    """
    if not candidates:
        raise DomainError("cannot rank an empty candidate set")
    benefits = [response_benefit(c.response.benefit) or EPSILON for c in candidates]
    costs = [effective_cost(c, impact) or EPSILON for c in candidates]
    max_b = max(benefits)
    min_c = min(costs)
    w_benefit, w_cost = cfg.w_benefit, cfg.w_cost
    return [
        (c, w_benefit * b / max_b + w_cost * min_c / cost)
        for c, b, cost in zip(candidates, benefits, costs)
    ]


def compute_impact_alphas(event: IntrusionEvent) -> list[float]:
    """Per-metric impact shares of an event for (S, F, O, P, E): 1.0 where
    the weighted term of :func:`event_impact` is non-zero, else 0.0."""
    params = event.impact_params
    terms = (
        params.w_s * params.s,
        params.w_f * params.f,
        params.w_o * params.o,
        params.w_p * params.p,
        environment_term(event),
    )
    return [1.0 if v else 0.0 for v in terms]


def saw_select(
    candidates: Sequence[CandidateInstance],
    event_impact_alphas: Sequence[float],
    cfg: SawConfig,
    impact: float,
) -> SelectionOutcome:
    """Highest preference below the bound ``RHO * sum(alphas)``.

    If no candidate's preference is below the bound, the overall maximum
    is returned and flagged as a fallback so traces show the bound was
    ineffective.  ``rest`` re-ranks the candidates left after each choice,
    with the normalizers of that remaining set.
    """
    if not candidates:
        raise DomainError("cannot rank an empty candidate set")
    return _head(_saw_steps(candidates, RHO * sum(event_impact_alphas), cfg, impact))


def _saw_steps(
    candidates: Sequence[CandidateInstance],
    bound: float,
    cfg: SawConfig,
    impact: float,
) -> Iterator[tuple[CandidateInstance, float, int, bool]]:
    """The SAW choice among the candidates not yet chosen, step by step.

    Each step is the Threshold Algorithm (Fagin, Lotem & Naor, PODS 2001)
    over two presorted lists: benefit descending and cost ascending.  The
    walk reads both lists in lockstep and scores each candidate it meets.
    A candidate not met yet lies deeper in both lists, so its preference
    is at most the preference of the current benefit paired with the
    current cost: the expression is monotone in each operand, rounding
    included.  The walk stops once that threshold is strictly below the
    best eligible preference, so ties and every ineligible candidate are
    always met; with nothing eligible it runs to the end (the fallback).

    Every preference is positive, so a bound of at most 0 leaves nothing
    eligible at any step.  Such a walk ranks every candidate as eligible
    under an infinite bound, which stops it the same way, and reports
    each step as the fallback.
    """
    unbounded = bound <= 0
    if unbounded:
        bound = math.inf
    pegged = float(impact)
    benefits = [c.response.benefit.total or EPSILON for c in candidates]
    costs = [
        (pegged if c.response.terminal else c.response.cost.total) or EPSILON
        for c in candidates
    ]
    w_benefit, w_cost = cfg.w_benefit, cfg.w_cost
    positions = list(range(len(candidates)))
    by_benefit = sorted(positions, key=benefits.__getitem__, reverse=True)
    by_cost = sorted(positions, key=costs.__getitem__)
    seen = [-1] * len(candidates)
    for step in range(len(candidates)):
        max_b = benefits[by_benefit[0]]
        # ``w_cost * min_c / cost`` evaluates left to right, so the product
        # can be taken once per step without changing a bit of the result.
        cost_num = w_cost * costs[by_cost[0]]
        best = fallback = -1
        best_p = fallback_p = -math.inf
        ineligible = 0
        for i, j in zip(by_benefit, by_cost):
            for k in (i, j):
                if seen[k] == step:
                    continue
                seen[k] = step
                p = w_benefit * benefits[k] / max_b + cost_num / costs[k]
                if p < bound:
                    if p > best_p or (p == best_p and _precedes(k, best, candidates)):
                        best, best_p = k, p
                else:
                    ineligible += 1
                    if p > fallback_p or (p == fallback_p and _precedes(k, fallback, candidates)):
                        fallback, fallback_p = k, p
            if best >= 0 and w_benefit * benefits[i] / max_b + cost_num / costs[j] < best_p:
                break
        if unbounded:
            yield candidates[best], best_p, 0, True
        elif best >= 0:
            yield candidates[best], best_p, len(by_benefit) - ineligible, False
        else:
            best = fallback
            yield candidates[best], fallback_p, 0, True
        del by_benefit[by_benefit.index(best)]
        del by_cost[by_cost.index(best)]


def _precedes(k: int, other: int, candidates: Sequence[CandidateInstance]) -> bool:
    """Tie-break between equal scores: lower catalog index, then earlier
    position."""
    index, other_index = candidates[k].response.index, candidates[other].response.index
    return index < other_index or (index == other_index and k < other)


#: Names accepted by :func:`make_selector` (and the CLI).
ALGORITHMS = ("saw", "lp-max", "lp-min")


def make_selector(algorithm: str, saw_cfg: SawConfig | None = None):
    """Adapt a named strategy to the uniform (candidates, impact, event)
    call shape the engine and harness use."""
    if algorithm == "lp-max":
        return lambda candidates, impact, event: lp_select_max_benefit(candidates, impact)
    if algorithm == "lp-min":
        return lambda candidates, impact, event: lp_select_min_cost(candidates, impact)
    if algorithm == "saw":
        cfg = saw_cfg if saw_cfg is not None else SawConfig()
        return lambda candidates, impact, event: saw_select(
            candidates, compute_impact_alphas(event), cfg, impact
        )
    raise DomainError(f"unknown algorithm {algorithm!r} (expected one of {ALGORITHMS})")


def _terminal(candidates: Sequence[CandidateInstance]) -> CandidateInstance:
    terminal = next((c for c in candidates if c.response.terminal), None)
    if terminal is None:
        raise DomainError("no feasible candidate and no terminal entry to fall back to")
    return terminal


def _feasible(
    candidates: Sequence[CandidateInstance], impact: float
) -> list[CandidateInstance]:
    return [
        c
        for c in candidates
        if not c.response.terminal and c.response.cost.total < impact
    ]


# C-level sort keys over the candidates' catalog index and precomputed totals.
_INDEX = attrgetter("response.index")
_BENEFIT = attrgetter("response.benefit.total")
_COST = attrgetter("response.cost.total")


def _lp_select(
    candidates: Sequence[CandidateInstance],
    impact: float,
    score: Callable[[CandidateInstance], float],
    descending: bool,
    fallback_score: float,
) -> SelectionOutcome:
    """The feasible candidate with the best ``score`` (highest if
    ``descending``, else lowest); the terminal entry at ``fallback_score``
    when no candidate is feasible.  ``rest`` runs through the other
    feasible candidates in rank order, then the terminal entry."""
    if not candidates:
        raise DomainError("cannot select from an empty candidate set")
    ranked = _feasible(candidates, impact)
    # Both sorts are stable (reverse=True too): equal scores stay in index
    # order, and position breaks the last tie.  Sorting twice on keys the
    # candidates already hold allocates no key tuples.
    ranked.sort(key=_INDEX)
    ranked.sort(key=score, reverse=descending)
    return _head(_lp_steps(candidates, ranked, score, fallback_score))


def _lp_steps(
    candidates: Sequence[CandidateInstance],
    ranked: list[CandidateInstance],
    score: Callable[[CandidateInstance], float],
    fallback_score: float,
) -> Iterator[tuple[CandidateInstance, float, int, bool]]:
    for step, chosen in enumerate(ranked):
        yield chosen, score(chosen), len(ranked) - step, False
    yield _terminal(candidates), fallback_score, 0, True


def lp_select_max_benefit(
    candidates: Sequence[CandidateInstance], impact: float
) -> SelectionOutcome:
    """Benefit-maximal candidate with cost < impact; terminal fallback."""
    return _lp_select(
        candidates,
        impact,
        score=_BENEFIT,
        descending=True,
        fallback_score=0.0,
    )


def lp_select_min_cost(
    candidates: Sequence[CandidateInstance], impact: float
) -> SelectionOutcome:
    """Cost-minimal candidate with cost < impact; terminal fallback."""
    return _lp_select(
        candidates,
        impact,
        score=_COST,
        descending=False,
        fallback_score=float(impact),
    )


def brute_force_oracle(
    candidates: Sequence[CandidateInstance], impact: float, objective: str
) -> SelectionOutcome:
    """Reference optimizer: one explicit pass, no helper reuse.

    ``objective`` is ``"max-benefit"`` or ``"min-cost"``.  Kept
    intentionally separate from the production selectors so the two can
    check each other.
    """
    if objective not in ("max-benefit", "min-cost"):
        raise DomainError(f"unknown objective {objective!r}")
    if not candidates:
        raise DomainError("cannot select from an empty candidate set")

    best = None
    best_key: tuple | None = None
    best_score = 0.0
    count = 0
    for position, cand in enumerate(candidates):
        if cand.response.terminal:
            continue
        cv = cand.response.cost
        cost = cv.w_a * cv.a + cv.w_perf * cv.perf
        if cost >= impact:
            continue
        count += 1
        bv = cand.response.benefit
        ben = bv.w_s * bv.s + bv.w_f * bv.f + bv.w_o * bv.o + bv.w_p * bv.p
        if objective == "max-benefit":
            key = (-ben, cand.response.index, position)
            score = ben
        else:
            key = (cost, cand.response.index, position)
            score = cost
        if best_key is None or key < best_key:
            best, best_key, best_score = cand, key, score

    if best is None:
        fallback_score = 0.0 if objective == "max-benefit" else float(impact)
        return SelectionOutcome(
            chosen=_terminal(candidates), score=fallback_score, feasible_count=0, fallback=True
        )
    return SelectionOutcome(chosen=best, score=best_score, feasible_count=count)
