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

Ties break by lowest catalog index, then by candidate-set position
(which places the infected-asset instance before the affected-asset one).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .model import CandidateInstance, DomainError, IntrusionEvent
from .responses import effective_cost, response_benefit, response_cost
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


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of one selection: the chosen instance, its score (preference
    for SAW, objective value for the optimizers), how many candidates were
    feasible/eligible, and whether the fallback path produced the choice."""

    chosen: CandidateInstance
    score: float
    feasible_count: int
    fallback: bool = False


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
    ineffective.
    """
    ranked = saw_preferences(candidates, cfg, impact)
    bound = RHO * sum(event_impact_alphas)
    eligible = [i for i, (_, p) in enumerate(ranked) if p < bound]
    fallback = not eligible
    if fallback:
        eligible = list(range(len(ranked)))
    best = min(eligible, key=lambda i: (-ranked[i][1], ranked[i][0].response.index, i))
    return SelectionOutcome(
        chosen=ranked[best][0],
        score=ranked[best][1],
        feasible_count=0 if fallback else len(eligible),
        fallback=fallback,
    )


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


def _terminal_outcome(
    candidates: Sequence[CandidateInstance], score: float
) -> SelectionOutcome:
    terminal = next((c for c in candidates if c.response.terminal), None)
    if terminal is None:
        raise DomainError("no feasible candidate and no terminal entry to fall back to")
    return SelectionOutcome(chosen=terminal, score=score, feasible_count=0, fallback=True)


def _feasible(
    candidates: Sequence[CandidateInstance], impact: float
) -> list[CandidateInstance]:
    return [
        c
        for c in candidates
        if not c.response.terminal and response_cost(c.response.cost) < impact
    ]


def _lp_select(
    candidates: Sequence[CandidateInstance],
    impact: float,
    key: Callable[[CandidateInstance], tuple],
    score: Callable[[CandidateInstance], float],
    fallback_score: float,
) -> SelectionOutcome:
    """The feasible candidate with the smallest ``key``, scored by
    ``score``; the terminal entry at ``fallback_score`` when no candidate
    is feasible."""
    if not candidates:
        raise DomainError("cannot select from an empty candidate set")
    feasible = _feasible(candidates, impact)
    if not feasible:
        return _terminal_outcome(candidates, score=fallback_score)
    # min() keeps the first of equal keys, so position breaks the last tie.
    best = min(feasible, key=key)
    return SelectionOutcome(chosen=best, score=score(best), feasible_count=len(feasible))


def lp_select_max_benefit(
    candidates: Sequence[CandidateInstance], impact: float
) -> SelectionOutcome:
    """Benefit-maximal candidate with cost < impact; terminal fallback."""
    return _lp_select(
        candidates,
        impact,
        key=lambda c: (-response_benefit(c.response.benefit), c.response.index),
        score=lambda c: response_benefit(c.response.benefit),
        fallback_score=0.0,
    )


def lp_select_min_cost(
    candidates: Sequence[CandidateInstance], impact: float
) -> SelectionOutcome:
    """Cost-minimal candidate with cost < impact; terminal fallback."""
    return _lp_select(
        candidates,
        impact,
        key=lambda c: (response_cost(c.response.cost), c.response.index),
        score=lambda c: response_cost(c.response.cost),
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
        return _terminal_outcome(candidates, score=fallback_score)
    return SelectionOutcome(chosen=best, score=best_score, feasible_count=count)
