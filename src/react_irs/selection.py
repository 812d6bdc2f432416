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
without the earlier choices.  Only the first outcome carries the rest of
the ranking; the later ones have an empty ``rest``.

Ties break by lowest catalog index, then by candidate-set position
(which places the infected-asset instance before the affected-asset one).

A SAW ranking is the costly one, since its normalizers change as
candidates leave.  Sets below ``SAW_FOREST_MIN`` candidates are ranked by
a scan of one benefit-sorted list (``_saw_scan``), which stops at a
one-sided bound and removes each choice from the list.  Larger sets are
ranked on a dominance forest (``_saw_forest``), which costs a pass to
build and then scores only the skyline at each step.  Both rank exactly
as a rescan of the remaining set would, ties included.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from .model import (
    CandidateInstance, DomainError, IntrusionEvent, check_weight, environment_from_velocity,
)
# Read by bench/tracing.py, which patches these names; the hot path reads
# the totals that each candidate holds.
from .responses import effective_cost, response_benefit


#: Scale of the impact-derived SAW preference bound ``RHO * sum(alphas)``.
RHO = 1.0
#: Substitute for a zero-valued criterion before SAW normalization, so
#: every division stays defined.
EPSILON = 1e-6
#: Sets of at least this many candidates are ranked for SAW on a dominance
#: forest, smaller ones by the benefit-sorted scan.  The scan costs less
#: to set up and the forest less per step; full drains of level-grid sets
#: like the benchmark's take about as long with either at 72 candidates.
SAW_FOREST_MIN = 72


@dataclass(frozen=True)
class SawConfig:
    """Criterion weights of the additive-weighting strategy: ``w_benefit``
    in [0, 1], and the cost weight is its complement."""

    w_benefit: float = 0.6

    def __post_init__(self) -> None:
        if check_weight(self.w_benefit, "w_benefit") > 1.0:
            raise DomainError(f"w_benefit must lie in [0, 1], got {self.w_benefit!r}")

    @property
    def w_cost(self) -> float:
        return 1.0 - self.w_benefit


class SelectionOutcome(NamedTuple):
    """Result of one selection: the chosen instance, its score (preference
    for SAW, objective value for the optimizers), how many candidates were
    feasible/eligible, and whether the fallback path produced the choice.

    On the first outcome a selector returns, ``rest`` iterates over the
    later outcomes of the same ranking: each is the choice the selector
    would make with every earlier choice removed.  Those later outcomes
    keep the default ``rest``, one shared, empty iterator: only the first
    outcome continues the ranking.

    ``rest`` is a compared field, like every field of a tuple: first
    outcomes of different rankings differ even when they make the same
    choice.  To compare choices, compare ``outcome[:4]``."""

    chosen: CandidateInstance
    score: float
    feasible_count: int
    fallback: bool = False
    rest: Iterator[SelectionOutcome] = iter(())


# The rankers build every outcome as ``_new(SelectionOutcome, (...))``: the
# records paragraph of the ``model`` docstring says why.
_new = tuple.__new__
_NO_REST = SelectionOutcome._field_defaults["rest"]


def _head(steps: Iterator[SelectionOutcome]) -> SelectionOutcome:
    """The first outcome of a ranking, with the rest of ``steps`` as its
    ``rest``."""
    chosen, score, feasible_count, fallback, _ = next(steps)
    return _new(SelectionOutcome, (chosen, score, feasible_count, fallback, steps))


def compute_impact_alphas(event: IntrusionEvent) -> list[float]:
    """Per-metric impact shares of an event for (S, F, O, P, E): 1.0 where
    the weighted term of ``event.impact`` is non-zero, else 0.0."""
    params = event.impact_params
    terms = (
        params.w_s * params.s,
        params.w_f * params.f,
        params.w_o * params.o,
        params.w_p * params.p,
        event.env.w_e * environment_from_velocity(event.vehicle.velocity_kmh),
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
    rank = _saw_forest if len(candidates) >= SAW_FOREST_MIN else _saw_scan
    return _head(rank(candidates, RHO * sum(event_impact_alphas), cfg, impact))


def _saw_criteria(
    candidates: Sequence[CandidateInstance], impact: float
) -> tuple[list[float], list[float]]:
    """Each candidate's benefit and cost, the terminal entry's cost pegged
    to the impact, zeros replaced by ``EPSILON``."""
    pegged = float(impact)
    benefits = [c.benefit or EPSILON for c in candidates]
    costs = [(pegged if c.terminal else c.cost) or EPSILON for c in candidates]
    return benefits, costs


def _saw_scan(
    candidates: Sequence[CandidateInstance],
    bound: float,
    cfg: SawConfig,
    impact: float,
) -> Iterator[SelectionOutcome]:
    """The SAW choice among the candidates not yet chosen, step by step,
    for sets below ``SAW_FOREST_MIN`` candidates.

    One list, sorted once by benefit descending, holds ``max_b`` at its
    head; ``min_c`` is recomputed only when the choice held it.  A step
    scans the list from the head.  No candidate further down scores above
    the current benefit term plus ``min_c``'s cost term, the preference
    being monotone in each operand, rounding included.  The scan stops
    once that bound is strictly below the best eligible preference, so
    ties and every ineligible candidate are always met.  With nothing
    eligible, as under a bound of at most 0 (every preference is
    positive), it meets every candidate and returns the fallback.
    """
    benefits, costs = _saw_criteria(candidates, impact)
    w_benefit, w_cost = cfg.w_benefit, cfg.w_cost
    order = sorted(range(len(candidates)), key=benefits.__getitem__, reverse=True)
    min_c = min(costs)
    while order:
        max_b = benefits[order[0]]
        # ``w_cost * min_c / cost`` evaluates left to right, so the product
        # can be taken once per step without changing a bit of the result.
        cost_num = w_cost * min_c
        top = cost_num / min_c
        best = fallback = -1
        best_p = fallback_p = -math.inf
        ineligible = 0
        for k in order:
            benefit_term = w_benefit * benefits[k] / max_b
            if benefit_term + top < best_p:
                break
            p = benefit_term + cost_num / costs[k]
            if p < bound:
                if p > best_p or (p == best_p and _precedes(k, best, candidates)):
                    best, best_p = k, p
            else:
                ineligible += 1
                if p > fallback_p or (p == fallback_p and _precedes(k, fallback, candidates)):
                    fallback, fallback_p = k, p
        if best >= 0:
            feasible_count = len(order) - ineligible
            yield _new(SelectionOutcome, (candidates[best], best_p, feasible_count, False, _NO_REST))
        else:
            best = fallback
            yield _new(SelectionOutcome, (candidates[best], fallback_p, 0, True, _NO_REST))
        order.remove(best)
        if costs[best] == min_c and order:
            min_c = min(map(costs.__getitem__, order))


def _saw_forest(
    candidates: Sequence[CandidateInstance],
    bound: float,
    cfg: SawConfig,
    impact: float,
) -> Iterator[SelectionOutcome]:
    """The SAW choice among the candidates not yet chosen, step by step,
    for sets of at least ``SAW_FOREST_MIN`` candidates.

    The candidates form a dominance forest: every node has at most its
    parent's benefit and at least its parent's cost.  One pass in
    (benefit descending, cost ascending) order splits the set into
    skyline layers (Börzsönyi, Kossmann & Stocker, ICDE 2001), with a
    ``bisect`` on the cost of each layer's latest point, and parks each
    candidate under the latest point of the layer above, which dominates
    it.  The roots are the skyline of the candidates left, kept in
    ascending benefit order, which is also ascending cost order: the
    first root holds ``min_c`` and the last ``max_b``.

    The preference rises with benefit and falls with cost, rounding
    included, so no node scores above its ancestors.  A step scores the
    roots and expands the children of every ineligible node.  Every
    ineligible node has only ineligible ancestors, so the step meets all
    of them, which keeps ``feasible_count`` and the fallback exact.  An
    eligible node hides nothing better below it, and only a chain of
    nodes scoring exactly ``best_p`` can hide a tie that the
    index-then-position tie-break prefers, so the step walks the
    children of every node that scores ``best_p``.

    The choice then leaves the forest.  A non-root's children move up to
    its parent.  A root's children, in (benefit descending, cost
    ascending) order so that a dominating child comes first, each go
    under the root of least benefit at least theirs if that root costs no
    more; no other root can dominate them, so otherwise they become
    roots.  The subtrees below them stay where they are.  A step thus
    scores a few roots where the scan meets a share of the whole set.

    Every preference is positive, so a bound of at most 0 leaves nothing
    eligible: the forest then ranks under an infinite bound, which spares
    it the ineligible subtrees, and flags each step as the fallback.
    """
    unbounded = bound <= 0
    if unbounded:
        bound = math.inf
    benefits, costs = _saw_criteria(candidates, impact)
    w_benefit, w_cost = cfg.w_benefit, cfg.w_cost
    benefit_of, cost_of = benefits.__getitem__, costs.__getitem__
    # A list per node that has had children, None for a leaf.
    children: list[list[int] | None] = [None] * len(candidates)

    def adopt(parent: int, child: int) -> None:
        kids = children[parent]
        if kids is None:
            children[parent] = [child]
        else:
            kids.append(child)

    order = list(range(len(candidates)))
    order.sort(key=cost_of)
    order.sort(key=benefit_of, reverse=True)
    roots: list[int] = []
    tails: list[float] = []
    tail_nodes: list[int] = []
    for k in order:
        cost = costs[k]
        layer = bisect_right(tails, cost)
        if layer:
            adopt(tail_nodes[layer - 1], k)
        else:
            roots.append(k)
        if layer < len(tails):
            tails[layer], tail_nodes[layer] = cost, k
        else:
            tails.append(cost)
            tail_nodes.append(k)
    # The drain keeps this frame alive: free what only the build needs.
    del order, tails, tail_nodes
    roots.reverse()
    for step in range(len(candidates)):
        max_b = benefits[roots[-1]]
        cost_num = w_cost * costs[roots[0]]
        best = fallback = -1
        best_p = fallback_p = -math.inf
        ineligible = 0
        # The parent of each node met below a root; the loop also visits
        # the children it appends.
        parent_of: dict[int, int] = {}
        met = roots[:]
        ties: list[int] = []
        for k in met:
            p = w_benefit * benefits[k] / max_b + cost_num / costs[k]
            if p < bound:
                if p > best_p:
                    best, best_p, ties = k, p, [k]
                elif p == best_p:
                    ties.append(k)
                    if _precedes(k, best, candidates):
                        best = k
            else:
                ineligible += 1
                if p > fallback_p or (p == fallback_p and _precedes(k, fallback, candidates)):
                    fallback, fallback_p = k, p
                kids = children[k]
                if kids:
                    met += kids
                    for c in kids:
                        parent_of[c] = k
        for k in ties:
            for c in children[k] or ():
                if w_benefit * benefits[c] / max_b + cost_num / costs[c] == best_p:
                    ties.append(c)
                    parent_of[c] = k
                    if _precedes(c, best, candidates):
                        best = c
        if unbounded:
            yield _new(SelectionOutcome, (candidates[best], best_p, 0, True, _NO_REST))
        elif best >= 0:
            feasible_count = len(candidates) - step - ineligible
            yield _new(SelectionOutcome, (candidates[best], best_p, feasible_count, False, _NO_REST))
        else:
            best = fallback
            yield _new(SelectionOutcome, (candidates[best], fallback_p, 0, True, _NO_REST))
        kids, children[best] = children[best], None
        parent = parent_of.get(best, -1)
        if parent >= 0:
            siblings = children[parent]
            siblings.remove(best)
            if kids:
                siblings += kids
            continue
        roots.remove(best)
        if not kids:
            continue
        kids.sort(key=cost_of)
        kids.sort(key=benefit_of, reverse=True)
        for c in kids:
            i = bisect_left(roots, benefits[c], key=benefit_of)
            if i < len(roots) and costs[roots[i]] <= costs[c]:
                adopt(roots[i], c)
            else:
                roots.insert(i, c)


def _precedes(k: int, other: int, candidates: Sequence[CandidateInstance]) -> bool:
    """Tie-break between equal scores: lower catalog index, then earlier
    position."""
    index, other_index = candidates[k].response_index, candidates[other].response_index
    return index < other_index or (index == other_index and k < other)


#: Names accepted by :func:`make_selector` (and the CLI).
ALGORITHMS = ("saw", "lp-max", "lp-min")


def make_selector(algorithm: str, saw_cfg: SawConfig | None = None):
    """Adapt a named strategy to the uniform (candidates, impact, event)
    call shape the engine and harness use."""
    if saw_cfg is not None and not isinstance(saw_cfg, SawConfig):
        raise DomainError(f"saw_cfg must be a SawConfig, got {saw_cfg!r}")
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
    terminal = next((c for c in candidates if c.terminal), None)
    if terminal is None:
        raise DomainError("no feasible candidate and no terminal entry to fall back to")
    return terminal


def _feasible(
    candidates: Sequence[CandidateInstance], impact: float
) -> list[CandidateInstance]:
    return [c for c in candidates if not c.terminal and c.cost < impact]


# C-level sort keys, each one field of the candidate.
_INDEX = attrgetter("response_index")
_BENEFIT = attrgetter("benefit")
_COST = attrgetter("cost")


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
) -> Iterator[SelectionOutcome]:
    count = len(ranked)
    for step, chosen in enumerate(ranked):
        yield _new(SelectionOutcome, (chosen, score(chosen), count - step, False, _NO_REST))
    yield _new(SelectionOutcome, (_terminal(candidates), fallback_score, 0, True, _NO_REST))


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
