"""Cross-checks: the optimizing selectors against an exhaustive scan."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from react_irs.selection import (
    RHO,
    SAW_FOREST_MIN,
    SawConfig,
    _head,
    _saw_forest,
    _saw_scan,
    brute_force_oracle,
    lp_select_max_benefit,
    lp_select_min_cost,
    saw_select,
)
from _reference import saw_rescan
from _support import assert_selectors_match_oracle, level_grid_set, random_candidate_set


def test_selectors_match_oracle_on_random_sets():
    # quick pass; the full 10,000-set sweep runs with the acceptance checks
    assert_selectors_match_oracle(n_sets=1500, seed=99)


def test_agreement_includes_terminal_fallback_sets():
    rng = random.Random(4)
    fallback_seen = 0
    for _ in range(500):
        candidates, impact = random_candidate_set(rng)
        out = lp_select_max_benefit(candidates, impact)
        if out.chosen.response.terminal:
            fallback_seen += 1
            oracle = brute_force_oracle(candidates, impact, "max-benefit")
            assert oracle.chosen.response.terminal
    assert fallback_seen > 0, "random sets never exercised the fallback path"


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_any_seeded_set_agrees(seed):
    rng = random.Random(seed)
    candidates, impact = random_candidate_set(rng, max_candidates=24)
    for objective, select in (
        ("max-benefit", lp_select_max_benefit),
        ("min-cost", lp_select_min_cost),
    ):
        fast = select(candidates, impact)
        slow = brute_force_oracle(candidates, impact, objective)
        assert fast.chosen is slow.chosen
        assert fast.feasible_count == slow.feasible_count


# Alphas whose bound RHO * sum(alphas) is 0, 1, 2 and 5.
BOUND_ALPHAS = {
    0: [0.0] * 5,
    1: [1.0, 0.0, 0.0, 0.0, 0.0],
    2: [1.0, 1.0, 0.0, 0.0, 0.0],
    5: [1.0] * 5,
}
W_BENEFITS = (0.0, 0.01, 0.6, 1.0)


def _steps(head):
    """(chosen, score, feasible_count, fallback) for a whole ranking, which
    only the head's ``rest`` continues: every later ``rest`` is empty."""
    steps = [head[:4]]
    for outcome in head.rest:
        assert list(outcome.rest) == []
        steps.append(outcome[:4])
    return steps


def _lp_rescan(candidates, impact, objective):
    """Re-select with the oracle on the shrinking list until the terminal."""
    remaining, out = list(candidates), []
    while True:
        o = brute_force_oracle(remaining, impact, objective)
        out.append((o.chosen, o.score, o.feasible_count, o.fallback))
        if o.chosen.response.terminal:
            return out
        del remaining[next(i for i, c in enumerate(remaining) if c is o.chosen)]


def _assert_rankings_match(candidates, impact, w_benefit, bound):
    for objective, select in (
        ("max-benefit", lp_select_max_benefit),
        ("min-cost", lp_select_min_cost),
    ):
        fast, slow = _steps(select(candidates, impact)), _lp_rescan(candidates, impact, objective)
        assert len(fast) == len(slow), objective
        for step, (f, s) in enumerate(zip(fast, slow)):
            assert f[0] is s[0] and f[1:] == s[1:], (objective, step, f[1:], s[1:])
    cfg = SawConfig(w_benefit=w_benefit)
    slow = saw_rescan(candidates, cfg, impact, bound)
    # saw_select takes the scan below SAW_FOREST_MIN candidates; the forest
    # is run directly so that it meets these small, tie-heavy sets too.
    forest = _head(_saw_forest(candidates, RHO * sum(BOUND_ALPHAS[bound]), cfg, impact))
    for name, head in (("saw", saw_select(candidates, BOUND_ALPHAS[bound], cfg, impact)),
                       ("forest", forest)):
        fast = _steps(head)
        assert len(fast) == len(slow) == len(candidates)
        for step, (f, s) in enumerate(zip(fast, slow)):
            assert f[0] is s[0] and f[1:] == s[1:], (name, w_benefit, bound, step, f[1:], s[1:])


def test_rankings_equal_a_rescan_of_the_shrinking_set():
    """Each later outcome of a ranking is what re-selecting on the set
    without the earlier choices gives: same instance, score, feasible
    count and fallback flag."""
    rng = random.Random(6)
    combos = [(w, b) for w in W_BENEFITS for b in BOUND_ALPHAS]
    for trial in range(2000):
        candidates, impact = random_candidate_set(rng)
        w_benefit, bound = combos[trial % len(combos)]
        _assert_rankings_match(candidates, impact, w_benefit, bound)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(W_BENEFITS),
    st.sampled_from(sorted(BOUND_ALPHAS)),
)
@settings(max_examples=150, deadline=None)
def test_any_seeded_ranking_equals_a_rescan(seed, w_benefit, bound):
    candidates, impact = random_candidate_set(random.Random(seed), max_candidates=24)
    _assert_rankings_match(candidates, impact, w_benefit, bound)


def _assert_forest_matches_scan(candidates, impact, cfg):
    for bound in sorted(BOUND_ALPHAS):
        args = (candidates, RHO * sum(BOUND_ALPHAS[bound]), cfg, impact)
        for step, (f, s) in enumerate(zip(_saw_forest(*args), _saw_scan(*args), strict=True)):
            assert f[0] is s[0] and f[1:4] == s[1:4], (bound, step, f[1:4], s[1:4])


@pytest.mark.parametrize("n", [1026, 4096])
def test_forest_ranks_large_sets_as_the_scan_does(n):
    """Step by step, at every bound, on sets far above SAW_FOREST_MIN."""
    assert n >= SAW_FOREST_MIN
    _assert_forest_matches_scan(level_grid_set(random.Random(n), n), 210.0, SawConfig())


def test_forest_ranks_shared_grid_points_as_the_scan_does():
    """Unit weights put 4,096 candidates on 341 (benefit, cost) points, the
    most common one 59 times, with catalog indices from 1-39: long chains
    of equal scores that the index-then-position tie-break must order."""
    rng = random.Random(48)
    candidates = level_grid_set(rng, 4096, unit_weights=True, indices=range(1, 40))
    _assert_forest_matches_scan(candidates, 210.0, SawConfig())
