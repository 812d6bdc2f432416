"""Cross-checks: the optimizing selectors against an exhaustive scan."""
import random

from hypothesis import given, settings, strategies as st

from react_irs.selection import (
    SawConfig,
    brute_force_oracle,
    lp_select_max_benefit,
    lp_select_min_cost,
    saw_preferences,
    saw_select,
)
from _support import assert_selectors_match_oracle, random_candidate_set


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


def _saw_rescan(candidates, cfg, impact, bound):
    """Re-score the shrinking list and take the best preference below the
    bound (or the best overall, as a fallback) until nothing is left."""
    remaining, out = list(candidates), []
    while remaining:
        prefs = saw_preferences(remaining, cfg, impact)
        eligible = [i for i, (_, p) in enumerate(prefs) if p < bound]
        pool = eligible or range(len(prefs))
        best = min(pool, key=lambda i: (-prefs[i][1], prefs[i][0].response.index, i))
        out.append((prefs[best][0], prefs[best][1], len(eligible), not eligible))
        del remaining[best]
    return out


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
    fast = _steps(saw_select(candidates, BOUND_ALPHAS[bound], cfg, impact))
    slow = _saw_rescan(candidates, cfg, impact, bound)
    assert len(fast) == len(slow) == len(candidates)
    for step, (f, s) in enumerate(zip(fast, slow)):
        assert f[0] is s[0] and f[1:] == s[1:], ("saw", w_benefit, bound, step, f[1:], s[1:])


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
