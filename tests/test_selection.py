import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from react_irs.model import CandidateInstance, DomainError, EnvironmentTerm
from react_irs import selection
from react_irs.risk import event_impact
from react_irs.selection import (
    EPSILON,
    RHO,
    SAW_FOREST_MIN,
    SawConfig,
    brute_force_oracle,
    compute_impact_alphas,
    lp_select_max_benefit,
    lp_select_min_cost,
    make_selector,
    saw_select,
)
from _reference import saw_preferences
from _support import level_grid_set, make_event, make_response


def instances(*specs):
    return [CandidateInstance(spec, "ecu") for spec in specs]


class TestSawConfig:
    def test_defaults(self):
        cfg = SawConfig()
        assert (RHO, EPSILON) == (1.0, 1e-6)
        assert (cfg.w_benefit, cfg.w_cost) == (0.6, 0.4)
        assert SawConfig(w_benefit=0.25).w_cost == 0.75

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"w_benefit": -0.1},
            {"w_benefit": 1.1},
            {"w_benefit": float("nan")},
            {"w_benefit": float("inf")},
            {"w_benefit": True},
            {"w_benefit": "0.5"},
            {"w_benefit": -0.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(DomainError):
            SawConfig(**kwargs)


class TestSawPreferences:
    def test_best_on_both_axes_scores_one(self):
        cands = instances(
            make_response(1, s=100, a=10),       # benefit 100, cost 10
            make_response(2, s=10, o=10, p=10, f=10, a=10, perf=10),  # 40, 20
        )
        ranked = saw_preferences(cands, SawConfig(), impact=200.0)
        assert ranked[0][1] == pytest.approx(1.0)
        assert ranked[1][1] == pytest.approx(0.6 * 0.4 + 0.4 * 0.5)

    def test_zero_benefit_replaced_by_epsilon(self):
        cands = instances(
            make_response(1, s=100, a=10),
            make_response(2, a=10),  # zero benefit, same cost
        )
        ranked = saw_preferences(cands, SawConfig(), impact=200.0)
        assert ranked[1][1] == pytest.approx(0.6 * EPSILON / 100 + 0.4)

    def test_zero_cost_replaced_by_epsilon(self):
        cands = instances(
            make_response(1, s=100, a=10),
            make_response(2, s=10),  # benefit 10, zero cost
        )
        ranked = saw_preferences(cands, SawConfig(), impact=200.0)
        # the zero cost becomes the min, so candidate 2 is cost-perfect
        assert ranked[1][1] == pytest.approx(0.6 * 0.1 + 0.4)
        assert ranked[0][1] == pytest.approx(0.6 + 0.4 * EPSILON / 10)

    def test_terminal_cost_uses_impact(self):
        cands = instances(
            make_response(1, s=10, a=1),
            make_response(31, terminal=True),
        )
        ranked = saw_preferences(cands, SawConfig(), impact=50.0)
        assert ranked[1][1] == pytest.approx(0.6 * EPSILON / 10 + 0.4 * 1 / 50)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty candidate set"):
            saw_preferences([], SawConfig(), impact=1.0)

    def test_scale_invariance_of_ranking(self):
        base = [
            make_response(1, s=100, a=10),
            make_response(2, s=10, f=10, o=10, p=10, a=1),
            make_response(3, s=10, a=100),
        ]
        scaled = [
            make_response(1, s=100, a=10, weights=(3.0,) * 4),
            make_response(2, s=10, f=10, o=10, p=10, a=1, weights=(3.0,) * 4),
            make_response(3, s=10, a=100, weights=(3.0,) * 4),
        ]
        r1 = saw_preferences(instances(*base), SawConfig(), impact=200.0)
        r2 = saw_preferences(instances(*scaled), SawConfig(), impact=200.0)
        for (_, p1), (_, p2) in zip(r1, r2):
            assert p1 == pytest.approx(p2)


class TestImpactAlphas:
    def test_single_event_shares_are_binary(self):
        alphas = compute_impact_alphas(make_event(s=100, f=0, o=100, p=0, velocity=70))
        assert alphas == [1.0, 0.0, 1.0, 0.0, 1.0]
        assert sum(alphas) == 3.0

    def test_stationary_event_drops_environment_share(self):
        alphas = compute_impact_alphas(make_event(s=0, f=10, o=10, p=100, velocity=0))
        assert alphas == [0.0, 1.0, 1.0, 1.0, 0.0]

    def test_weights_do_not_scale_shares(self):
        assert compute_impact_alphas(make_event(w_e=0.3)) == [1.0, 0.0, 1.0, 0.0, 1.0]
        assert compute_impact_alphas(make_event(w_e=0.0)) == [1.0, 0.0, 1.0, 0.0, 0.0]

    def test_stale_environment_snapshot_is_re_derived(self):
        # 100 km/h with a stored E of 0: the impact counts E = 100, so the
        # alphas must count the environment share too.
        event = make_event(s=100, f=0, o=0, p=0, velocity=100)
        event = replace(event, env=EnvironmentTerm(e=0, w_e=1.0))
        assert event_impact(event) == 200.0
        assert compute_impact_alphas(event) == [1.0, 0.0, 0.0, 0.0, 1.0]


class TestSawSelect:
    def test_picks_highest_preference(self):
        cands = instances(
            make_response(1, s=100, a=10),
            make_response(2, s=10, a=100),
            make_response(31, terminal=True),
        )
        out = saw_select(cands, [1.0, 0.0, 1.0, 0.0, 1.0], SawConfig(), impact=200.0)
        assert out.chosen.response.index == 1
        assert not out.fallback

    def test_tie_broken_by_lower_index(self):
        cands = instances(
            make_response(22, s=10, f=10, o=10, p=10, a=10, perf=1),
            make_response(21, s=10, f=10, o=10, p=10, a=10, perf=1),
            make_response(31, terminal=True),
        )
        out = saw_select(cands, [1.0, 1.0, 1.0, 0.0, 0.0], SawConfig(), impact=200.0)
        assert out.chosen.response.index == 21

    def test_strict_bound_triggers_flagged_fallback(self):
        cands = instances(
            make_response(1, s=100, a=10),
            make_response(31, terminal=True),
        )
        # shares so small that every preference sits above the bound
        out = saw_select(cands, [1e-9, 0.0, 0.0, 0.0, 0.0], SawConfig(), impact=200.0)
        assert out.fallback
        assert out.feasible_count == 0
        assert out.chosen.response.index == 1  # still the global maximum

    def test_sets_of_saw_forest_min_take_the_forest(self, monkeypatch):
        ranked = []
        for name in ("_saw_scan", "_saw_forest"):

            def spy(*args, rank=getattr(selection, name), name=name):
                ranked.append(name)
                return rank(*args)

            monkeypatch.setattr(selection, name, spy)
        for n in (SAW_FOREST_MIN - 1, SAW_FOREST_MIN):
            saw_select(level_grid_set(random.Random(n), n), [1.0] * 5, SawConfig(), impact=210.0)
        assert ranked == ["_saw_scan", "_saw_forest"]

    def test_single_candidate(self):
        cands = instances(make_response(31, terminal=True))
        out = saw_select(cands, [1.0] * 5, SawConfig(), impact=100.0)
        assert out.chosen.response.index == 31

    def test_bound_excludes_the_candidate_best_on_both_axes(self):
        # S=100 alone at 0 km/h: impact 100, one non-zero share, bound 1.
        # Candidate 2 is best on both axes, so its preference is exactly 1
        # and the strict bound leaves it out; the optimizers still take it.
        event = make_event(s=100, f=0, o=0, p=0, velocity=0)
        cands = instances(
            make_response(1, s=10, a=10),   # benefit 10, cost 10
            make_response(2, s=100, a=1),   # benefit 100, cost 1
            make_response(31, terminal=True),
        )
        assert compute_impact_alphas(event) == [1.0, 0.0, 0.0, 0.0, 0.0]
        picks = {algo: make_selector(algo)(cands, 100.0, event).chosen.response.index
                 for algo in ("saw", "lp-max", "lp-min")}
        assert picks == {"saw": 1, "lp-max": 2, "lp-min": 2}


class TestOptimizers:
    def test_max_benefit_ignores_infeasible(self):
        cands = instances(
            make_response(1, s=100, f=100, o=100, p=10, a=100, perf=100),  # cost 200
            make_response(2, s=10, a=1),
            make_response(31, terminal=True),
        )
        out = lp_select_max_benefit(cands, impact=120.0)
        assert out.chosen.response.index == 2
        assert out.feasible_count == 1

    def test_min_cost_prefers_cheapest(self):
        cands = instances(
            make_response(1, s=100, a=10),
            make_response(2, s=1, a=1),
            make_response(31, terminal=True),
        )
        out = lp_select_min_cost(cands, impact=100.0)
        assert out.chosen.response.index == 2
        assert out.score == 1.0

    def test_cost_equal_to_impact_is_infeasible(self):
        cands = instances(
            make_response(1, s=100, a=100),  # cost 100 == impact
            make_response(31, terminal=True),
        )
        out = lp_select_max_benefit(cands, impact=100.0)
        assert out.chosen.response.terminal

    def test_terminal_fallback_when_nothing_feasible(self):
        cands = instances(
            make_response(1, s=100, a=100, perf=100),
            make_response(31, terminal=True),
        )
        for select in (lp_select_max_benefit, lp_select_min_cost):
            out = select(cands, impact=50.0)
            assert out.chosen.response.terminal
            assert out.feasible_count == 0

    def test_tie_broken_by_index_then_position(self):
        a = make_response(21, s=10, f=10, o=10, p=10, a=10, perf=1)
        b = make_response(22, s=10, f=10, o=10, p=10, a=10, perf=1)
        cands = [
            CandidateInstance(b, "ecu"),
            CandidateInstance(a, "cam"),
            CandidateInstance(a, "ecu"),
            CandidateInstance(make_response(31, terminal=True), "ecu"),
        ]
        out = lp_select_max_benefit(cands, impact=200.0)
        assert out.chosen.response.index == 21
        assert out.chosen.target_asset == "cam"  # earlier instance wins the tie

    def test_oracle_agrees_on_small_example(self):
        cands = instances(
            make_response(1, s=100, a=10),
            make_response(2, s=10, a=1),
            make_response(31, terminal=True),
        )
        for objective, select in (
            ("max-benefit", lp_select_max_benefit),
            ("min-cost", lp_select_min_cost),
        ):
            assert select(cands, 200.0).chosen is brute_force_oracle(
                cands, 200.0, objective
            ).chosen

    @pytest.mark.parametrize(
        "select",
        [
            lambda: saw_select([], [1.0] * 5, SawConfig(), impact=1.0),
            lambda: lp_select_max_benefit([], 1.0),
            lambda: brute_force_oracle([], 1.0, "max-benefit"),
        ],
        ids=["saw", "lp-max", "oracle"],
    )
    def test_empty_set_rejected(self, select):
        with pytest.raises(DomainError, match="empty candidate set"):
            select()

    def test_oracle_rejects_unknown_objective(self):
        cands = instances(make_response(31, terminal=True))
        with pytest.raises(DomainError):
            brute_force_oracle(cands, 100.0, "fastest")


class TestMakeSelector:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(DomainError):
            make_selector("greedy")

    @pytest.mark.parametrize("algo", ["saw", "lp-max"])
    @pytest.mark.parametrize("saw_cfg", [0.5, {"w_benefit": 0.5}], ids=["float", "dict"])
    def test_saw_config_of_another_type_rejected(self, algo, saw_cfg):
        with pytest.raises(DomainError, match="saw_cfg must be a SawConfig"):
            make_selector(algo, saw_cfg)

    def test_uniform_signature(self):
        cands = instances(
            make_response(1, s=100, a=10),
            make_response(31, terminal=True),
        )
        event = make_event()
        for algo in ("saw", "lp-max", "lp-min"):
            out = make_selector(algo)(cands, 210.0, event)
            assert out.chosen.response.index in (1, 31)

    def test_saw_selector_honours_config(self):
        cands = instances(
            make_response(1, s=100, a=10),   # high benefit, high cost
            make_response(2, s=1, a=1),      # low benefit, low cost
            make_response(31, terminal=True),
        )
        event = make_event()
        cost_led = make_selector("saw", SawConfig(w_benefit=0.01))
        assert cost_led(cands, 210.0, event).chosen.response.index == 2
