"""Acceptance checks — one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per guarantee.  Numeric comparisons are exact where the pipeline is
deterministic (integer-level arithmetic and a fixed RNG); timing
comparisons carry their tolerance in the assertion.
"""
import random
import time

import pytest

from react_irs.engine import (
    FAILURE_DECAY,
    adapt_on_failure,
    adapt_on_success,
    estimate_loop_time,
    inner_loop,
    LoopOrder,
)
from react_irs.harness import (
    emit_series,
    run_dynamic,
    run_static_quality,
    run_velocity_sweep,
)
from react_irs.responses import response_benefit, response_cost
from react_irs.selection import SawConfig, make_selector, saw_select
from _support import (
    assert_selectors_match_oracle,
    fixture_rows,
    level_grid_set,
    load_expected,
    make_event,
    make_response,
    random_candidate_set,
    report_rows,
)

ALGOS = ("saw", "lp-max", "lp-min")


def test_velocity_to_impact_table_is_exact_and_fast(scenario1, scenario2):
    """Impact tracks the velocity bands; the full sweep stays under 1 s."""
    t0 = time.perf_counter()
    table = load_expected("velocity_sweep.json")
    for name, scenario in (("scenario1", scenario1), ("scenario2", scenario2)):
        for algo in ALGOS:
            report = run_velocity_sweep(scenario, algo, velocities=(0, 50, 100))
            got = [
                (int(r.velocity_kmh), r.impact, r.response_index)
                for r in report.selections
            ]
            want = [
                (w["velocity_kmh"], w["impact"], w["response_index"])
                for w in table[name][algo]
            ]
            assert got == want, f"{name}/{algo} sweep diverged"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"velocity sweeps took {elapsed:.2f}s (budget 1s)"


def test_static_selection_series_match_shipped_datasets(scenario1, scenario2):
    """Every static drain reproduces its shipped series step for step."""
    pins = {
        ("scenario1", "lp-max"): (1, 28),
        ("scenario1", "lp-min"): (1, 28),
        ("scenario1", "saw"): (17, 26),
        ("scenario2", "lp-max"): (6, 22),
        ("scenario2", "lp-min"): (32, 21),
        ("scenario2", "saw"): (6, 22),
    }
    for name, scenario in (("scenario1", scenario1), ("scenario2", scenario2)):
        for algo in ALGOS:
            report = run_static_quality(scenario, algo)
            expected = load_expected(f"static_{name}_{algo}.json")
            first, length = pins[(name, algo)]
            assert report.selections[0].response_index == first
            assert len(report.selections) == length
            assert {r.impact for r in report.selections} == {expected["impact"]}
            assert report_rows(report) == fixture_rows(expected), (
                f"{name}/{algo} static series diverged from the shipped dataset"
            )


def test_optimizers_respect_cost_bound_and_saw_does_not(scenario1, scenario2):
    """LP picks always cost less than the impact; SAW provably may not."""
    for scenario in (scenario1, scenario2):
        for algo in ("lp-max", "lp-min"):
            report = run_static_quality(scenario, algo)
            impact = report.selections[0].impact
            for row in report.selections[:-1]:
                assert row.cost < impact, (
                    f"{algo} applied index {row.response_index} at cost "
                    f"{row.cost} >= impact {impact}"
                )
            assert report.selections[-1].cost == impact  # terminal peg

    # regression evidence: the additive-weighting strategy applies a
    # response costing 200 against an impact of only 120
    saw = run_static_quality(scenario2, "saw")
    overshoot = [r for r in saw.selections if r.cost > r.impact and r.response_index != 31]
    assert overshoot, "expected at least one SAW pick above the impact bound"
    assert any(r.response_index == 26 and r.cost == 200.0 for r in overshoot)


def test_optimizers_agree_with_exhaustive_oracle_on_10000_sets():
    """Both optimizers equal a brute-force scan on 10,000 random sets (<=64)."""
    assert_selectors_match_oracle(n_sets=10_000, seed=20240)


def test_feedback_adaptation_follows_the_decay_and_reward_rules(scenario1):
    """Failure decay, order preservation, bounded success rewards, and the
    pinned failure-mode selection sequence."""
    # exact decay map on the level scale
    assert FAILURE_DECAY == {100: 10, 10: 1, 1: 0, 0: 0}
    spec = make_response(17, s=100, f=100, o=10, p=10)
    assert adapt_on_failure(spec).benefit.levels() == (10, 10, 1, 1)

    # decay never reorders two benefits that share a weight vector (10,000 pairs)
    rng = random.Random(5)
    for _ in range(10_000):
        la = [rng.choice((0, 1, 10, 100)) for _ in range(4)]
        lb = [rng.choice((0, 1, 10, 100)) for _ in range(4)]
        w = tuple(rng.choice((0.5, 1.0, 2.0)) for _ in range(4))
        a = make_response(1, s=la[0], f=la[1], o=la[2], p=la[3], weights=w)
        b = make_response(2, s=lb[0], f=lb[1], o=lb[2], p=lb[3], weights=w)
        if response_benefit(a.benefit) >= response_benefit(b.benefit):
            hi, lo = a, b
        else:
            hi, lo = b, a
        assert response_benefit(adapt_on_failure(hi).benefit) >= response_benefit(
            adapt_on_failure(lo).benefit
        )

    # success rewards stay inside [0.8w, 1.2w] and are seed-reproducible
    for seed in (7, 11):
        first = adapt_on_success(spec, random.Random(seed))
        again = adapt_on_success(spec, random.Random(seed))
        assert first.benefit.weights() == again.benefit.weights()
        for w_old, w_new in zip(spec.benefit.weights(), first.benefit.weights()):
            assert 0.8 * w_old <= w_new <= 1.2 * w_old

    # pinned failure-mode sequence: safe mode, then isolation and process
    # kill on each involved asset in turn
    report = run_dynamic(scenario1, "lp-max", "failure", iterations=5, seed=7)
    assert [(r.response_index, r.target_asset) for r in report.selections] == [
        (17, "acceleration_control"),
        (20, "front_camera"),
        (20, "acceleration_control"),
        (26, "front_camera"),
        (26, "acceleration_control"),
    ]


def test_loop_orderings_agree_at_even_odds():
    """Check-first and select-first cost the same (within 1%) at p=0.5, n=1e6."""
    # equal unit costs for a check and a selection; convergence then holds
    # because half the candidates are expected to be reselected
    kwargs = dict(t_check=1e-6, t_select=1e-6, t_execute=5e-3, p=0.5, n=10**6)
    check_first = estimate_loop_time(LoopOrder.CHECK_FIRST, **kwargs)
    select_first = estimate_loop_time(LoopOrder.SELECT_FIRST, **kwargs)
    assert check_first > 0
    rel = abs(check_first - select_first) / check_first
    assert rel < 0.01, f"orderings differ by {rel:.2%} (tolerance 1%)"


def test_selection_latency_and_run_budgets(scenario1, tmp_path):
    """A 64-candidate selection stays under 50 ms; a full static drain under
    2 s; byte-identical output when timings are zeroed."""
    candidates = level_grid_set(random.Random(1), 64, unit_weights=True)
    assert len(candidates) == 64  # 63 regular entries + the terminal
    event = make_event()
    for algo in ALGOS:
        selector = make_selector(algo)
        t0 = time.perf_counter()
        selector(candidates, 210.0, event)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        assert elapsed_ms < 50.0, f"{algo} selection took {elapsed_ms:.1f} ms"

    t0 = time.perf_counter()
    report = run_static_quality(scenario1, "lp-max")
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"static drain took {elapsed:.2f}s (budget 2s)"

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_series(report, "csv", a, include_timings=False)
    emit_series(run_static_quality(scenario1, "lp-max"), "csv", b, include_timings=False)
    assert a.read_bytes() == b.read_bytes()


def test_4096_candidate_drains_stay_under_the_drain_budget(scenario1):
    """Draining 4,096 candidates with every precondition rejected takes
    under 2 s per strategy, and for ``saw`` also at a preference bound of
    0 (all-zero impact alphas, so every step is a fallback) and of 1 (a
    bound that binds, so the forest expands ineligible nodes), and ends
    at the terminal entry."""
    candidates = level_grid_set(random.Random(4096), 4096)
    event = scenario1.event()
    feasible = sum(
        not c.response.terminal and response_cost(c.response.cost) < 210.0 for c in candidates
    )
    selectors = {algo: make_selector(algo) for algo in ALGOS}
    selectors["saw at bound 0"] = lambda cands, impact, event: saw_select(
        cands, [0.0] * 5, SawConfig(), impact
    )
    selectors["saw at bound 1"] = lambda cands, impact, event: saw_select(
        cands, [1.0, 0.0, 0.0, 0.0, 0.0], SawConfig(), impact
    )
    for algo, selector in selectors.items():
        t0 = time.perf_counter()
        chosen, attempts = inner_loop(
            event, candidates, selector, {}, precondition_policy=lambda c: False
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"{algo} 4,096-candidate drain took {elapsed:.2f}s (budget 2s)"
        assert chosen.response.terminal
        if algo.startswith("lp-"):
            assert len(attempts) == feasible + 1
