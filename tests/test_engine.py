import json
import math
import random
import re
from dataclasses import replace
from itertools import chain, count
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import react_irs.engine as engine_module
from react_irs.engine import (
    DEFAULT_MAX_ITERATIONS,
    AdaptationConfig,
    FAILURE_DECAY,
    Engine,
    Failure,
    LoopOrder,
    NewIntrusion,
    Success,
    adapt_on_failure,
    adapt_on_success,
    estimate_loop_time,
    inner_loop,
)
from react_irs.model import (
    CandidateInstance, DomainError, EnvironmentTerm, ImpactVector, IntrusionResult, Place,
    VehicleState,
)
from react_irs.responses import CatalogError, CatalogResponses, generate_candidates, response_benefit
from react_irs.selection import make_selector
from _support import by_index, make_event, make_response, replay


def _untimed(attempts):
    return [a._replace(selection_time_ms=0.0) for a in attempts]


def _untimed_record(record):
    return record._replace(
        attempts=tuple(_untimed(record.attempts)),
        applied=record.applied._replace(selection_time_ms=0.0),
        selection_time_ms=0.0,
    )


class TestFailureAdaptation:
    def test_decay_table(self):
        assert FAILURE_DECAY == {100: 10, 10: 1, 1: 0, 0: 0}

    def test_levels_step_down(self):
        spec = make_response(17, s=100, f=100, o=10, p=10)
        once = adapt_on_failure(spec)
        assert once.benefit.levels() == (10, 10, 1, 1)
        assert response_benefit(once.benefit) == 22.0
        twice = adapt_on_failure(once)
        assert twice.benefit.levels() == (1, 1, 0, 0)
        assert response_benefit(twice.benefit) == 2.0

    def test_zero_is_a_fixed_point(self):
        spec = make_response(30)
        assert adapt_on_failure(spec).benefit.levels() == (0, 0, 0, 0)

    def test_weights_unchanged(self):
        spec = make_response(17, s=100, weights=(0.5, 1.5, 1.0, 1.0))
        assert adapt_on_failure(spec).benefit.weights() == (0.5, 1.5, 1.0, 1.0)

    def test_original_benefit_untouched(self):
        spec = make_response(17, s=100, f=100, o=10, p=10)
        assert adapt_on_failure(spec).original_benefit.levels() == (100, 100, 10, 10)

    @given(
        st.tuples(*[st.sampled_from((0, 1, 10, 100))] * 4),
        st.tuples(*[st.sampled_from((0, 1, 10, 100))] * 4),
    )
    def test_decay_preserves_benefit_order(self, lv_a, lv_b):
        a = make_response(1, s=lv_a[0], f=lv_a[1], o=lv_a[2], p=lv_a[3])
        b = make_response(2, s=lv_b[0], f=lv_b[1], o=lv_b[2], p=lv_b[3])
        if response_benefit(a.benefit) >= response_benefit(b.benefit):
            assert response_benefit(adapt_on_failure(a).benefit) >= response_benefit(
                adapt_on_failure(b).benefit
            )


class TestSuccessAdaptation:
    def test_weights_stay_within_draw_bounds(self):
        spec = make_response(17, s=100, f=100, o=10, p=10)
        adapted = adapt_on_success(spec, random.Random(7))
        for w_old, w_new in zip(spec.benefit.weights(), adapted.benefit.weights()):
            assert 0.8 * w_old <= w_new <= 1.2 * w_old

    def test_levels_restored_from_original(self):
        spec = make_response(17, s=100, f=100, o=10, p=10)
        failed = adapt_on_failure(spec)
        adapted = adapt_on_success(failed, random.Random(0))
        assert adapted.benefit.levels() == (100, 100, 10, 10)

    def test_same_seed_reproduces_weights(self):
        spec = make_response(17, s=100, f=100, o=10, p=10)
        a = adapt_on_success(spec, random.Random(7))
        b = adapt_on_success(spec, random.Random(7))
        assert a.benefit.weights() == b.benefit.weights()

    def test_different_seeds_diverge(self):
        spec = make_response(17, s=100, f=100, o=10, p=10)
        a = adapt_on_success(spec, random.Random(1))
        b = adapt_on_success(spec, random.Random(2))
        assert a.benefit.weights() != b.benefit.weights()

    def test_repeated_success_compounds(self):
        spec = make_response(17, s=100)
        rng = random.Random(7)
        once = adapt_on_success(spec, rng)
        twice = adapt_on_success(once, rng)
        # second pass multiplies the already-adapted weights
        expected_rng = random.Random(7)
        d1 = [expected_rng.uniform(0.8, 1.2) for _ in range(4)]
        d2 = [expected_rng.uniform(0.8, 1.2) for _ in range(4)]
        assert twice.benefit.weights() == tuple(
            1.0 * a * b for a, b in zip(d1, d2)
        )


class TestWithBenefit:
    def test_equals_dataclasses_replace_as_a_new_object(self):
        import dataclasses

        spec = make_response(17, s=100, f=10, o=1, p=0, a=10, weights=(0.5, 1.5, 1.0, 2.0))
        before, benefit_before = dataclasses.replace(spec), spec.benefit
        benefit = ImpactVector(10, 1, 0, 0, 0.5, 1.5, 1.0, 2.0)
        swapped = spec.with_benefit(benefit)
        replaced = dataclasses.replace(spec, benefit=benefit)
        assert swapped == replaced and hash(swapped) == hash(replaced)
        assert swapped is not spec and swapped is not replaced
        assert swapped.benefit is benefit
        assert spec == before and spec.benefit is benefit_before

    def test_adaptation_keeps_the_weight_validation(self):
        # The w_o draw of random.Random(7) is 1.06, so that weight overflows
        # to inf, which the new ImpactVector rejects.
        spec = make_response(17, s=1, weights=(1.7e308,) * 4)
        with pytest.raises(DomainError, match="w_o"):
            adapt_on_success(spec, random.Random(7))

    def test_adaptation_rejects_an_overflowing_total(self):
        # The w_s draw of random.Random(0) is 1.14: the weight stays finite,
        # but ten times it does not.
        spec = make_response(17, s=10, weights=(1.7e307, 1.0, 1.0, 1.0))
        with pytest.raises(DomainError, match="weighted total must be finite, got inf"):
            adapt_on_success(spec, random.Random(0))


class TestInnerLoop:
    def _catalog(self):
        return [
            make_response(17, s=100, f=100, o=10, p=10, a=10, perf=10),
            make_response(30, s=10, f=10, o=1, p=1, precondition="soc_reachable"),
            make_response(31, terminal=True),
        ]

    def _candidates(self, event):
        from react_irs.responses import generate_candidates

        return generate_candidates(event, self._catalog())

    def test_returns_first_passing_candidate(self):
        event = make_event(facts={"soc_reachable": True})
        chosen, attempts = inner_loop(
            event, self._candidates(event), make_selector("lp-max"), event.vehicle.facts
        )
        assert chosen.response.index == 17
        assert len(attempts) == 1
        assert attempts[0].precondition_passed

    def test_failed_checks_are_recorded_then_skipped(self):
        event = make_event(s=100, f=0, o=100, p=0, facts={"soc_reachable": True})
        catalog = [
            make_response(1, s=100, f=100, o=100, p=10, precondition="false"),
            *self._catalog(),
        ]
        from react_irs.responses import generate_candidates

        chosen, attempts = inner_loop(
            event,
            generate_candidates(event, catalog),
            make_selector("lp-max"),
            event.vehicle.facts,
        )
        assert [a.response_index for a in attempts] == [1, 17]
        assert [a.precondition_passed for a in attempts] == [False, True]
        assert chosen.response.index == 17

    def test_reject_all_policy_drains_to_terminal(self):
        event = make_event()
        chosen, attempts = inner_loop(
            event,
            self._candidates(event),
            make_selector("lp-max"),
            event.vehicle.facts,
            precondition_policy=lambda cand: False,
        )
        assert chosen.response.terminal
        assert [a.response_index for a in attempts] == [17, 30, 31]
        # ``Engine.decide`` passes the policy through to the same drain.
        engine = Engine(self._catalog(), make_selector("lp-max"))
        decision = engine.decide(event, precondition_policy=lambda cand: False)
        assert type(decision) is tuple and len(decision) == 5
        decided, count, decided_attempts, generation_s, selection_ms = decision
        assert decided == chosen
        # It decides at the event's own impact, to which the terminal's cost is pegged.
        assert decided_attempts[-1].cost == event.impact
        assert count == 3
        assert _untimed(decided_attempts) == _untimed(attempts)
        assert generation_s >= 0.0 and selection_ms >= 0.0

    def test_terminal_is_exempt_from_policy(self):
        event = make_event()
        candidates = [CandidateInstance(make_response(31, terminal=True), "ecu")]
        chosen, _ = inner_loop(
            event,
            candidates,
            make_selector("lp-max"),
            {},
            precondition_policy=lambda cand: False,
        )
        assert chosen.response.terminal

    def test_exhaustion_without_terminal_raises(self):
        event = make_event()
        candidates = [CandidateInstance(make_response(5, s=10, a=1), "ecu")]
        with pytest.raises(DomainError):
            inner_loop(
                event,
                candidates,
                make_selector("lp-max"),
                {},
                precondition_policy=lambda cand: False,
            )

    def test_ranking_that_runs_out_raises(self):
        # A SAW ranking ends after its last candidate, so with no terminal
        # entry a reject-all policy exhausts it.
        event = make_event()
        candidates = [CandidateInstance(make_response(5, s=10, a=1), "ecu")]
        with pytest.raises(DomainError, match="candidate set exhausted"):
            inner_loop(
                event,
                candidates,
                make_selector("saw"),
                {},
                precondition_policy=lambda cand: False,
            )

    def test_attempts_capture_timing(self, monkeypatch):
        # A clock that advances one second per read.  The policy reads it
        # too, as a precondition check takes time; an attempt's selection
        # time must cover its ranking step and nothing of the check.
        ticks = count(0.0)
        monkeypatch.setattr(engine_module, "time", SimpleNamespace(perf_counter=ticks.__next__))
        event = make_event()
        for algorithm in ("lp-max", "lp-min", "saw"):
            _, attempts = inner_loop(
                event, self._candidates(event), make_selector(algorithm), event.vehicle.facts,
                precondition_policy=lambda cand: next(ticks) is None,
            )
            assert len(attempts) == 3
            assert [a.selection_time_ms for a in attempts] == [1000.0] * 3


class TestEngineRuns:
    def _catalog(self):
        return [
            make_response(17, s=100, f=100, o=10, p=10, a=10, perf=10),
            make_response(30, s=10, f=10, o=1, p=1),
            make_response(31, terminal=True),
        ]

    def _run(self, event, verdicts, **kwargs):
        engine = Engine(self._catalog(), make_selector("lp-max"))
        return engine.run(event, replay(verdicts), **kwargs)

    def test_success_stops_the_loop(self):
        event = make_event()
        trace = self._run(event, [Success()])
        assert len(trace.records) == 1
        assert trace.records[0].verdict == "success"
        assert trace.records[0].applied.response_index == 17

    def test_failure_decays_until_choice_changes(self):
        event = make_event()
        trace = self._run(event, [Failure()] * 4, max_iterations=4)
        picks = [r.applied.response_index for r in trace.records]
        benefits = [r.applied.benefit for r in trace.records]
        # 17 decays 220 -> 22 (ties 30 on index) -> 2, handing the lead to 30
        assert picks == [17, 17, 30, 17]
        assert benefits == [220.0, 22.0, 22.0, 2.0]

    def test_new_intrusion_continues_with_new_event(self):
        first = make_event(velocity=70)
        second = make_event(velocity=0)
        trace = self._run(first, [NewIntrusion(second), Success()], max_iterations=5)
        assert [r.verdict for r in trace.records] == ["new_intrusion", "success"]
        assert trace.records[0].velocity_kmh == 70
        assert trace.records[1].velocity_kmh == 0

    def test_unknown_verdict_rejected(self):
        engine = Engine(self._catalog(), make_selector("lp-max"))
        with pytest.raises(DomainError, match="unknown feedback verdict: 'maybe'"):
            engine.run(make_event(), replay(["maybe"]))
        # Raised before the chosen response is adapted or recorded.
        assert engine._adapted == {}

    def test_a_new_intrusion_needs_an_event(self):
        engine = Engine(self._catalog(), make_selector("lp-max"))
        with pytest.raises(DomainError, match=re.escape("unknown feedback verdict: NewIntrusion(event=5)")):
            engine.run(make_event(), replay([NewIntrusion(5)]))
        assert engine._adapted == {}

    def test_iteration_cap_respected(self):
        event = make_event()
        trace = self._run(event, [Failure()] * 50, max_iterations=3)
        assert len(trace.records) == 3

    def test_default_iteration_cap(self):
        event = make_event()
        trace = self._run(event, [Failure()] * 50)
        assert len(trace.records) == DEFAULT_MAX_ITERATIONS

    def test_adaptation_is_per_target_instance(self):
        from react_irs.model import Place

        catalog = [
            make_response(20, s=100, f=10, o=10, p=0, a=100, perf=1, place=Place.BOTH),
            make_response(31, terminal=True),
        ]
        event = make_event(infected="cam", affected="ecu")
        engine = Engine(catalog, make_selector("lp-max"))
        trace = engine.run(event, replay([Failure()] * 2), 2)
        picks = [(r.applied.response_index, r.applied.target_asset) for r in trace.records]
        assert picks == [(20, "cam"), (20, "ecu")]

    def test_effects_update_facts_for_later_iterations(self):
        catalog = [
            make_response(17, s=100, f=100, o=10, p=10, a=10, perf=10),
            make_response(
                29, s=100, f=10, o=10, p=0, a=10, perf=10, precondition="update_available"
            ),
            make_response(31, terminal=True),
        ]
        event = make_event(facts={})
        engine = Engine(
            catalog,
            make_selector("lp-max"),
            effects={17: {"update_available": True}},
        )
        trace = engine.run(event, replay([Failure()] * 3), 3)
        picks = [r.applied.response_index for r in trace.records]
        # 29 is locked out until applying 17 sets the fact it needs
        assert picks[0] == 17
        assert 29 in picks[1:]

    def test_an_effect_merges_into_the_checked_facts(self, demo_scenario):
        """The event an effect gives equals the one the constructors build
        from the merged facts, keeps the impact's bits, holds a new
        read-only copy of the facts and leaves its source unchanged."""
        event = demo_scenario.event()
        vehicle, before = event.vehicle, dict(event.vehicle.facts)
        for updates in demo_scenario.effects.values():
            merged = event._with_facts(updates)
            built = replace(
                event, vehicle=VehicleState(vehicle.velocity_kmh, {**vehicle.facts, **updates})
            )
            assert merged == built
            assert merged.impact.hex() == built.impact.hex()
            assert merged.vehicle.velocity_kmh is vehicle.velocity_kmh
            assert type(merged.vehicle.facts) is MappingProxyType
            assert merged.vehicle.facts != vehicle.facts
        assert event.vehicle is vehicle and vehicle.facts == before

    def test_the_decision_after_an_effect_sees_the_merged_facts(self, demo_scenario, generic_catalog):
        """On ``demo.json``, ``lp-max`` applies entry 20 at the fourth of
        five failures; the fifth decision is made on its effect."""
        seen, select = [], make_selector("lp-max")

        def selector(candidates, impact, event):
            seen.append(event)
            return select(candidates, impact, event)

        event = demo_scenario.event()
        engine = Engine(generic_catalog.responses, selector, effects=demo_scenario.effects)
        trace = engine.run(event, replay([Failure()] * 5), 5)
        assert [r.applied.response_index for r in trace.records][3] == 20
        merged = {**event.vehicle.facts, **demo_scenario.effects[20]}
        assert [dict(e.vehicle.facts) for e in seen] == [dict(event.vehicle.facts)] * 4 + [merged]
        assert {e.impact for e in seen} == {event.impact}

    @pytest.mark.parametrize("iterations", [0, True, 2.5])
    def test_rejects_nonpositive_iterations(self, iterations):
        event = make_event()
        engine = Engine(self._catalog(), make_selector("lp-max"))
        with pytest.raises(DomainError):
            engine.run(event, replay([Success()]), iterations)

    @pytest.mark.parametrize("algo", ["lp-max", "lp-min", "saw"])
    def test_a_follow_up_with_an_infinite_impact_is_rejected(self, algo):
        """An event built in code can carry an environment weight whose term
        overflows; it is rejected when it is built, here by the feedback
        source reporting it, so no selector ranks at an impact of ``inf``."""
        def follow_up(iteration, applied):
            huge = replace(make_event(velocity=80), env=EnvironmentTerm(e=100, w_e=1.7e308))
            return NewIntrusion(huge)

        engine = Engine(self._catalog(), make_selector(algo))
        with pytest.raises(DomainError, match="event impact must be finite, got inf"):
            engine.run(make_event(), follow_up, 3)


GENERIC_FACTS = (
    "backup_storage_ready", "driver_notified", "driving", "honeypot_ready",
    "redundant_source_available", "update_available", "vehicle_stationary",
)
KEY_RESULTS = (
    IntrusionResult.FALSIFY_ALTER_BEHAVIOR,
    IntrusionResult.INFORMATION_DISCLOSURE,
    IntrusionResult.SYSTEM_UNAVAILABILITY,
)
KEY_ASSETS = ("cam", "ecu", "gw")


def _random_event(rng: random.Random):
    return make_event(
        s=rng.choice((0, 1, 10, 100)),
        f=rng.choice((0, 1, 10, 100)),
        o=rng.choice((0, 1, 10, 100)),
        p=rng.choice((0, 1, 10, 100)),
        velocity=rng.choice((0.0, 30.0, 70.0, 120.0)),
        infected=rng.choice(KEY_ASSETS),
        affected=rng.choice(KEY_ASSETS),
        result=rng.choice(KEY_RESULTS),
        facts={name: rng.random() < 0.5 for name in GENERIC_FACTS},
    )


def _key(event):
    return event.result, event.infected_asset, event.affected_asset


def _from_scratch(catalog, selector, rng_seed, event, verdicts, stats):
    """The outer loop with nothing kept between iterations: regenerate the
    set and overlay every adapted spec.  Returns the attempts per
    iteration, without timings."""
    rng = random.Random(rng_seed)
    adapted, adapted_under, seen_keys = {}, {}, set()
    iterations, previous = [], None
    for verdict in verdicts:
        key = _key(event)
        stats["revisits"] += key in seen_keys and key != previous
        seen_keys.add(key)
        previous = key
        candidates = [
            CandidateInstance(adapted.get((c.response.index, c.target_asset), c.response), c.target_asset)
            for c in generate_candidates(event, catalog)
        ]
        stats["cross_key"] += any(
            adapted_under.get((c.response.index, c.target_asset), key) != key for c in candidates
        )
        chosen, attempts = inner_loop(event, candidates, selector, event.vehicle.facts)
        instance = (chosen.response.index, chosen.target_asset)
        if isinstance(verdict, Failure):
            adapted[instance] = adapt_on_failure(chosen.response)
        else:
            adapted[instance] = adapt_on_success(chosen.response, rng)
        adapted_under[instance] = key
        iterations.append([a._replace(selection_time_ms=0.0) for a in attempts])
        if isinstance(verdict, Success):
            break
        if isinstance(verdict, NewIntrusion):
            event = verdict.event
    return iterations


class TestCandidateMemo:
    @pytest.mark.parametrize("algo", ["lp-max", "lp-min", "saw"])
    def test_kept_sets_equal_regenerating_with_every_adaptation(self, generic_catalog, algo):
        """Verdicts move between (result, infected, affected) keys and come
        back; an adaptation written under one key must show in every other
        set that holds the same instance."""
        catalog = generic_catalog.responses
        selector = make_selector(algo)
        rng = random.Random(f"memo:{algo}")
        stats = {"revisits": 0, "cross_key": 0}
        for _ in range(60):
            first = _random_event(rng)
            verdicts = [
                Failure() if rng.random() < 0.4 else NewIntrusion(_random_event(rng))
                for _ in range(rng.randint(1, 11))
            ] + [Success()]
            seed = rng.randrange(2**31)
            engine = Engine(catalog, selector, adaptation=AdaptationConfig(rng_seed=seed))
            trace = engine.run(first, replay(verdicts), len(verdicts))
            got = [_untimed(r.attempts) for r in trace.records]
            assert got == _from_scratch(catalog, selector, seed, first, verdicts, stats)
            # Deciding first, on the run's own key and on another, adapts
            # nothing, so the run that follows records the same trace.
            decided = Engine(catalog, selector, adaptation=AdaptationConfig(rng_seed=seed))
            decided.decide(first)
            decided.decide(_random_event(random.Random(seed)), precondition_policy=lambda cand: False)
            assert not decided._adapted
            again = decided.run(first, replay(verdicts), len(verdicts))
            assert list(map(_untimed_record, again.records)) == list(map(_untimed_record, trace.records))
        assert stats["revisits"] > 0 and stats["cross_key"] > 0

    def test_one_generation_per_key_change(self, generic_catalog, monkeypatch):
        """An engine asks for a set only when the event's key changes: on
        keys A, B, A three times, on A alone once."""
        calls = []

        def counted(*args):
            calls.append(args)
            return generate_candidates(*args)

        monkeypatch.setattr(engine_module, "generate_candidates", counted)
        a = make_event(infected="cam", affected="ecu")
        b = make_event(infected="ecu", affected="cam", result=IntrusionResult.SYSTEM_UNAVAILABILITY)
        for keys, generations in (((a, b, a), 3), ((a, a, a), 1)):
            calls.clear()
            engine = Engine(generic_catalog.responses, make_selector("lp-max"))
            engine.run(keys[0], replay([NewIntrusion(e) for e in keys[1:]]), len(keys))
            assert len(calls) == generations

    def test_a_set_handed_to_the_selector_never_changes(self, generic_catalog):
        handed = []

        def selector(candidates, impact, event):
            handed.append((candidates, list(candidates)))
            return make_selector("lp-max")(candidates, impact, event)

        event = make_event(infected="cam", affected="ecu")
        engine = Engine(generic_catalog.responses, selector)
        engine.run(event, replay([Failure()] * 4), 4)
        assert len(handed) == 4
        assert all(
            len(kept) == len(snapshot) and all(a is b for a, b in zip(kept, snapshot))
            for kept, snapshot in handed
        )

    def test_an_adaptation_is_one_instance_shared_by_every_kept_set(self, generic_catalog):
        """One adapted instance per write, in every position of each later
        key's set that holds its (index, target), including the sets
        generated after the run."""
        events = [make_event(infected="cam", affected="ecu", result=result) for result in KEY_RESULTS]
        verdicts = [NewIntrusion(events[1]), Failure(), NewIntrusion(events[2]),
                    NewIntrusion(events[0]), Failure(), Success()]
        lp_max = make_selector("lp-max")
        handed = []

        def selector(candidates, impact, event):
            handed.append((_key(event), list(candidates), dict(engine._adapted)))
            return lp_max(candidates, impact, event)

        engine = Engine(generic_catalog.responses, selector)
        engine.run(events[0], replay(verdicts), len(verdicts))
        assert [key for key, _, _ in handed] == [_key(events[i]) for i in (0, 1, 1, 2, 0, 0)]
        handed += [(_key(e), engine._candidates_for(e), engine._adapted) for e in events]
        holders = {}
        for key, candidates, adapted in handed:
            for cand in candidates:
                written = adapted.get((cand.response.index, cand.target_asset))
                if written is not None:
                    assert cand is written
                    holders.setdefault(id(written), set()).add(key)
        assert all(id(written) in holders for written in engine._adapted.values())
        assert max(map(len, holders.values())) > 1


class TestSharedCatalog:
    """Engines on one loaded catalog share its generated sets, never each
    other's adaptations."""

    @pytest.mark.parametrize("algo", ["lp-max", "lp-min", "saw"])
    def test_adaptations_never_reach_a_second_engine(self, data, algo):
        from react_irs.files import load_catalog, parse_catalog

        path = data / "catalog_generic.json"
        loaded = load_catalog(path).responses
        selector = make_selector(algo)
        event = make_event(infected="cam", affected="ecu")
        later = make_event(infected="ecu", affected="cam", result=IntrusionResult.SYSTEM_UNAVAILABILITY)
        for verdicts in ([Failure()] * 4, [NewIntrusion(later), Failure(), NewIntrusion(event)]):
            first = Engine(loaded, selector, AdaptationConfig(rng_seed=3))
            first.run(event, replay(verdicts), len(verdicts) + 1)
            assert first._adapted
            fresh = parse_catalog(json.loads(path.read_text(encoding="utf-8"))).responses
            for probe in (event, later):
                got = Engine(loaded, selector).decide(probe)
                want = Engine(fresh, selector).decide(probe)
                assert got[:2] == want[:2]
                assert _untimed(got[2]) == _untimed(want[2])
                assert generate_candidates(probe, loaded) == generate_candidates(probe, fresh)
        assert all(
            cand.response.benefit is cand.response.original_benefit
            for kept in loaded.sets.values() for cand in kept
        )

    def test_a_tuple_catalog_is_kept_as_given_and_a_list_is_copied(self, generic_catalog):
        selector = make_selector("lp-max")
        assert Engine(generic_catalog.responses, selector)._catalog is generic_catalog.responses
        catalog = [make_response(2, s=10), make_response(31, terminal=True)]
        engine = Engine(catalog, selector)
        catalog.insert(0, make_response(1, s=100))
        assert engine.decide(make_event())[0].response.index == 2

    @pytest.mark.parametrize(
        "effects,named",
        [
            ({"2_0": {}}, "'2_0'"),
            ({"20": {}}, "'20'"),
            ({2.7: {}}, "2.7"),
            ({True: {}}, "True"),
            ({17: {"update_available": 1}}, "effects[17].update_available"),
            ({17: {"update_available": "yes"}}, "'yes'"),
            ({17: {"Driving": True}}, "effects[17].Driving: not a fact name ("),
            ({17: {"true": True}}, "effects[17].true: not a fact name ("),
            ({17: {5: True}}, "effects[17].5: not a fact name ("),
            ({17: [("update_available", True)]}, "effects[17]: expected a mapping"),
            ({17: None}, "effects[17]: expected a mapping of facts to flags, got None"),
            ([(17, {})], "effects: expected a mapping of response indices, got [(17, {})]"),
        ],
        ids=["underscore", "digit-string", "float", "bool", "int-flag", "string-flag",
             "capital-name", "literal-name", "int-name", "pair-list", "none-flags", "pair-list-effects"],
    )
    def test_effects_are_checked_not_coerced(self, effects, named):
        catalog = [make_response(17), make_response(31, terminal=True)]
        with pytest.raises(DomainError, match=re.escape(named)):
            Engine(catalog, make_selector("lp-max"), effects=effects)

    @pytest.mark.parametrize(
        "args,named",
        [
            ((make_selector("lp-max"), 5), "adaptation: expected an AdaptationConfig, got 5"),
            ((make_selector("lp-max"), AdaptationConfig(rng_seed=None)),
             "adaptation.rng_seed: expected an int, got None"),
            ((make_selector("lp-max"), AdaptationConfig(rng_seed="7")),
             "adaptation.rng_seed: expected an int, got '7'"),
            ((make_selector("lp-max"), AdaptationConfig(rng_seed=1.5)),
             "adaptation.rng_seed: expected an int, got 1.5"),
            ((make_selector("lp-max"), AdaptationConfig(rng_seed=True)),
             "adaptation.rng_seed: expected an int, got True"),
            ((5,), "selector: expected a callable, got 5"),
        ],
        ids=["int-adaptation", "none-seed", "str-seed", "float-seed", "bool-seed", "int-selector"],
    )
    def test_seed_adaptation_and_selector_are_checked(self, args, named):
        catalog = [make_response(17), make_response(31, terminal=True)]
        with pytest.raises(DomainError, match=re.escape(named)):
            Engine(catalog, *args)

    def test_effects_are_copied(self):
        catalog = [make_response(17), make_response(31, terminal=True)]
        effects = {17: {"update_available": True}}
        engine = Engine(catalog, make_selector("lp-max"), effects=effects)
        effects[17]["update_available"] = False
        assert engine._effects == {17: {"update_available": True}}

def _scan_swap(candidates, instance):
    """A plain scan of the set: every position that holds the instance's
    (index, target) gets the instance."""
    key = instance.response.index, instance.target_asset
    return [instance if (c.response.index, c.target_asset) == key else c for c in candidates]


def _same_objects(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class TestRecord:
    """``Engine._record`` finds the adapted instance by identity; the result
    must be what a scan of the set by (index, target) would give."""

    def _write(self, engine, events, position, event=0):
        """Adapt the instance at ``position`` of ``events[event]``'s set.
        Returns every event's set before and after the write, and the
        written instance."""
        before = [list(engine._candidates_for(e)) for e in events]
        chosen = before[event][position]
        engine._record(chosen, adapt_on_failure(chosen.response))
        after = [engine._candidates_for(e) for e in events]
        return before, after, engine._adapted[chosen.response.index, chosen.target_asset]

    def test_entries_that_share_an_index(self):
        # Shared instances need unique indices, so the Python API rejects a
        # repeated one, as the loader does in a file.
        catalog = [
            make_response(20, s=100),
            make_response(20, s=10, action="twin"),
            make_response(31, terminal=True),
        ]
        for given in (catalog, tuple(catalog)):
            with pytest.raises(CatalogError, match="response index 20 is repeated"):
                Engine(given, make_selector("lp-max"))
        with pytest.raises(CatalogError, match="response index 20 is repeated"):
            CatalogResponses(catalog)
        with pytest.raises(CatalogError, match="response index 20 is repeated"):
            generate_candidates(make_event(), catalog)

    def test_a_plain_list_shares_one_instance_per_index_and_target(self):
        catalog = [
            make_response(20, place=Place.SOURCE),
            make_response(21, place=Place.BOTH),
            make_response(31, terminal=True),
        ]
        events = [
            make_event(infected="cam", affected="ecu"),
            make_event(infected="gw", affected="ecu"),
            make_event(infected="cam", affected="gw"),
        ]
        engine = Engine(catalog, make_selector("lp-max"))
        held = list(chain.from_iterable(engine._candidates_for(e) for e in events))
        shared = {}
        for cand in held:
            assert shared.setdefault((cand.response.index, cand.target_asset), cand) is cand
        assert len(held) == 12 and len(shared) == 7

    def test_both_entry_swaps_only_the_matching_target(self):
        catalog = [make_response(20, place=Place.BOTH), make_response(31, terminal=True)]
        event = make_event(infected="cam", affected="ecu")
        engine = Engine(catalog, make_selector("lp-max"))
        (before,), (after,), to_ecu = self._write(engine, [event], 1)
        assert [(c.response.index, c.target_asset) for c in before] == [
            (20, "cam"), (20, "ecu"), (31, "ecu"),
        ]
        assert after[0] is before[0] and after[1] is to_ecu and after[2] is before[2]
        (before,), (after,), to_cam = self._write(engine, [event], 0)
        assert after[0] is to_cam and after[1] is to_ecu and to_cam is not to_ecu
        assert _same_objects(after, _scan_swap(before, to_cam))

    def test_three_kept_sets(self):
        catalog = [
            make_response(20, place=Place.SOURCE),
            make_response(21, place=Place.BOTH),
            make_response(31, terminal=True),
        ]
        events = [
            make_event(infected="cam", affected="ecu"),
            make_event(infected="gw", affected="ecu"),
            make_event(infected="cam", affected="gw"),
        ]
        engine = Engine(catalog, make_selector("lp-max"))
        before, after, instance = self._write(engine, events, 0)  # (20, "cam")
        for old, new in zip(before, after):
            assert _same_objects(new, _scan_swap(old, instance))
        before, after, instance = self._write(engine, events, 2, event=2)  # (21, "gw")
        for old, new in zip(before, after):
            assert _same_objects(new, _scan_swap(old, instance))
        assert sum(c is instance for new in after for c in new) == 2

    def test_a_list_handed_to_a_selector_stays_unchanged(self):
        catalog = [make_response(20, place=Place.BOTH), make_response(31, terminal=True)]
        event = make_event(infected="cam", affected="ecu")
        engine = Engine(catalog, make_selector("lp-max"))
        handed = engine._candidates_for(event)
        snapshot = list(handed)
        engine._record(handed[1], adapt_on_failure(handed[1].response))
        assert _same_objects(handed, snapshot)
        assert engine._candidates_for(event) is not handed


def _finite(vector):
    """Every weight and the total of ``vector`` are finite and >= 0."""
    return all(0 <= value < math.inf for value in (*vector.weights(), vector.total))


class TestLongLivedEngine:
    """What thousands of verdicts do to one engine: the success factors
    compound, so a weight drifts towards 0, yet nothing overflows, goes
    negative or raises, and the engine keeps one adapted instance per
    (index, target)."""

    def test_100000_successes_keep_every_weight_finite(self, generic_catalog):
        spec = by_index(generic_catalog, 1)
        pristine = spec.benefit.total
        rng = random.Random(1)
        for _ in range(100_000):
            spec = adapt_on_success(spec, rng)
            assert _finite(spec.benefit)
        assert spec.benefit.total < 1e-200 * pristine

    def test_one_engine_takes_10000_verdicts_over_changing_keys(self, data, generic_catalog):
        from react_irs.files import load_architecture

        assets = sorted(load_architecture(data / "architecture.json"))
        catalog = generic_catalog.responses
        fresh = CatalogResponses(list(catalog))
        pairs = {
            (cand.response_index, cand.target_asset)
            for result in IntrusionResult for infected in assets for affected in assets
            for cand in generate_candidates(
                make_event(result=result, infected=infected, affected=affected), fresh)
        }
        assert len(pairs) == 264
        rng = random.Random(2)

        def event():
            return make_event(
                s=rng.choice((0, 1, 10, 100)), f=rng.choice((0, 1, 10, 100)),
                o=rng.choice((0, 1, 10, 100)), p=rng.choice((0, 1, 10, 100)),
                velocity=rng.choice((0.0, 30.0, 70.0, 120.0)), infected=rng.choice(assets),
                affected=rng.choice(assets), result=rng.choice(list(IntrusionResult)),
                facts={name: rng.random() < 0.5 for name in GENERIC_FACTS},
            )

        def feedback(iteration, applied):
            if iteration == 10_000:
                return Success()
            return Failure() if rng.random() < 0.5 else NewIntrusion(event())

        engine = Engine(catalog, make_selector("lp-max"), AdaptationConfig(rng_seed=2))
        trace = engine.run(event(), feedback, max_iterations=10_000)
        assert len(trace.records) == 10_000 and trace.records[-1].verdict == "success"
        assert all(0 <= w < math.inf for record in trace.records for w in record.adapted_weights)
        assert set(engine._adapted) <= pairs
        for (index, target), adapted in engine._adapted.items():
            assert (adapted.response_index, adapted.target_asset) == (index, target)
            assert _finite(adapted.response.benefit)
        for cand in engine._candidates:
            assert engine._adapted.get((cand.response_index, cand.target_asset), cand) is cand


class TestLoopTiming:
    def test_check_first_formula(self):
        assert estimate_loop_time(
            LoopOrder.CHECK_FIRST, t_check=2.0, t_select=5.0, t_execute=3.0, p=0.5, n=10
        ) == 10 * 2.0 + 5.0 + 3.0

    def test_select_first_formula(self):
        got = estimate_loop_time(
            LoopOrder.SELECT_FIRST, t_check=2.0, t_select=5.0, t_execute=3.0, p=0.5, n=10
        )
        assert got == 5.0 + 2.0 + 0.5 * 3.0 + 0.5 * 9 * (5.0 + 2.0)

    def test_certain_pass_makes_select_first_constant(self):
        got = estimate_loop_time(
            LoopOrder.SELECT_FIRST, t_check=2.0, t_select=5.0, t_execute=3.0, p=1.0, n=10**6
        )
        assert got == 5.0 + 2.0 + 3.0

    def test_orders_converge_at_even_odds_and_large_n(self):
        kwargs = dict(t_check=1e-6, t_select=1e-6, t_execute=1e-3, p=0.5, n=10**6)
        check_first = estimate_loop_time(LoopOrder.CHECK_FIRST, **kwargs)
        select_first = estimate_loop_time(LoopOrder.SELECT_FIRST, **kwargs)
        assert abs(check_first - select_first) / check_first < 0.01

    @pytest.mark.parametrize("bad", [
        {"p": -0.1}, {"p": 1.5}, {"n": 0}, {"order": "check-first"}, {"order": None},
        {"n": True}, {"n": 2.5}, {"n": "3"}, {"p": "x"}, {"p": True}, {"p": math.nan},
        {"t_check": math.nan}, {"t_select": -1.0}, {"t_execute": math.inf},
    ])
    def test_invalid_inputs_rejected(self, bad):
        kwargs = dict(order=LoopOrder.CHECK_FIRST, t_check=1.0, t_select=1.0, t_execute=1.0,
                      p=0.5, n=10)
        kwargs.update(bad)
        with pytest.raises(DomainError):
            estimate_loop_time(**kwargs)
