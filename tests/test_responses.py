import json

import pytest

from react_irs.model import (
    CandidateInstance,
    CostVector,
    ImpactVector,
    IntrusionResult,
    Place,
)
from react_irs.responses import (
    CatalogError,
    CatalogResponses,
    effective_cost,
    generate_candidates,
    response_benefit,
)
from _support import make_event, make_response


class TestScoring:
    def test_cost_is_weighted_sum(self):
        assert CostVector(a=10, perf=10).total == 20.0
        assert CostVector(a=100, perf=1, w_a=1.0, w_perf=1.0).total == 101.0
        assert CostVector(a=100, perf=10, w_a=0.5, w_perf=2.0).total == 70.0

    def test_benefit_is_weighted_sum(self):
        vec = ImpactVector(s=100, f=100, o=10, p=10)
        assert response_benefit(vec) == 220.0
        halved = ImpactVector(s=100, f=100, o=10, p=10, w_s=0.5, w_f=0.5, w_o=0.5, w_p=0.5)
        assert response_benefit(halved) == 110.0

    def test_terminal_cost_pegged_to_impact(self):
        terminal = CandidateInstance(make_response(31, terminal=True), "ecu")
        assert effective_cost(terminal, 210.0) == 210.0
        assert effective_cost(terminal, 120.0) == 120.0

    def test_regular_cost_ignores_impact(self):
        cand = CandidateInstance(make_response(5, a=10, perf=10), "ecu")
        assert effective_cost(cand, 210.0) == 20.0


def _explicit_cost(c: CostVector) -> float:
    return c.w_a * c.a + c.w_perf * c.perf


def _explicit_benefit(b: ImpactVector) -> float:
    return b.w_s * b.s + b.w_f * b.f + b.w_o * b.o + b.w_p * b.p


class TestCachedTotals:
    """The totals are computed once, when each immutable vector is built;
    reading one must not change what the vector is, and a new vector must
    never reuse a stale total."""

    def test_reading_total_keeps_equality_hash_and_repr(self):
        a = ImpactVector(s=100, f=10, o=1, p=0, w_s=0.5)
        b = ImpactVector(s=100, f=10, o=1, p=0, w_s=0.5)
        text = repr(a)
        assert response_benefit(a) == 61.0
        assert a == b and hash(a) == hash(b)
        assert repr(a) == text

    def test_shipped_catalogs_match_explicit_sums(self, data):
        from react_irs.files import load_catalog

        for path in sorted(data.glob("catalog_*.json")):
            for spec in load_catalog(path).responses:
                where = (path.name, spec.index)
                assert spec.cost.total == _explicit_cost(spec.cost), where
                assert response_benefit(spec.benefit) == _explicit_benefit(spec.benefit), where

    def test_adapted_benefit_is_not_stale(self):
        import random

        from react_irs.engine import adapt_on_failure, adapt_on_success

        spec = make_response(17, s=100, f=10, o=10, p=1, weights=(0.5, 1.5, 1.0, 2.0))
        assert response_benefit(spec.benefit) == _explicit_benefit(spec.benefit)
        failed = adapt_on_failure(spec)
        assert response_benefit(failed.benefit) == _explicit_benefit(failed.benefit) == 7.5
        restored = adapt_on_success(failed, random.Random(3))
        assert restored.benefit.levels() == (100, 10, 10, 1)
        assert response_benefit(restored.benefit) == _explicit_benefit(restored.benefit)
        assert response_benefit(restored.benefit) != response_benefit(spec.benefit)


class TestGeneration:
    def test_asset_local_entries_duplicated(self):
        catalog = [
            make_response(20, place=Place.BOTH),
            make_response(31, terminal=True),
        ]
        event = make_event(infected="cam", affected="ecu")
        cands = generate_candidates(event, catalog)
        assert [(c.response.index, c.target_asset) for c in cands] == [
            (20, "cam"),
            (20, "ecu"),
            (31, "ecu"),
        ]

    def test_both_is_honoured_at_any_index(self):
        catalog = [
            make_response(12, place=Place.BOTH),
            make_response(31, terminal=True),
        ]
        cands = generate_candidates(make_event(infected="cam", affected="ecu"), catalog)
        assert [(c.response.index, c.target_asset) for c in cands] == [
            (12, "cam"),
            (12, "ecu"),
            (31, "ecu"),
        ]

    def test_no_duplication_when_assets_coincide(self):
        catalog = [
            make_response(20, place=Place.BOTH),
            make_response(31, terminal=True),
        ]
        event = make_event(infected="gw", affected="gw")
        cands = generate_candidates(event, catalog)
        assert [(c.response.index, c.target_asset) for c in cands] == [
            (20, "gw"),
            (31, "gw"),
        ]

    def test_source_place_targets_infected_asset(self):
        catalog = [
            make_response(27, place=Place.SOURCE),
            make_response(31, terminal=True),
        ]
        cands = generate_candidates(make_event(infected="cam", affected="ecu"), catalog)
        assert (cands[0].response.index, cands[0].target_asset) == (27, "cam")

    def test_specific_entries_precede_general(self):
        event = make_event()
        catalog = [
            make_response(31, terminal=True),
            make_response(22, is_general=True),
            make_response(3, is_general=False, applicable=frozenset({event.result})),
            make_response(1, is_general=True),
        ]
        cands = generate_candidates(event, catalog)
        assert [c.response.index for c in cands] == [3, 1, 22, 31]

    def test_inapplicable_specific_entries_dropped(self):
        from react_irs.model import IntrusionResult

        catalog = [
            make_response(
                2,
                is_general=False,
                applicable=frozenset({IntrusionResult.FALSIFY_ALTER_TIMING}),
            ),
            make_response(31, terminal=True),
        ]
        cands = generate_candidates(make_event(), catalog)  # behavior-class event
        assert [c.response.index for c in cands] == [31]

    def test_missing_terminal_rejected(self):
        with pytest.raises(CatalogError):
            generate_candidates(make_event(), [make_response(5)])

    def test_known_asset_local_indices(self, data):
        from react_irs.files import load_catalog

        # The asset-local responses (restarts, re-initialization, isolation,
        # process kill) are the only entries the shipped catalogs place on
        # both ends of the intrusion path.
        for path in sorted(data.glob("catalog_*.json")):
            both = {s.index for s in load_catalog(path).responses if s.place is Place.BOTH}
            assert both <= {4, 7, 19, 20, 26}, path.name


class TestShippedCatalogs:
    def test_behavior_intrusion_yields_28_instances(self, data):
        from react_irs.files import load_catalog

        catalog = load_catalog(data / "catalog_scenario1.json")
        cands = generate_candidates(make_event(infected="cam", affected="ecu"), catalog.responses)
        assert len(catalog.responses) == 24
        assert len(cands) == 28  # 7, 19, 20, 26 appear once per involved asset
        doubled = [i for i in (7, 19, 20, 26)]
        for idx in doubled:
            targets = [c.target_asset for c in cands if c.response.index == idx]
            assert targets == ["cam", "ecu"]

    def test_disclosure_intrusion_yields_22_instances(self, data, scenario2):
        from react_irs.files import load_catalog

        catalog = load_catalog(data / "catalog_scenario2.json")
        cands = generate_candidates(scenario2.event(), catalog.responses)
        assert len(cands) == len(catalog.responses) == 22

    def test_generic_catalog_filters_by_result(self, generic_catalog):
        from react_irs.model import IntrusionResult

        event = make_event(
            infected="telematics_unit",
            affected="central_gateway",
            result=IntrusionResult.SYSTEM_UNAVAILABILITY,
        )
        cands = generate_candidates(event, generic_catalog.responses)
        indices = [c.response.index for c in cands]
        # specific entries applicable to unavailability, then the general tail
        assert [i for i in indices if i < 20] == [1, 4, 4, 6, 7, 7, 10, 12, 13, 14, 16, 17]
        assert indices[-1] == 33
        assert 31 in indices
        assert len(cands) == 28
        # source-scoped entries act on the infected asset
        for idx in (21, 27):
            (inst,) = [c for c in cands if c.response.index == idx]
            assert inst.target_asset == "telematics_unit"


def _reference_candidates(event, catalog):
    """Candidate generation written out in full: filter, sort by index,
    instantiate."""
    if not any(spec.terminal for spec in catalog):
        raise CatalogError("catalog is missing the terminal 'No Action' entry")
    specific = [s for s in catalog if not s.is_general and event.result in s.applicable_results]
    general = [s for s in catalog if s.is_general]
    ordered = sorted(specific, key=lambda s: s.index) + sorted(general, key=lambda s: s.index)
    if not any(spec.terminal for spec in ordered):
        ordered.append(next(spec for spec in catalog if spec.terminal))
    candidates = []
    for spec in ordered:
        if event.infected_asset == event.affected_asset or spec.place is Place.DESTINATION:
            targets = [event.affected_asset]
        elif spec.place is Place.SOURCE:
            targets = [event.infected_asset]
        else:
            targets = [event.infected_asset, event.affected_asset]
        candidates.extend(CandidateInstance(spec, target) for target in targets)
    return candidates


class TestGenerationMatchesReference:
    """Every shipped catalog, in file order and reversed, against every
    intrusion result and every (infected, affected) pair of the shipped
    architecture's assets, equal pairs included."""

    @pytest.fixture(scope="class")
    def assets(self, data):
        doc = json.loads((data / "architecture.json").read_text(encoding="utf-8"))
        return [asset["id"] for asset in doc["assets"]]

    def _check(self, catalog, assets, where):
        for result in IntrusionResult:
            for infected in assets:
                for affected in assets:
                    event = make_event(infected=infected, affected=affected, result=result)
                    got = generate_candidates(event, catalog)
                    want = _reference_candidates(event, catalog)
                    case = (*where, result.value, infected, affected)
                    assert got == want, case
                    assert all(g.response is w.response for g, w in zip(got, want)), case

    def test_shipped_catalogs(self, data, assets):
        from react_irs.files import load_catalog

        for path in sorted(data.glob("catalog_*.json")):
            responses = list(load_catalog(path).responses)
            self._check(responses, assets, (path.name, "file order"))
            self._check(responses[::-1], assets, (path.name, "reversed"))

    def test_result_specific_terminal_is_appended_where_it_does_not_apply(self, assets):
        import dataclasses

        timing = frozenset({IntrusionResult.FALSIFY_ALTER_TIMING})
        catalog = [
            make_response(31, terminal=True, is_general=False, applicable=timing),
            make_response(4, place=Place.BOTH, is_general=False, applicable=timing),
            make_response(27, place=Place.SOURCE),
            make_response(2),
        ]
        self._check(catalog, assets, ("specific terminal", "file order"))
        self._check(catalog[::-1], assets, ("specific terminal", "reversed"))
        unavailability = frozenset({IntrusionResult.SYSTEM_UNAVAILABILITY})
        second = dataclasses.replace(catalog[0], index=33, applicable_results=unavailability)
        for two_terminals in ([*catalog, second], [second, *catalog]):
            with pytest.raises(CatalogError, match="exactly one terminal entry, found 2"):
                self._check(two_terminals, assets, ("two terminals",))


class TestCatalogMemo:
    """A parsed catalog generates each (result, infected, affected) set
    once; every call still returns a new list of the same instances."""

    @pytest.fixture
    def catalog(self, data):
        """The generic catalog's entries, freshly parsed: an empty memo."""
        from react_irs.files import parse_catalog

        doc = json.loads((data / "catalog_generic.json").read_text(encoding="utf-8"))
        return parse_catalog(doc).responses

    @pytest.fixture
    def events(self, data):
        """One event per key of the shipped architecture: 5 x 8 x 8."""
        doc = json.loads((data / "architecture.json").read_text(encoding="utf-8"))
        assets = [asset["id"] for asset in doc["assets"]]
        return [
            make_event(infected=infected, affected=affected, result=result)
            for result in IntrusionResult for infected in assets for affected in assets
        ]

    def test_a_parsed_catalog_starts_with_an_empty_memo(self, catalog, generic_catalog):
        assert isinstance(catalog, CatalogResponses) and isinstance(catalog, tuple)
        assert not catalog.sets and not catalog.instances
        assert catalog == generic_catalog.responses

    def test_mutating_a_returned_set_leaves_the_next_unchanged(self, catalog):
        event = make_event(infected="cam", affected="ecu")
        first = generate_candidates(event, catalog)
        kept = list(first)
        first.reverse()
        first[0] = CandidateInstance(make_response(99), "cam")
        first.append(first[1])
        second = generate_candidates(event, catalog)
        assert second is not first
        assert len(second) == len(kept) and all(a is b for a, b in zip(second, kept))
        assert second == _reference_candidates(event, catalog)

    def test_every_key_matches_generation_from_scratch(self, catalog, events):
        for event in events:
            got = generate_candidates(event, catalog)
            want = _reference_candidates(event, list(catalog))
            assert got == want and all(g.response is w.response for g, w in zip(got, want))
            again = generate_candidates(event, catalog)
            assert again is not got and all(a is b for a, b in zip(again, got))

    def test_the_memo_holds_at_most_one_set_per_key(self, catalog, events):
        infected, affected = events[9].infected_asset, events[9].affected_asset
        first = make_event(infected=infected, affected=affected, s=0, velocity=0.0)
        other = make_event(infected=infected, affected=affected, s=100, velocity=120.0,
                           facts={"driving": True})
        assert generate_candidates(first, catalog) == generate_candidates(other, catalog)
        assert len(catalog.sets) == 1
        for event in events + events:
            generate_candidates(event, catalog)
        assert len(catalog.sets) == len(events) == 320

    def test_its_instances_are_shared_across_keys(self, catalog, events):
        for event in events:
            generate_candidates(event, catalog)
        positions = [cand for kept in catalog.sets.values() for cand in kept]
        assert all(
            cand is catalog.instances[cand.response.index, cand.target_asset] for cand in positions
        )
        assert len({id(cand) for cand in positions}) == len(catalog.instances) < len(positions) // 10

    def test_the_memo_of_every_generic_key_stays_small(self, catalog, events):
        import gc
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for event in events:
                generate_candidates(event, catalog)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(catalog.sets) == 320
        assert retained <= 256 * 1024, f"memo retains {retained / 1024:.0f} KiB"

    def test_a_plain_list_mutated_between_calls_is_regenerated(self):
        catalog = [make_response(2, s=10), make_response(31, terminal=True)]
        event = make_event()
        assert [c.response.index for c in generate_candidates(event, catalog)] == [2, 31]
        catalog.insert(0, make_response(1, s=100))
        catalog[1] = replaced = make_response(2, s=100)
        got = generate_candidates(event, catalog)
        assert [c.response.index for c in got] == [1, 2, 31]
        assert got[1].response is replaced

    def test_a_same_size_rewrite_yields_sets_from_the_new_content(self, tmp_path):
        import os

        from react_irs.files import load_catalog

        path = tmp_path / "catalog.json"
        doc = {
            "schema_version": 1, "kind": "catalog", "name": "tiny",
            "responses": [
                {"index": 5, "action": "change settings", "general": True,
                 "cost": {"a": 10, "perf": 10, "w_a": 1.0}, "benefit": {"s": 10, "f": 0, "o": 0, "p": 0}},
                {"index": 31, "action": "no action", "general": True, "terminal": True,
                 "cost": {"a": 0, "perf": 0}, "benefit": {"s": 0, "f": 0, "o": 0, "p": 0}},
            ],
        }
        path.write_text(json.dumps(doc))
        event = make_event()
        old = load_catalog(path).responses
        assert generate_candidates(event, old)[0].response.cost.w_a == 1.0
        before = path.stat()
        doc["responses"][0]["cost"]["w_a"] = 1.5
        path.write_text(json.dumps(doc))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size
        new = load_catalog(path).responses
        assert new is not old and not new.sets
        assert generate_candidates(event, new)[0].response.cost.w_a == 1.5
        assert generate_candidates(event, old)[0].response.cost.w_a == 1.0
