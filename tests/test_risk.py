import copy
import json
import pickle
import struct
import sys
from dataclasses import replace
from functools import reduce
from operator import add

import pytest
from hypothesis import given, strategies as st

from react_irs.files import parse_scenario
from react_irs.model import DomainError, EnvironmentTerm, ImpactVector, VehicleState
from react_irs.risk import environment_from_velocity, event_impact
from _reference import _impact_terms, legacy_impact
from _support import make_event


class TestVelocityBands:
    @pytest.mark.parametrize(
        "velocity,level",
        [
            (0, 0),
            (29.999, 0),
            (30, 1),
            (49.999, 1),
            (50, 10),
            (70, 10),
            (74.999, 10),
            (75, 100),
            (120, 100),
            (250, 100),
        ],
    )
    def test_band_boundaries(self, velocity, level):
        assert environment_from_velocity(velocity) == level

    @pytest.mark.parametrize(
        "velocity", [-0.1, float("nan"), float("inf"), float("-inf"), True, "fast", None])
    def test_negative_velocity_rejected(self, velocity):
        with pytest.raises(DomainError):
            environment_from_velocity(velocity)

    @pytest.mark.parametrize("velocity", [float("nan"), float("inf"), -5.0, -0.0, True, "fast"])
    def test_vehicle_state_rejects_bad_velocity(self, velocity):
        with pytest.raises(DomainError):
            VehicleState(velocity_kmh=velocity)

    @given(st.floats(min_value=0, max_value=400, allow_nan=False))
    def test_level_is_monotone_in_velocity(self, v):
        assert environment_from_velocity(v) <= environment_from_velocity(v + 5)


class TestImpact:
    def test_unweighted_sum(self):
        event = make_event(s=100, f=0, o=100, p=0, velocity=50)  # E = 10
        assert legacy_impact(event.impact_params) == 200
        assert event_impact(event) == 210.0

    def test_environment_extends_legacy_score(self):
        event = make_event(s=0, f=10, o=10, p=100, velocity=0)  # E = 0
        assert event_impact(event) == legacy_impact(event.impact_params)

    def test_weights_scale_terms(self):
        params = ImpactVector(s=100, f=10, o=1, p=0, w_s=0.5, w_f=2.0, w_o=1.0, w_p=3.0)
        event = replace(make_event(velocity=100, w_e=0.1), impact_params=params)  # E = 100
        assert event_impact(event) == pytest.approx(
            0.5 * 100 + 2.0 * 10 + 1.0 * 1 + 3.0 * 0 + 0.1 * 100
        )

    @pytest.mark.parametrize(
        "velocity,expected",
        [(0, 200.0), (50, 210.0), (70, 210.0), (100, 300.0)],
    )
    def test_event_impact_tracks_velocity(self, velocity, expected):
        event = make_event(s=100, f=0, o=100, p=0, velocity=velocity)
        assert event_impact(event) == expected

    def test_event_impact_recomputes_environment(self):
        # the stored env term is stale on purpose; velocity wins
        event = make_event(velocity=0)
        assert event.env.e == 0
        assert event_impact(event) == 200.0

    def test_an_overflowing_impact_is_rejected(self):
        # A finite weight whose term overflows: the loader bounds the impact
        # at E = 100, and an event built in code meets the check when built.
        with pytest.raises(DomainError, match="event impact must be finite, got inf"):
            replace(make_event(velocity=80), env=EnvironmentTerm(e=100, w_e=1.7e308))

    def test_stationary_scenario(self):
        event = make_event(s=0, f=10, o=10, p=100, velocity=0)
        assert event_impact(event) == 120.0

    def test_invalid_level_rejected(self):
        with pytest.raises(DomainError):
            ImpactVector(s=5, f=0, o=0, p=0)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            ImpactVector(s=0, f=0, o=0, p=0, w_s=-1.0)


levels = st.sampled_from((0, 1, 10, 100))
# Bounded so that the loader's check at E = 100 passes: five terms of at
# most 100 * 1e300 stay far below the largest float.
float_weights = st.floats(min_value=0.0, max_value=1e300, allow_nan=False)
weights = st.one_of(st.integers(min_value=0, max_value=10**6), float_weights)
velocities = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


def _same(a, b) -> bool:
    """Equal in type and, for floats, bit for bit."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


class TestEventImpactField:
    """An event computes its impact once, when it is built, as the
    stdlib-only reference sums the scenario's terms."""

    # The environment weight is drawn as a float: the loader keeps the float
    # that ``check_weight`` returns, where the reference reads the JSON value.
    @given(st.tuples(levels, levels, levels, levels), st.tuples(weights, weights, weights, weights),
           float_weights, velocities, velocities)
    def test_impact_is_the_reference_sum(self, data, lv, ws, w_e, velocity, other):
        doc = json.loads((data / "scenario1.json").read_text(encoding="utf-8"))
        doc["impact_params"] = {
            **dict(zip("sfop", lv)), **{f"w_{m}": w for m, w in zip("sfop", ws)}
        }
        doc["environment_weight"] = w_e
        doc["velocity_kmh"] = velocity
        scenario = parse_scenario(doc)
        for v, event in ((velocity, scenario.event()), (other, scenario.event(other))):
            terms = _impact_terms({**doc, "velocity_kmh": v})
            # ``sum`` is this left fold on Python 3.10 and 3.11; from 3.12 on
            # it sums floats with compensation, which can round differently.
            assert _same(event.impact, reduce(add, terms, 0))
            if sys.version_info < (3, 12):
                assert _same(event.impact, sum(terms))
            assert _same(event_impact(event), event.impact)
            for kept in (replace(event), copy.copy(event), copy.deepcopy(event),
                         pickle.loads(pickle.dumps(event))):
                assert _same(kept.impact, event.impact)

    def test_impact_is_left_out_of_eq_and_repr(self):
        a, b = make_event(), make_event()
        object.__setattr__(b, "impact", -1.0)
        assert a == b
        assert repr(a) == repr(b) and "impact=" not in repr(a)

    def test_replace_derives_the_impact_again(self):
        event = make_event(s=100, f=0, o=100, p=0, velocity=0)
        assert event.impact == 200.0
        assert replace(event, vehicle=VehicleState(100)).impact == 300.0
        assert replace(event, env=EnvironmentTerm(0, 2.0)).impact == 200.0
        faster = replace(event, vehicle=VehicleState(100), env=EnvironmentTerm(0, 2.0))
        assert faster.impact == 400.0
