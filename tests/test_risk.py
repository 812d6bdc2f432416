from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from react_irs.model import DomainError, EnvironmentTerm, ImpactVector, VehicleState
from react_irs.risk import environment_from_velocity, event_impact
from _reference import legacy_impact
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

    @pytest.mark.parametrize("velocity", [-0.1, float("nan"), float("inf"), float("-inf")])
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
        # at E = 100, and an event built in code meets the check here.
        event = replace(make_event(velocity=80), env=EnvironmentTerm(e=100, w_e=1.7e308))
        with pytest.raises(DomainError, match="event impact must be finite, got inf"):
            event_impact(event)

    def test_stationary_scenario(self):
        event = make_event(s=0, f=10, o=10, p=100, velocity=0)
        assert event_impact(event) == 120.0

    def test_invalid_level_rejected(self):
        with pytest.raises(DomainError):
            ImpactVector(s=5, f=0, o=0, p=0)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            ImpactVector(s=0, f=0, o=0, p=0, w_s=-1.0)
