"""Intrusion impact scoring.

The impact of an active intrusion is the weighted sum of its four
static levels plus a dynamic environment term derived from vehicle
velocity:

    I = w_S*S + w_F*F + w_O*O + w_P*P + w_E*E

The environment level is a step function of velocity: faster vehicle,
higher stakes.
"""
from __future__ import annotations

from .model import IntrusionEvent, check_total, check_weight


def environment_from_velocity(velocity_kmh: float) -> int:
    """Map velocity (km/h) onto the discrete environment level.

    Bands are half-open: [0, 30) -> 0, [30, 50) -> 1, [50, 75) -> 10,
    [75, inf) -> 100.  The velocity must pass ``model.check_weight``, as in
    ``VehicleState``: a negative number, ``-0.0``, an infinity, NaN, a bool,
    a non-number or an int too large for a float is a ``DomainError``.
    """
    velocity_kmh = check_weight(velocity_kmh, "velocity")
    if velocity_kmh >= 75:
        return 100
    if velocity_kmh >= 50:
        return 10
    if velocity_kmh >= 30:
        return 1
    return 0


def environment_term(event: IntrusionEvent) -> float:
    """w_E * E, with E derived from the event's own velocity; the stored
    ``event.env.e`` is not read."""
    return event.env.w_e * environment_from_velocity(event.vehicle.velocity_kmh)


def event_impact(event: IntrusionEvent) -> float:
    """Weighted impact of an event: its static levels plus the
    environment term, checked to be finite (``model.check_total``)."""
    return check_total(event.impact_params.total + environment_term(event), "event impact")
