"""Intrusion impact scoring.

The impact of an active intrusion is the weighted sum of its four
static levels plus a dynamic environment term derived from vehicle
velocity:

    I = w_S*S + w_F*F + w_O*O + w_P*P + w_E*E

The environment level is a step function of velocity: faster vehicle,
higher stakes.
"""
from __future__ import annotations

from math import inf

from .model import DomainError, IntrusionEvent, check_total


def environment_from_velocity(velocity_kmh: float) -> int:
    """Map velocity (km/h) onto the discrete environment level.

    Bands are half-open: [0, 30) -> 0, [30, 50) -> 1, [50, 75) -> 10,
    [75, inf) -> 100.  A negative, infinite or NaN velocity is rejected,
    and so are a bool, which passes the range test (``True == 1``), and a
    non-number, which fails it with a ``TypeError``.
    """
    try:
        if 0 <= velocity_kmh < inf and velocity_kmh.__class__ is not bool:
            if velocity_kmh >= 75:
                return 100
            if velocity_kmh >= 50:
                return 10
            if velocity_kmh >= 30:
                return 1
            return 0
    except TypeError:
        pass
    raise DomainError(f"velocity must be finite and >= 0, got {velocity_kmh!r}")


def environment_term(event: IntrusionEvent) -> float:
    """w_E * E, with E re-derived from the current velocity: the stored
    ``event.env.e`` is only an initial snapshot, and re-deriving it on
    every evaluation is what makes the score dynamic."""
    return event.env.w_e * environment_from_velocity(event.vehicle.velocity_kmh)


def event_impact(event: IntrusionEvent) -> float:
    """Weighted impact of an event: its static levels plus the
    environment term, checked to be finite (``model.check_total``)."""
    return check_total(event.impact_params.total + environment_term(event), "event impact")
