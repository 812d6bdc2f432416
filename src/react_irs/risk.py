"""Intrusion impact scoring.

The impact of an active intrusion is the weighted sum of its four
static levels plus a dynamic environment term derived from vehicle
velocity:

    I = w_S*S + w_F*F + w_O*O + w_P*P + w_E*E

The environment level is a step function of velocity: faster vehicle,
higher stakes.  Both the bands (``environment_from_velocity``) and the
sum live in ``model``: an ``IntrusionEvent`` computes and checks its
``impact`` once, when it is built.  This module reads them.
"""
from __future__ import annotations

from .model import IntrusionEvent, environment_from_velocity


def environment_term(event: IntrusionEvent) -> float:
    """w_E * E, with E derived from the event's own velocity; the stored
    ``event.env.e`` is not read."""
    return event.env.w_e * environment_from_velocity(event.vehicle.velocity_kmh)


def event_impact(event: IntrusionEvent) -> float:
    """Weighted impact of an event, as the event computed and checked it
    when it was built (``IntrusionEvent.impact``)."""
    return event.impact
