"""How intrusion impact reacts to vehicle speed.

The environment term is a step function of velocity, so the same intrusion
is scored differently depending on how fast the vehicle is moving when the
detector fires.
"""
from react_irs.files import data_dir, load_scenario
from react_irs.risk import environment_from_velocity, event_impact

scenario = load_scenario(data_dir() / "scenario1.json")
params = scenario.impact_params

print(f"scenario: {scenario.name}")
print(f"impact parameters: S={params.s} F={params.f} O={params.o} P={params.p}")
print(f"speed-independent part of the score: {params.s + params.f + params.o + params.p}")
print()

print(f"{'velocity (km/h)':>16} {'env level':>10} {'impact':>8}")
for velocity in (0, 15, 30, 45, 50, 70, 74.9, 75, 100, 130):
    env = environment_from_velocity(velocity)
    impact = event_impact(scenario.event(velocity_kmh=velocity))
    print(f"{velocity:>16} {env:>10} {impact:>8.0f}")

print()
print("The env level only moves at 30, 50 and 75 km/h; between those")
print("thresholds the impact is flat.  A parked car scores the base sum,")
print("highway speed adds the full 100-point environment term.")
