"""Compare the three selection strategies on the same intrusion.

Runs each strategy in static-quality mode: every precondition is forced to
fail, so the recorded attempt sequence is the strategy's full ranking of
the catalog, ending at the terminal "No action" entry.
"""
from react_irs.files import data_dir, load_scenario
from react_irs.harness import run_static_quality

scenario = load_scenario(data_dir() / "scenario2.json")
print(f"scenario: {scenario.name}")
print()

reports = {algo: run_static_quality(scenario, algo) for algo in ("lp-max", "lp-min", "saw")}

for algo, report in reports.items():
    picks = " ".join(str(r.response_index) for r in report.selections)
    print(f"{algo:>7} ({len(report.selections)} steps): {picks}")
print()

# the optimizers never rank anything whose cost reaches the impact; the
# additive-weighting strategy has no such guard
impact = reports["saw"].selections[0].impact
offenders = [
    r for r in reports["saw"].selections
    if r.cost > impact and r.response_index != 31
]
print(f"impact here is {impact:.0f}")
for r in offenders:
    print(
        f"  saw ranks index {r.response_index} (cost {r.cost:.0f}) although the "
        f"cure is worse than the disease"
    )
for algo in ("lp-max", "lp-min"):
    worst = max(r.cost for r in reports[algo].selections[:-1])
    print(f"  {algo} keeps every pick below it (max cost {worst:.0f})")
