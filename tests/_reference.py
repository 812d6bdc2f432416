"""Standalone re-derivation of the static selection series, and the
formulas that only the tests read.

Deliberately avoids importing the package: it reads the catalog JSON with
the stdlib, merging an overlay onto its base by the loader's rules, and
re-implements ranking with plain dict/loop arithmetic, so the harness and
this module only agree if both encode the same rules.  The formulas at
the end take the package's candidates but read only their fields.
"""
from __future__ import annotations

import json
from pathlib import Path

EPSILON = 1e-6
W_BENEFIT, W_COST = 0.6, 0.4
RHO = 1.0


def _responses(catalog_path: Path) -> list[dict]:
    """The catalog's entries; an overlay's base entries less ``remove``,
    replaced or added to by index, in index order."""
    doc = json.loads(catalog_path.read_text(encoding="utf-8"))
    if "extends" not in doc:
        return doc["responses"]
    base = json.loads((catalog_path.parent / doc["extends"]).read_text(encoding="utf-8"))
    assert "extends" not in base, "an overlay's base must be a full catalog"
    merged = {resp["index"]: resp for resp in base["responses"]}
    for index in doc.get("remove", []):
        del merged[index]
    merged.update((resp["index"], resp) for resp in doc["responses"])
    return [merged[index] for index in sorted(merged)]


def _entries(catalog_path: Path, result: str) -> list[dict]:
    kept = []
    for resp in _responses(catalog_path):
        if not resp.get("general") and result not in resp.get("applies_to", ()):
            continue
        cost = resp["cost"]
        bene = resp["benefit"]
        kept.append(
            {
                "idx": resp["index"],
                "general": bool(resp.get("general")),
                "place": resp.get("place", "destination"),
                "terminal": bool(resp.get("terminal")),
                "cost": cost["w_a"] * cost["a"] + cost["w_perf"] * cost["perf"],
                "benefit": (
                    bene["w_s"] * bene["s"] + bene["w_f"] * bene["f"]
                    + bene["w_o"] * bene["o"] + bene["w_p"] * bene["p"]
                ),
            }
        )
    return kept


def _instances(entries: list[dict], infected: str, affected: str) -> list[dict]:
    out = []
    for e in sorted(entries, key=lambda e: (e["general"], e["idx"])):
        if e["place"] == "both" and infected != affected:
            out.append({**e, "target": infected})
            out.append({**e, "target": affected})
        elif e["place"] == "source":
            out.append({**e, "target": infected})
        else:
            out.append({**e, "target": affected})
    return out


def _eff_cost(c: dict, impact: float) -> float:
    return float(impact) if c["terminal"] else c["cost"]


def _pick(cands: list[dict], impact: float, algo: str) -> dict:
    if algo == "saw":
        bs = [c["benefit"] or EPSILON for c in cands]
        cs = [_eff_cost(c, impact) or EPSILON for c in cands]
        max_b, min_c = max(bs), min(cs)
        prefs = [W_BENEFIT * b / max_b + W_COST * min_c / c for b, c in zip(bs, cs)]
        elig = [i for i, p in enumerate(prefs) if p < RHO * 3.0]
        if not elig:
            elig = list(range(len(cands)))
        best = min(elig, key=lambda i: (-prefs[i], cands[i]["idx"], i))
        return cands[best]
    feasible = [
        (i, c) for i, c in enumerate(cands)
        if not c["terminal"] and c["cost"] < impact
    ]
    if not feasible:
        return next(c for c in cands if c["terminal"])
    if algo == "lp-max":
        key = lambda ic: (-ic[1]["benefit"], ic[1]["idx"], ic[0])
    else:
        key = lambda ic: (ic[1]["cost"], ic[1]["idx"], ic[0])
    return min(feasible, key=key)[1]


def static_series(
    catalog_path: Path,
    result: str,
    infected: str,
    affected: str,
    impact: float,
    algo: str,
) -> list[tuple[int, int, str, float, float]]:
    """(step, index, target, effective cost, benefit) until the terminal."""
    cands = _instances(_entries(catalog_path, result), infected, affected)
    steps = []
    while True:
        c = _pick(cands, impact, algo)
        steps.append(
            (len(steps) + 1, c["idx"], c["target"], _eff_cost(c, impact), c["benefit"])
        )
        cands.remove(c)
        if c["terminal"]:
            return steps


def legacy_impact(params) -> int:
    """Unweighted sum S + F + O + P (the static reference score)."""
    return params.s + params.f + params.o + params.p


def saw_preferences(candidates, cfg, impact: float) -> list[tuple[object, float]]:
    """Per-candidate SAW preference values: benefit normalizes as
    v/max(v), cost as min(v)/v, with zeros replaced by ``EPSILON`` before
    any division; the terminal entry's cost is the impact."""
    if not candidates:
        raise ValueError("cannot rank an empty candidate set")
    benefits, costs = [], []
    for c in candidates:
        b, cv = c.response.benefit, c.response.cost
        benefits.append(0 + b.w_s * b.s + b.w_f * b.f + b.w_o * b.o + b.w_p * b.p or EPSILON)
        cost = float(impact) if c.response.terminal else cv.w_a * cv.a + cv.w_perf * cv.perf
        costs.append(cost or EPSILON)
    max_b, min_c = max(benefits), min(costs)
    return [
        (c, cfg.w_benefit * b / max_b + cfg.w_cost * min_c / cost)
        for c, b, cost in zip(candidates, benefits, costs)
    ]


def saw_rescan(candidates, cfg, impact: float, bound: float) -> list[tuple]:
    """The SAW ranking by rescan: re-score the shrinking list and take the
    best preference below the bound (or the best overall, as a fallback)
    until nothing is left, as (chosen, score, feasible count, fallback)."""
    remaining, out = list(candidates), []
    while remaining:
        prefs = saw_preferences(remaining, cfg, impact)
        eligible = [i for i, (_, p) in enumerate(prefs) if p < bound]
        pool = eligible or range(len(prefs))
        best = min(pool, key=lambda i: (-prefs[i][1], prefs[i][0].response.index, i))
        out.append((prefs[best][0], prefs[best][1], len(eligible), not eligible))
        del remaining[best]
    return out
