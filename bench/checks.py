"""Independent re-derivations the benchmark checks the program against.

Nothing here imports ``react_irs``.  Candidate sets, scores, rankings,
precondition results and adaptation rules are recomputed from the catalog
entries with plain arithmetic, so a result only passes when the package
and this module encode the same rules.  The rules follow the package's
documented behaviour:

* candidates: result-specific entries first, then general ones, each by
  ascending index; a ``both`` entry is instantiated on the infected and
  then on the affected asset when they differ, ``source`` on the infected
  asset, anything else on the affected asset;
* ``lp-max`` / ``lp-min``: best benefit / lowest cost among non-terminal
  candidates with cost < impact, terminal entry when none is;
* ``saw``: 0.6 * benefit / max benefit + 0.4 * min cost / cost (zeros
  replaced by 1e-6), highest preference below the number of non-zero
  impact terms, overall highest when none is below it;
* ties break by catalog index, then by position in the candidate set.
"""
from __future__ import annotations

import csv
import io
import json
import re

ALGORITHMS = ("lp-max", "lp-min", "saw")
MODES = ("static", "dynamic-fail", "dynamic-success", "velocity-sweep")
EPSILON = 1e-6
W_BENEFIT, W_COST = 0.6, 0.4
RHO = 1.0
FAILURE_DECAY = {100: 10, 10: 1, 1: 0, 0: 0}
R_MIN, R_MAX = 0.8, 1.2


def env_level(velocity_kmh: float) -> int:
    if velocity_kmh >= 75:
        return 100
    if velocity_kmh >= 50:
        return 10
    if velocity_kmh >= 30:
        return 1
    return 0


def impact_terms(levels, weights, w_e: float, velocity_kmh: float) -> list[float]:
    s, f, o, p = levels
    w_s, w_f, w_o, w_p = weights
    return [w_s * s, w_f * f, w_o * o, w_p * p, w_e * env_level(velocity_kmh)]


def impact(levels, weights, w_e: float, velocity_kmh: float) -> float:
    a, b, c, d, e = impact_terms(levels, weights, w_e, velocity_kmh)
    return a + b + c + d + e


def saw_bound(levels, weights, w_e: float, velocity_kmh: float) -> float:
    """rho * sum of single-event impact shares: each non-zero term is 1."""
    terms = impact_terms(levels, weights, w_e, velocity_kmh)
    return RHO * sum(1.0 if t != 0 else 0.0 for t in terms)


def benefit_value(levels, weights) -> float:
    s, f, o, p = levels
    w_s, w_f, w_o, w_p = weights
    return w_s * s + w_f * f + w_o * o + w_p * p


class Cand:
    """One (entry, target) instance with its static scores."""

    __slots__ = ("index", "target", "terminal", "cost", "benefit", "precondition", "levels", "weights")

    def __init__(self, index, target, terminal, cost, levels, weights, precondition):
        self.index = index
        self.target = target
        self.terminal = terminal
        self.cost = cost
        self.levels = tuple(levels)
        self.weights = tuple(weights)
        self.benefit = benefit_value(self.levels, self.weights)
        self.precondition = precondition

    def adapted(self, levels, weights) -> "Cand":
        return Cand(self.index, self.target, self.terminal, self.cost, levels, weights, self.precondition)


def entry_from_json(doc: dict) -> dict:
    """The fields of one catalog JSON entry the checks need."""
    cost, ben = doc["cost"], doc["benefit"]
    return {
        "index": doc["index"],
        "general": bool(doc.get("general", False)),
        "applies_to": frozenset(doc.get("applies_to", ())),
        "place": doc.get("place", "destination"),
        "terminal": bool(doc.get("terminal", doc["index"] == 31)),
        "precondition": doc.get("precondition", "true"),
        "cost": cost.get("w_a", 1.0) * cost["a"] + cost.get("w_perf", 1.0) * cost["perf"],
        "levels": (ben["s"], ben["f"], ben["o"], ben["p"]),
        "weights": (ben.get("w_s", 1.0), ben.get("w_f", 1.0), ben.get("w_o", 1.0), ben.get("w_p", 1.0)),
    }


def candidates(entries: list[dict], result: str, infected: str, affected: str) -> list[Cand]:
    chosen = [e for e in entries if not e["general"] and result in e["applies_to"]]
    chosen.sort(key=lambda e: e["index"])
    chosen += sorted((e for e in entries if e["general"]), key=lambda e: e["index"])
    if not any(e["terminal"] for e in chosen):
        chosen += [e for e in entries if e["terminal"]]
    out = []
    for e in chosen:
        if e["place"] == "both" and infected != affected:
            targets = (infected, affected)
        elif e["place"] == "source":
            targets = (infected,)
        else:
            targets = (affected,)
        for target in targets:
            out.append(Cand(e["index"], target, e["terminal"], e["cost"], e["levels"], e["weights"], e["precondition"]))
    return out


def effective_cost(c: Cand, impact_value: float) -> float:
    return float(impact_value) if c.terminal else c.cost


def pick(cands: list[Cand], algo: str, impact_value: float, bound: float) -> tuple[int, float]:
    """Position in ``cands`` of the strategy's choice, and its score."""
    if algo == "saw":
        bs = [c.benefit or EPSILON for c in cands]
        cs = [effective_cost(c, impact_value) or EPSILON for c in cands]
        max_b, min_c = max(bs), min(cs)
        prefs = [W_BENEFIT * b / max_b + W_COST * min_c / cost for b, cost in zip(bs, cs)]
        eligible = [i for i, p in enumerate(prefs) if p < bound] or range(len(cands))
        best = min(eligible, key=lambda i: (-prefs[i], cands[i].index, i))
        return best, prefs[best]
    feasible = [i for i, c in enumerate(cands) if not c.terminal and c.cost < impact_value]
    if not feasible:
        terminal = next(i for i, c in enumerate(cands) if c.terminal)
        return terminal, (0.0 if algo == "lp-max" else float(impact_value))
    if algo == "lp-max":
        best = min(feasible, key=lambda i: (-cands[i].benefit, cands[i].index, i))
        return best, cands[best].benefit
    best = min(feasible, key=lambda i: (cands[i].cost, cands[i].index, i))
    return best, cands[best].cost


def full_drain(cands: list[Cand], algo: str, impact_value: float, bound: float) -> list[tuple]:
    """(index, target, score, cost, benefit, passed) for a drain in which
    every non-terminal precondition rejects."""
    if algo in ("lp-max", "lp-min"):
        # Scores do not change while draining, so the drain is one sort.
        feasible = [(i, c) for i, c in enumerate(cands) if not c.terminal and c.cost < impact_value]
        if algo == "lp-max":
            feasible.sort(key=lambda ic: (-ic[1].benefit, ic[1].index, ic[0]))
        else:
            feasible.sort(key=lambda ic: (ic[1].cost, ic[1].index, ic[0]))
        out = [
            (c.index, c.target, c.benefit if algo == "lp-max" else c.cost, c.cost, c.benefit, False)
            for _, c in feasible
        ]
        terminal = next(c for c in cands if c.terminal)
        score = 0.0 if algo == "lp-max" else float(impact_value)
        out.append((terminal.index, terminal.target, score, float(impact_value), terminal.benefit, True))
        return out
    remaining = list(cands)
    out = []
    while remaining:
        pos, score = pick(remaining, algo, impact_value, bound)
        c = remaining.pop(pos)
        out.append((c.index, c.target, score, effective_cost(c, impact_value), c.benefit, c.terminal))
        if c.terminal:
            break
    return out


_TOKEN = re.compile(r"\s*([a-z_][a-z0-9_]*|&&|\|\||!|\(|\))")


def holds(source: str, facts: dict) -> bool:
    """Evaluate a precondition (! over && over ||; missing facts false)."""
    tokens = _TOKEN.findall(source)
    pos = 0

    def atom():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            value = disj()
            pos += 1
            return value
        if tok == "!":
            return not atom()
        if tok in ("true", "false"):
            return tok == "true"
        return bool(facts.get(tok, False))

    def conj():
        nonlocal pos
        value = atom()
        while pos < len(tokens) and tokens[pos] == "&&":
            pos += 1
            value = atom() and value
        return value

    def disj():
        nonlocal pos
        value = conj()
        while pos < len(tokens) and tokens[pos] == "||":
            pos += 1
            value = conj() or value
        return value

    return disj()


# ---------------------------------------------------------------- paper-series


def expected_rows(doc: dict) -> list[tuple]:
    return [
        (s["step"], s["response_index"], s["target_asset"], s["cost"], s["benefit"])
        for s in doc["steps"]
    ]


def jsonl_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def records_match(mode: str, algo: str, records: list[dict], expected) -> bool:
    """Compare emitted JSONL records with a frozen series.

    ``expected`` is a series document for the static and dynamic modes,
    and the scenario's list of {velocity_kmh, impact, response_index} for
    the velocity sweep.
    """
    if any(r["mode"] != mode or r["algorithm"] != algo or r["selection_time_ms"] != 0.0 for r in records):
        return False
    if mode == "velocity-sweep":
        return expected == [
            {"velocity_kmh": r["velocity_kmh"], "impact": r["impact"], "response_index": r["response_index"]}
            for r in records
        ]
    got = [(r["step"], r["response_index"], r["target_asset"], r["cost"], r["benefit"]) for r in records]
    return got == expected_rows(expected) and all(r["impact"] == expected["impact"] for r in records)


def csv_agrees(csv_text: str, records: list[dict]) -> bool:
    """The CSV emission carries the same rows as the JSONL one."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    return len(rows) == len(records) and all(
        (int(row["step"]), int(row["response_index"]), row["target_asset"], float(row["cost"]),
         float(row["benefit"]), float(row["impact"]), float(row["selection_time_ms"]))
        == (r["step"], r["response_index"], r["target_asset"], r["cost"], r["benefit"], r["impact"], 0.0)
        for row, r in zip(rows, records)
    )


# ---------------------------------------------------------------- event-stream


def decision_errors(seq, entries: list[dict], records, oracle=None) -> dict[int, str]:
    """Re-derive every decision of one engine run.

    ``seq`` is the generated sequence (see ``workloads.Sequence``) and
    ``records`` the engine's iteration records.  ``oracle(cands, algo,
    impact)`` returns the position an independent optimizer picks; it
    cross-checks every ``lp-*`` choice.  Returns {step: message} for each
    wrong decision.
    """
    if len(records) != len(seq.script):
        message = f"{len(records)} decisions for a {len(seq.script)}-step script"
        return {step: message for step in range(1, len(seq.script) + 1)}
    base = candidates(entries, seq.result, seq.infected, seq.affected)
    originals = {(c.index, c.target): c.levels for c in base}
    adapted: dict[tuple, tuple] = {}
    velocity = seq.velocity
    errors = {}
    for step, (rec, verdict) in enumerate(zip(records, seq.script), start=1):
        err = _decision_error(seq, base, originals, adapted, velocity, rec, verdict, oracle)
        if err:
            errors[step] = err
        if verdict[0] == "new_intrusion":
            velocity = verdict[1]
    return errors


def _decision_error(seq, base, originals, adapted, velocity, rec, verdict, oracle):
    imp = impact(seq.levels, seq.weights, 1.0, velocity)
    if rec.velocity_kmh != velocity or rec.impact != imp:
        return f"velocity/impact {rec.velocity_kmh}/{rec.impact} != {velocity}/{imp}"
    cands = [
        c.adapted(*adapted[(c.index, c.target)]) if (c.index, c.target) in adapted else c
        for c in base
    ]
    if rec.candidate_count != len(cands):
        return f"{rec.candidate_count} candidates, expected {len(cands)}"
    bound = saw_bound(seq.levels, seq.weights, 1.0, velocity)
    remaining = list(cands)
    for n, att in enumerate(rec.attempts, start=1):
        pos, score = pick(remaining, seq.algo, imp, bound)
        c = remaining[pos]
        if oracle is not None and seq.algo != "saw" and oracle(remaining, seq.algo, imp) != pos:
            return f"attempt {n}: brute-force oracle disagrees"
        got = (att.response_index, att.target_asset, att.score, att.cost, att.benefit)
        want = (c.index, c.target, score, effective_cost(c, imp), c.benefit)
        if got != want:
            return f"attempt {n}: chose {got}, expected {want}"
        passed = c.terminal or holds(c.precondition, seq.facts)
        if att.precondition_passed != passed or passed != (n == len(rec.attempts)):
            return f"attempt {n}: precondition result {att.precondition_passed}, expected {passed}"
        del remaining[pos]
    applied = rec.applied
    if applied != rec.attempts[-1]:
        return "applied response is not the last attempt"
    key = (applied.response_index, applied.target_asset)
    chosen = next(c for c in cands if (c.index, c.target) == key)
    levels, weights = tuple(rec.adapted_levels), tuple(rec.adapted_weights)
    if rec.verdict != verdict[0]:
        return f"verdict {rec.verdict}, expected {verdict[0]}"
    if verdict[0] == "failure":
        ok = levels == tuple(FAILURE_DECAY[v] for v in chosen.levels) and weights == chosen.weights
    else:
        ok = levels == originals[key] and all(
            R_MIN * w * (1 - 1e-12) <= nw <= R_MAX * w * (1 + 1e-12)
            for w, nw in zip(chosen.weights, weights)
        )
    if not ok:
        return f"adaptation after {verdict[0]} gave {levels} {weights}"
    adapted[key] = (levels, weights)
    return None
