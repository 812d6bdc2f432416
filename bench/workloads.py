"""The three workloads: seeded inputs, set-up, timed ops and their checks.

Every workload drives the package only through its public functions,
from one thread, as a closed loop with a single caller: the next op
starts when the previous one has returned.  Inputs come from the seed
alone.  Ops run in batches (a shuffled pass over the paper series, one
drain per strategy, one intrusion sequence) so a run always ends on a
whole batch.

``run_batch`` times each op by itself; building inputs and checking
outputs happen between ops and are not part of any op's time.
"""
from __future__ import annotations

import dataclasses
import io
import json
import random
import re
import sys
import time
import traceback
from pathlib import Path

import checks
from checks import ALGORITHMS, MODES
import react_irs.engine as engine
import react_irs.files as files
import react_irs.harness as harness
import react_irs.responses as responses
import react_irs.selection as selection
from react_irs.model import (
    CandidateInstance,
    EnvironmentTerm,
    ImpactVector,
    IntrusionEvent,
    IntrusionResult,
    VehicleState,
)

LEVELS = (0, 1, 10, 100)
#: Indices the shipped catalogs place on "both" (one instance per asset).
ASSET_LOCAL = (4, 7, 19, 20, 26)
DATA = files.data_dir()


def _read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _reject(candidate) -> bool:
    return False


def expected_series(scenario: str, mode: str, algo: str):
    """The frozen series for a run: a series document, or for the velocity
    sweep the scenario's list of {velocity_kmh, impact, response_index}."""
    if mode == "velocity-sweep":
        return _read(DATA / "expected" / "velocity_sweep.json")[scenario][algo]
    return _read(DATA / "expected" / f"{mode}_{scenario}_{algo}.json")


class Workload:
    name = ""
    #: Batches the traced run and the tracemalloc pass each execute.
    trace_batches = 1
    memory_batches = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._ops = 0
        self._reported = False

    def params(self) -> dict:
        """Workload parameters recorded with every result."""
        return {}

    def setup(self) -> None:
        """Load files and build selectors: the part ``setup_s`` times."""

    def prepare(self) -> None:
        """Reference results, computed outside set-up and the timed ops."""

    def batches(self):
        raise NotImplementedError

    def run_batch(self, batch, record, check: bool = True, tracer=None) -> None:
        """Run one batch and report each op to ``record`` (a ``run.Recorder``)."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove files the workload wrote."""

    def _report(self, message: str | None = None) -> None:
        """Print the first failure of the run to stderr: the exception being
        handled, or ``message``."""
        if not self._reported:
            self._reported = True
            print(f"{self.name}: first failed op:", file=sys.stderr)
            if message:
                print(message, file=sys.stderr)
            else:
                traceback.print_exc(file=sys.stderr)

    def _op_label(self, label: str, tracer) -> None:
        self._ops += 1
        if tracer is not None:
            tracer.op = f"{self._ops} {label}"


class PaperSeries(Workload):
    """The shipped scenarios in every mode and strategy, emitted as CSV and
    JSONL and compared with the frozen series.  The seed only shuffles the
    order of the 24 runs in each pass."""

    name = "paper-series"
    trace_batches = 10
    memory_batches = 1
    SCENARIOS = ("scenario1", "scenario2")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.combos = [(s, m, a) for s in self.SCENARIOS for m in MODES for a in ALGORITHMS]
        self.expected = {combo: expected_series(*combo) for combo in self.combos}
        sweep = self.expected[("scenario1", "velocity-sweep", "lp-max")]
        self.velocities = tuple(float(row["velocity_kmh"]) for row in sweep)
        self.verified: dict[tuple, bool] = {}
        self.list_generation_ms: list[float] = []
        self.peak_rss_bytes: list[int] = []

    def params(self):
        return {"runs_per_batch": len(self.combos), "velocities": self.velocities,
                "emission": ["csv", "jsonl"], "include_timings": False}

    def setup(self):
        self.scenarios = {s: files.load_scenario(DATA / f"{s}.json") for s in self.SCENARIOS}
        paths = {self.scenarios[s].catalog_path(m, a) for s, m, a in self.combos}
        for path in sorted(paths):
            files.load_catalog(path)

    def batches(self):
        rng = random.Random(f"paper-series:{self.seed}")
        while True:
            order = list(self.combos)
            rng.shuffle(order)
            yield order

    def _run(self, combo):
        scenario_name, mode, algo = combo
        scenario = self.scenarios[scenario_name]
        if mode == "static":
            return harness.run_static_quality(scenario, algo)
        if mode == "velocity-sweep":
            return harness.run_velocity_sweep(scenario, algo, self.velocities)
        doc = self.expected[combo]
        verdict = "failure" if mode == "dynamic-fail" else "success"
        return harness.run_dynamic(scenario, algo, verdict, iterations=doc["iterations"], seed=doc.get("seed", 7))

    def _emit(self, result, tracer) -> tuple[str, str]:
        emit = harness.emit_series
        if tracer is not None:
            rows = sum(len(r.selections) for r in (result if isinstance(result, list) else [result]))
            emit = tracer.span("harness.emit_series", emit, lambda args, _: {"rows": rows})
        out = []
        for fmt in ("csv", "jsonl"):
            buf = io.StringIO()
            emit(result, fmt, buf, include_timings=False)
            out.append(buf.getvalue())
        return out[0], out[1]

    def run_batch(self, batch, record, check=True, tracer=None):
        clock = time.perf_counter
        for combo in batch:
            self._op_label("/".join(combo), tracer)
            mode = combo[1]
            t0 = clock()
            try:
                if tracer is None:
                    result = self._run(combo)
                else:
                    result = tracer.span(f"harness.run.{mode}", self._run)(combo)
                csv_text, jsonl_text = self._emit(result, tracer)
            except Exception:
                record(combo[2], clock() - t0, False)
                self._report()
                continue
            elapsed = clock() - t0
            for report in result if isinstance(result, list) else [result]:
                if report.list_generation_time_s is not None:
                    self.list_generation_ms.append(report.list_generation_time_s * 1e3)
                if report.peak_memory_bytes is not None:
                    self.peak_rss_bytes.append(report.peak_memory_bytes)
            ok = self._verify(combo, csv_text, jsonl_text) if check else True
            if not ok:
                self._report(f"{'/'.join(combo)}: output differs from the frozen series")
            record(combo[2], elapsed, ok)

    def _verify(self, combo, csv_text, jsonl_text) -> bool:
        key = (combo, csv_text, jsonl_text)
        if key not in self.verified:
            try:
                records = checks.jsonl_records(jsonl_text)
                self.verified[key] = checks.csv_agrees(csv_text, records) and checks.records_match(
                    combo[1], combo[2], records, self.expected[combo])
            except (KeyError, TypeError, ValueError):
                self.verified[key] = False
        return self.verified[key]


def drain_catalog(seed: int) -> dict:
    """1,024 general entries plus the terminal entry (index 31).

    Cost weights in [0.5, 1.5] keep most entries under the scenario1
    impact of 210; only A = Perf = 100 with heavy weights exceeds it.
    ``both`` is used only on the asset-local indices, as in the shipped
    catalogs, so those entries yield one instance per asset.
    """
    rng = random.Random(f"drain-1k:{seed}")
    facts = ("driver_notified", "vehicle_stationary", "redundant_source_available", "update_available", "driving")
    preconditions = ["true"] + list(facts) + [f"{a} || {b}" for a, b in zip(facts, facts[1:])] + [
        f"{a} && !{b}" for a, b in zip(facts, facts[2:])] + ["(driver_notified || vehicle_stationary) && !driving"]

    def weight():
        return round(rng.uniform(0.5, 1.5), 2)

    responses_doc = []
    for index in range(1, 1026):
        if index == 31:
            responses_doc.append({
                "index": 31, "action": "No action", "general": True, "terminal": True,
                "cost": {"a": 0, "perf": 0}, "benefit": {"s": 0, "f": 0, "o": 0, "p": 0},
            })
            continue
        place = rng.choice(("destination", "source", "both") if index in ASSET_LOCAL
                           else ("destination", "destination", "source"))
        responses_doc.append({
            "index": index,
            "action": f"Synthetic response {index}",
            "general": True,
            "precondition": rng.choice(preconditions),
            "place": place,
            "cost": {"a": rng.choice(LEVELS), "perf": rng.choice(LEVELS), "w_a": weight(), "w_perf": weight()},
            "benefit": {"s": rng.choice(LEVELS), "f": rng.choice(LEVELS), "o": rng.choice(LEVELS),
                        "p": rng.choice(LEVELS), "w_s": weight(), "w_f": weight(), "w_o": weight(),
                        "w_p": weight()},
        })
    return {"schema_version": 1, "kind": "catalog", "name": f"drain-1k seed {seed}",
            "responses": responses_doc}


class Drain1k(Workload):
    """Full drains of a seeded 1,025-entry catalog against the scenario1
    event with every precondition rejected, once per strategy."""

    name = "drain-1k"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        doc = drain_catalog(seed)
        self.catalog_path = workdir / f"drain-1k-seed{seed}.json"
        text = json.dumps(doc)
        if not self.catalog_path.exists() or self.catalog_path.read_text(encoding="utf-8") != text:
            self.catalog_path.write_text(text, encoding="utf-8")
        self.entries = [checks.entry_from_json(d) for d in doc["responses"]]
        self.scenario_doc = _read(DATA / "scenario1.json")

    def params(self):
        return {"catalog_entries": len(self.entries), "event": "scenario1", "strategies": ALGORITHMS}

    def close(self):
        self.catalog_path.unlink(missing_ok=True)

    def setup(self):
        scenario = files.load_scenario(DATA / "scenario1.json")
        self.event = scenario.event()
        self.catalog = files.load_catalog(self.catalog_path)
        self.selectors = {a: selection.make_selector(a) for a in ALGORITHMS}

    def prepare(self):
        doc = self.scenario_doc
        ip = doc["impact_params"]
        levels = (ip["s"], ip["f"], ip["o"], ip["p"])
        weights = (ip["w_s"], ip["w_f"], ip["w_o"], ip["w_p"])
        args = (levels, weights, doc["environment_weight"], doc["velocity_kmh"])
        cands = checks.candidates(self.entries, doc["intrusion_result"], doc["infected_asset"], doc["affected_asset"])
        self.reference = {
            a: checks.full_drain(cands, a, checks.impact(*args), checks.saw_bound(*args)) for a in ALGORITHMS
        }

    def batches(self):
        while True:
            yield ALGORITHMS

    def run_batch(self, batch, record, check=True, tracer=None):
        clock = time.perf_counter
        for algo in batch:
            self._op_label(f"drain/{algo}", tracer)
            op = record.open(algo)
            selector = self.selectors[algo]
            mark = clock()

            def select(candidates, impact, event):
                # A drain lasts about a second; let the recorder sample the
                # machine's speed between selections, outside the op's time.
                nonlocal mark
                mark = record.checkpoint(op, mark)
                return selector(candidates, impact, event)

            try:
                cands = responses.generate_candidates(self.event, self.catalog.responses)
                _, attempts = engine.inner_loop(
                    self.event, cands, select if tracer is None else selector, self.event.vehicle.facts,
                    precondition_policy=_reject)
                ok = True
            except Exception:
                attempts, ok = None, False
                self._report()
            record.add(op, clock() - mark)
            if ok and check:
                try:
                    ok = [
                        (a.response_index, a.target_asset, a.score, a.cost, a.benefit, a.precondition_passed)
                        for a in attempts
                    ] == self.reference[algo]
                except (AttributeError, TypeError):
                    ok = False
                if not ok:
                    self._report(f"drain/{algo}: ranking differs from the reference")
            record.close(ok)


@dataclasses.dataclass(frozen=True)
class Sequence:
    """One generated intrusion and the detector's verdicts on it.

    ``script`` holds ("failure",), ("new_intrusion", velocity) and a
    final ("success",).
    """

    algo: str
    infected: str
    affected: str
    result: str
    levels: tuple[int, int, int, int]
    weights: tuple[float, float, float, float]
    velocity: float
    facts: dict
    script: tuple
    rng_seed: int

    def event(self, velocity: float) -> IntrusionEvent:
        return IntrusionEvent(
            infected_asset=self.infected,
            affected_asset=self.affected,
            result=IntrusionResult(self.result),
            impact_params=ImpactVector(*self.levels, *self.weights),
            env=EnvironmentTerm(e=checks.env_level(velocity), w_e=1.0),
            vehicle=VehicleState(velocity_kmh=velocity, facts=dict(self.facts)),
        )


class EventStream(Workload):
    """Seeded intrusion sequences over the generic catalog, one ``Engine.run``
    each, strategies cycled; an op is one decision."""

    name = "event-stream"
    trace_batches = 1000
    memory_batches = 200
    MAX_STEPS = 9
    MAX_VELOCITY = 130.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        catalog_doc = _read(DATA / "catalog_generic.json")
        self.entries = [checks.entry_from_json(d) for d in catalog_doc["responses"]]
        words = {w for e in self.entries for w in re.findall(r"[a-z_][a-z0-9_]*", e["precondition"])}
        self.fact_names = sorted(words - {"true", "false"})
        self.assets = [a["id"] for a in _read(DATA / "architecture.json")["assets"]]
        self.results = [r.value for r in IntrusionResult]

    def params(self):
        return {"catalog": "catalog_generic.json", "assets": len(self.assets), "max_steps": self.MAX_STEPS,
                "velocity_kmh": [0.0, self.MAX_VELOCITY], "facts": self.fact_names}

    def setup(self):
        files.load_architecture(DATA / "architecture.json")
        self.catalog = files.load_catalog(DATA / "catalog_generic.json")
        self.selectors = {a: selection.make_selector(a) for a in ALGORITHMS}
        # Set-up builds the engine a deployment would hold; the ops use a
        # fresh one per sequence so each starts without adaptation state.
        self.engine = engine.Engine(self.catalog.responses, self.selectors[ALGORITHMS[0]])

    def prepare(self):
        self.specs = {spec.index: spec for spec in self.catalog.responses}

    def batches(self):
        rng = random.Random(f"event-stream:{self.seed}")
        n = 0
        while True:
            steps = rng.randint(1, self.MAX_STEPS)
            script = tuple(
                ("failure",) if rng.random() < 0.5 else ("new_intrusion", round(rng.uniform(0, self.MAX_VELOCITY), 1))
                for _ in range(steps - 1)
            ) + (("success",),)
            yield Sequence(
                algo=ALGORITHMS[n % len(ALGORITHMS)],
                infected=rng.choice(self.assets),
                affected=rng.choice(self.assets),
                result=rng.choice(self.results),
                levels=tuple(rng.choice(LEVELS) for _ in range(4)),
                weights=tuple(round(rng.uniform(0.5, 1.5), 2) for _ in range(4)),
                velocity=round(rng.uniform(0, self.MAX_VELOCITY), 1),
                facts={name: rng.random() < 0.5 for name in self.fact_names},
                script=script,
                rng_seed=rng.randrange(2**31),
            )
            n += 1

    def run_batch(self, seq, record, check=True, tracer=None):
        first = seq.event(seq.velocity)
        verdicts = [
            engine.Failure() if v[0] == "failure"
            else engine.NewIntrusion(seq.event(v[1])) if v[0] == "new_intrusion"
            else engine.Success()
            for v in seq.script
        ]
        label = f"decision/{seq.algo}"
        clock = time.perf_counter
        marks: list[float] = []

        def feedback(iteration, applied):
            marks.append(clock())
            if iteration < len(verdicts):
                self._op_label(label, tracer)
            verdict = verdicts[iteration - 1]
            marks.append(clock())
            return verdict

        self._op_label(label, tracer)
        start = clock()
        try:
            eng = engine.Engine(self.catalog.responses, self.selectors[seq.algo],
                                adaptation=engine.AdaptationConfig(rng_seed=seq.rng_seed))
            trace = eng.run(first, feedback)
        except Exception:
            for _ in seq.script:
                record(seq.algo, None, False)
            self._report()
            return
        end = clock()
        # Decision k runs from the end of verdict k-1 (or the start) to the
        # request for verdict k; the adaptation after the last verdict is
        # added to the last decision.
        enters, exits = marks[0::2], [start] + marks[1::2]
        latencies = [enter - left for enter, left in zip(enters, exits)]
        if latencies:
            latencies[-1] += end - exits[-1]
        errors = {}
        if check:
            try:
                errors = checks.decision_errors(seq, self.entries, trace.records, self._oracle)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                errors = {step: repr(exc) for step in range(1, len(seq.script) + 1)}
        if errors:
            self._report(f"{seq}: {errors}")
        for step in range(1, len(seq.script) + 1):
            seconds = latencies[step - 1] if step <= len(latencies) else None
            record(seq.algo, seconds, step not in errors and seconds is not None)

    def _spec(self, cand: checks.Cand):
        spec = self.specs[cand.index]
        if (cand.levels, cand.weights) == (spec.benefit.levels(), spec.benefit.weights()):
            return spec
        return dataclasses.replace(spec, benefit=ImpactVector(*cand.levels, *cand.weights))

    def _oracle(self, cands, algo, impact) -> int:
        instances = [CandidateInstance(self._spec(c), c.target) for c in cands]
        objective = "max-benefit" if algo == "lp-max" else "min-cost"
        chosen = selection.brute_force_oracle(instances, impact, objective).chosen
        return next(i for i, inst in enumerate(instances) if inst is chosen)


WORKLOADS = {w.name: w for w in (PaperSeries, Drain1k, EventStream)}
