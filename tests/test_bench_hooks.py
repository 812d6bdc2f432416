"""The benchmark drives the package from outside: its tracer patches
package names and its workloads call public functions directly.  A rename
or deletion of one of them must fail here, not only in a benchmark run."""
import importlib
import itertools
import sys
from pathlib import Path

import pytest

import react_irs.engine as engine
import react_irs.files as files
import react_irs.harness as harness
import react_irs.responses as responses
import react_irs.selection as selection
from react_irs.preconditions import Precondition

BENCH = Path(__file__).resolve().parent.parent / "bench"
OWNERS = (engine, files, harness, responses, selection, Precondition, engine.Engine)


def _load_bench(module: str):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(str(BENCH))


def test_tracer_installs_and_restores_every_patched_name():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = _load_bench("tracing").Tracer()
    tracer.install()
    try:
        changed = {
            (owner.__name__, attr)
            for owner, snapshot in zip(OWNERS, before)
            for attr, value in vars(owner).items()
            if snapshot.get(attr) is not value
        }
    finally:
        tracer.uninstall()
    assert ("react_irs.selection", "make_selector") in changed
    assert ("react_irs.harness", "event_impact") in changed
    assert ("react_irs.engine", "adapt_on_success") in changed
    for owner, snapshot in zip(OWNERS, before):
        current = vars(owner)
        assert current.keys() == snapshot.keys(), owner.__name__
        assert all(current[attr] is value for attr, value in snapshot.items()), owner.__name__


class _Count:
    """Stands in for the benchmark's recorder: counts checked ops.  A
    single-stretch op calls it; a long op (a drain) opens, adds time,
    checkpoints between steps and closes."""

    def __init__(self):
        self.passed = 0
        self.failed = 0

    def __call__(self, algo, seconds, ok):
        self.close(ok)

    def open(self, algo):
        return 0

    def add(self, op, seconds):
        pass

    def checkpoint(self, op, since):
        return since

    def close(self, ok):
        if ok:
            self.passed += 1
        else:
            self.failed += 1


WORKLOAD_BATCHES = [("paper-series", 1, 24), ("event-stream", 30, 30), ("drain-1k", 1, 3)]


def _run_checked(tmp_path, name, batches, tracer=None) -> _Count:
    workload = _load_bench("workloads").WORKLOADS[name](1, tmp_path)
    try:
        workload.setup()
        workload.prepare()
        record = _Count()
        for batch in itertools.islice(workload.batches(), batches):
            workload.run_batch(batch, record, tracer=tracer)
    finally:
        workload.close()
    return record


# One drain-1k batch drains 1,026 candidates once per strategy; with the
# reference rankings it is checked against, it takes about 0.5 s.
@pytest.mark.parametrize("name, batches, min_ops", WORKLOAD_BATCHES)
def test_workload_ops_pass_their_checks(tmp_path, name, batches, min_ops):
    record = _run_checked(tmp_path, name, batches)
    assert record.failed == 0
    assert record.passed >= min_ops


@pytest.mark.parametrize("name, batches, min_ops", WORKLOAD_BATCHES)
def test_traced_workload_ops_pass_their_checks(tmp_path, name, batches, min_ops):
    """The traced run wraps every selector and reads the head outcome's
    ``feasible_count`` and ``fallback``; its ops must pass the same checks.
    An ``event-stream`` sequence keeps one (result, infected, affected)
    key, so its engine generates candidates once per run.  A
    ``paper-series`` run loads its catalog once, through the traced name,
    and parses no precondition: the catalog was parsed in set-up."""
    tracer = _load_bench("tracing").Tracer()
    tracer.install()
    try:
        record = _run_checked(tmp_path, name, batches, tracer=tracer)
    finally:
        tracer.uninstall()
    assert record.failed == 0
    assert record.passed >= min_ops
    selections = [span for span in tracer.spans if span[1].startswith("selection.")]
    assert selections and all({"n", "feasible", "fallback"} <= span[7].keys() for span in selections)
    metrics = tracer.layer_metrics()
    assert metrics["engine.inner_loop.calls"][0] == sum(
        metrics[f"selection.{algo}.calls"][0] for algo in ("lp-max", "lp-min", "saw")
    )
    if name == "event-stream":
        runs = sum(span[1] == "engine.run" for span in tracer.spans)
        assert runs == batches
        assert metrics["responses.generate_candidates.calls"][0] == runs
        assert metrics["engine.inner_loop.calls"][0] == record.passed
    if name == "paper-series":
        parses = [span[5] for span in tracer.spans if span[1] == "preconditions.parse"]
        assert set(parses) <= {"setup"}
        loads = [span[5] for span in tracer.spans if span[1] == "files.load_catalog"]
        run_loads = [op for op in loads if op != "setup"]
        runs = sum(span[1].startswith("harness.run.") for span in tracer.spans)
        assert runs == record.passed
        assert len(run_loads) == len(set(run_loads)) == runs
        assert metrics["files.load_catalog.calls"][0] == len(loads)
