"""react_irs benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload paper-series --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics of a timed
run; with ``--trace 1`` the per-layer metrics of a traced run over fixed
work.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The same object, with the run's metadata, is written to
``bench/out/``.  See bench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import checks
from calibration import REFERENCE_S, Calibrator
from checks import ALGORITHMS, MODES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Fresh processes whose set-up times give ``setup_s``.
SETUP_PROBES = 7
#: ``react run`` invocations per mode for ``cli.run_ms.<mode>``.
CLI_REPEATS = 3
#: Op time between two machine-speed samples, and the share of it each
#: sample takes.
SEGMENT_S = 0.025
KERNEL_SHARE = 0.1
#: Samples that must lie beyond a reported high percentile.
TAIL_SAMPLES = 10
TIMEOUT_S = 120


def import_package():
    """Import ``react_irs`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "react_irs" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'react_irs'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import react_irs

    if Path(react_irs.__file__).resolve().parent != SRC / "react_irs":
        sys.exit(f"error: imported react_irs from {react_irs.__file__}, not {SRC}")


def percentile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return sorted_xs[min(len(sorted_xs) - 1, max(0, math.ceil(q * len(sorted_xs)) - 1))]


def supported_tail(n: int) -> float:
    """The highest of p99, p90 and p50 with TAIL_SAMPLES samples beyond it.

    A fixed ladder rather than 1 - TAIL_SAMPLES / n: on a mix of op kinds
    a percentile that moves with n jumps between kinds from run to run.
    """
    return next((q for q in (0.99, 0.9) if n * (1 - q) >= TAIL_SAMPLES), 0.5)


def describe(values) -> str:
    """One value, or mean and range when the values differ."""
    lo, hi = min(values), max(values)
    return str(lo) if lo == hi else f"{statistics.mean(values):.2f}[{lo}..{hi}]"


def metadata(args, params: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": params, "cpu_model": cpu, "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(), "git_sha": sha, "setup_probes": SETUP_PROBES,
    }


def probe_setup(args) -> dict:
    """Set-up time in a fresh interpreter, so no cache filled earlier in
    this process can shorten it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def setup_probe(workload) -> dict:
    """Time one set-up, bracketed by machine-speed samples."""
    calibrator = Calibrator()
    before = calibrator.sample()
    gc.collect()
    t0 = time.perf_counter()
    workload.setup()
    raw = time.perf_counter() - t0
    after = calibrator.sample()
    return {"raw_s": raw, "scaled_s": raw * REFERENCE_S / ((before + after) / 2)}


class Recorder:
    """Per-op outcomes and times of one pass.

    With a calibrator, a kernel sample is taken after every SEGMENT_S of
    op time, lasting KERNEL_SHARE of that time.  Op time between two
    samples is scaled by REFERENCE_S over the mean of the two.  A long op
    may call ``flush`` between its own steps, so that its time is split
    across several samples; the sample itself is not part of the op.
    """

    def __init__(self, calibrator=None):
        self.raw_seconds: list[float] = []
        self.seconds: list[float] = []
        self.algos: list[str] = []
        self.kernel_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._calibrator = calibrator
        self._pending: list[tuple[int, float]] = []
        self._pending_s = 0.0
        if calibrator is not None:
            self.kernel_s.append(calibrator.sample())

    def open(self, algo: str) -> int:
        self.algos.append(algo)
        self.raw_seconds.append(0.0)
        self.seconds.append(0.0)
        return len(self.algos) - 1

    def add(self, op: int, seconds: float) -> None:
        self.raw_seconds[op] += seconds
        self._pending.append((op, seconds))
        self._pending_s += seconds

    def close(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        if self._calibrator is None or self._pending_s >= SEGMENT_S:
            self.flush()

    def __call__(self, algo: str, seconds: float | None, ok: bool) -> None:
        """Record one op that ran in a single stretch (``None``: no time)."""
        if seconds is not None:
            self.add(self.open(algo), seconds)
        self.close(ok)

    def checkpoint(self, op: int, since: float) -> float:
        """Between the steps of a long op that has run since ``since``: once
        SEGMENT_S of op time is pending, add that time and take a sample.
        Returns the time the op resumes from."""
        if self._calibrator is None:
            return since
        now = time.perf_counter()
        if self._pending_s + now - since < SEGMENT_S:
            return since
        self.add(op, now - since)
        self.flush()
        return time.perf_counter()

    def flush(self) -> None:
        if not self._pending:
            return
        scale = 1.0
        if self._calibrator is not None:
            self.kernel_s.append(self._calibrator.sample(KERNEL_SHARE * self._pending_s))
            scale = REFERENCE_S / ((self.kernel_s[-2] + self.kernel_s[-1]) / 2)
        for op, seconds in self._pending:
            self.seconds[op] += seconds * scale
        self._pending.clear()
        self._pending_s = 0.0

    def ops_per_s(self) -> float:
        """Verified ops per second of (scaled) time spent in ops."""
        total = sum(self.seconds)
        return (self.attempted - self.failed) / total if total else 0.0


class Discard:
    """Recorder stand-in for the memory pass: keeps nothing, so the
    benchmark's own bookkeeping allocates nothing there."""

    def open(self, algo: str) -> int:
        return 0

    def add(self, op: int, seconds: float) -> None:
        pass

    def close(self, ok: bool) -> None:
        pass

    def checkpoint(self, op: int, since: float) -> float:
        return since

    def flush(self) -> None:
        pass

    def __call__(self, algo: str, seconds: float | None, ok: bool) -> None:
        pass


def run_pass(workload, batches, record, tracer=None, check=True, deadline=None) -> None:
    for batch in batches:
        workload.run_batch(batch, record, check=check, tracer=tracer)
        if deadline is not None and time.perf_counter() >= deadline:
            break
    record.flush()


def end_to_end(args, workload) -> tuple[dict, dict, Recorder]:
    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]

    workload.setup()
    workload.prepare()
    gc.collect()
    record = Recorder(Calibrator())
    start = time.perf_counter()
    run_pass(workload, workload.batches(), record, deadline=start + args.seconds)
    wall_s = time.perf_counter() - start

    # A fresh instance, so no state the timed pass accumulated is touched.
    fresh = type(workload)(args.seed, OUT)
    fresh.setup()
    batches = list(itertools.islice(fresh.batches(), fresh.memory_batches))
    record_nothing = Discard()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_pass(fresh, batches, record_nothing, check=False)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

    ms = sorted(s * 1e3 for s in record.seconds)
    tail = supported_tail(len(ms))
    metrics = {
        "setup_s": (statistics.median(p["scaled_s"] for p in setup_samples), "s"),
        "ops_per_s": (record.ops_per_s(), "1/s"),
        "op_ms.p50": (percentile(ms, 0.5) if ms else 0.0, "ms"),
        "op_ms.p99": (percentile(ms, tail) if ms else 0.0, "ms"),
    }
    for algo in ALGORITHMS:
        algo_ms = [s * 1e3 for s, a in zip(record.seconds, record.algos) if a == algo]
        metrics[f"drain_ms.{algo}.p50"] = (statistics.median(algo_ms) if algo_ms else 0.0, "ms")
    metrics["peak_alloc_kib"] = (peak / 1024, "KiB")
    raw_ms = sorted(s * 1e3 for s in record.raw_seconds)
    extra = {
        "samples": len(ms), "op_ms.p99_reports_percentile": round(100 * tail, 2),
        "ops_failed_ratio": record.failed / record.attempted if record.attempted else 0.0,
        "timed_wall_s": wall_s, "raw_busy_s": sum(record.raw_seconds),
        "raw_op_ms.p50": statistics.median(raw_ms) if raw_ms else 0.0,
        "raw_setup_s": statistics.median(p["raw_s"] for p in setup_samples),
        "kernel_ms.median": statistics.median(record.kernel_s) * 1e3,
        "kernel_samples": len(record.kernel_s),
        "setup_samples": setup_samples, "memory_batches": workload.memory_batches,
    }
    return metrics, extra, record


def cli_runs(record: Recorder) -> dict:
    """Median wall time of ``react run`` per mode, one subprocess at a time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    from workloads import expected_series

    expected = {mode: expected_series("scenario1", mode, "lp-max") for mode in MODES}
    out = {}
    for mode in MODES:
        samples = []
        for _ in range(CLI_REPEATS):
            cmd = [sys.executable, "-m", "react_irs.cli", "run", "--scenario", "scenario1", "--algo", "lp-max",
                   "--mode", mode, "--format", "jsonl", "--no-timings"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=TIMEOUT_S)
            samples.append(time.perf_counter() - t0)
            try:
                ok = proc.returncode == 0 and checks.records_match(
                    mode, "lp-max", checks.jsonl_records(proc.stdout), expected[mode])
            except (KeyError, TypeError, ValueError):
                ok = False
            record("lp-max", None, ok)
        out[f"cli.run_ms.{mode}"] = (statistics.median(samples) * 1e3, "ms")
    return out


def per_layer(args, traced) -> tuple[dict, dict, Recorder]:
    from tracing import Tracer

    calibrator = Calibrator()
    record = Recorder(calibrator)
    tracer = Tracer()
    tracer.install()
    try:
        traced.setup()
        traced.prepare()
        gc.collect()
        run_pass(traced, itertools.islice(traced.batches(), traced.trace_batches), record, tracer=tracer)
    finally:
        tracer.uninstall()
    traced_rate = record.ops_per_s()

    plain = type(traced)(args.seed, OUT)
    plain.setup()
    plain.prepare()
    gc.collect()
    untraced = Recorder(calibrator)
    run_pass(plain, itertools.islice(plain.batches(), plain.trace_batches), untraced)
    record.attempted += untraced.attempted
    record.failed += untraced.failed

    metrics = tracer.layer_metrics()
    list_ms = getattr(plain, "list_generation_ms", [])
    rss = getattr(plain, "peak_rss_bytes", [])
    metrics["harness.list_generation_ms"] = (statistics.median(list_ms) if list_ms else 0.0, "ms")
    metrics["harness.peak_rss_mib"] = (max(rss) / 2**20 if rss else 0.0, "MiB")
    metrics.update(cli_runs(record))
    metrics["trace.overhead_ratio"] = (untraced.ops_per_s() / traced_rate if traced_rate else 0.0, "ratio")

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    per_op: dict[str, list] = {}
    for op, counts in tracer.per_op_counts().items():
        per_op.setdefault(op.split(" ", 1)[-1], []).append(counts)
    for label in sorted(per_op):
        print(f"per-op {label}: ops={len(per_op[label])} "
              + " ".join(f"{name}/op={describe(values)}" for name, values in
                         zip(("selections", "response_benefit"), zip(*per_op[label]))))
    extra = {"trace_batches": traced.trace_batches, "spans": len(tracer.spans),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, extra, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)

    if args.setup_probe:
        print(json.dumps(setup_probe(workload)))
        return 0

    try:
        if args.trace:
            metrics, extra, record = per_layer(args, workload)
        else:
            metrics, extra, record = end_to_end(args, workload)
    finally:
        workload.close()

    meta = metadata(args, workload.params())
    print(f"meta: {json.dumps(meta)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.4f} {unit}")
    print(f"ops attempted={record.attempted} failed={record.failed} "
          f"ops_failed_ratio={record.failed / record.attempted if record.attempted else 0.0:.4f}")
    for key, value in extra.items():
        print(f"{key}: {value}")

    result = {
        "correct": record.failed == 0 and record.attempted > 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "meta": meta, "extra": extra}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
