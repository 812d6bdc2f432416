"""Repeat bench/run.py over several seeds and summarise the spread.

    python3 bench/baseline.py --seeds 1-10 --out bench/out/summary.json
    python3 bench/baseline.py --workloads drain-1k --seeds 1-5

Runs one process at a time.  For each workload and metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median, next to the bound in
BENCHMARK.json.  The summary JSON keeps every run's result and metadata.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="summary JSON to write")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            saved = BENCH_DIR / "out" / f"result-{workload}-seed{seed}-trace{args.trace}.json"
            runs.append(json.loads(saved.read_text(encoding="utf-8")))
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": first["unit"], **spread(values), "values": values}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f} {'ok' if metrics[name]['iqr_share'] <= bound / 3 else 'WIDE'}"
            print(f"  {name:46s} median {metrics[name]['median']:14.4f} {first['unit']:6s} "
                  f"iqr/median {metrics[name]['iqr_share']:.4f}{flag}")
        summary["workloads"][workload] = {
            "metrics": metrics,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "meta": [r["meta"] for r in runs],
        }
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
