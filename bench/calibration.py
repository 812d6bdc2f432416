"""Machine-speed probe used to put timings on a common scale.

The benchmark shares its host with other work, and the host's speed for
this interpreter drifts by tens of percent over seconds to minutes.  A
fixed stdlib-only kernel, run between ops, measures that speed; each op's
time is multiplied by ``REFERENCE_S / kernel time`` around it, which gives
its time on a host where the kernel takes exactly ``REFERENCE_S``.  The
kernel does the same kind of work as the package (JSON parsing, dict and
attribute access, ranking with ``min``/``sort``) but imports none of it and
reads no repository data, so a change to the package cannot move it.
Garbage collection is off while the kernel runs, so the size of the
program's heap does not leak into the probe.
"""
from __future__ import annotations

import gc
import json
import random
import time

import checks

#: Median kernel time on the baseline host (see README.md).
REFERENCE_S = 0.00075
#: Fewest kernel runs per sample.
MIN_REPEATS = 5


class Calibrator:
    def __init__(self):
        rng = random.Random("calibration")
        levels = (0, 1, 10, 100)
        entries = [
            {
                "index": i, "general": i % 3 == 0, "applies_to": ["falsify_alter_behavior"],
                "place": ("destination", "source", "both")[i % 3], "terminal": i == 31,
                "cost": {"a": rng.choice(levels), "perf": rng.choice(levels), "w_a": 1.0, "w_perf": 1.0},
                "benefit": {k: rng.choice(levels) for k in "sfop"},
            }
            for i in range(1, 41)
        ]
        self.text = json.dumps({"responses": entries})
        self.unit()

    def unit(self) -> None:
        entries = [checks.entry_from_json(d) for d in json.loads(self.text)["responses"]]
        cands = checks.candidates(entries, "falsify_alter_behavior", "front_camera", "acceleration_control")
        checks.full_drain(cands, "saw", 210.0, 3.0)
        checks.full_drain(cands, "lp-max", 210.0, 3.0)

    def sample(self, seconds: float = 0.0) -> float:
        """Seconds per kernel run, averaged over enough runs to take about
        ``seconds`` (at least MIN_REPEATS runs)."""
        repeats = max(MIN_REPEATS, round(seconds / REFERENCE_S))
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(repeats):
                self.unit()
            return (time.perf_counter() - t0) / repeats
        finally:
            if enabled:
                gc.enable()
