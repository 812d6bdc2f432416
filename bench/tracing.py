"""Spans around the package's layer boundaries, installed from outside.

``Tracer.install`` replaces public functions at the names their callers
bind (``react_irs.engine.generate_candidates``, ``react_irs.harness.
load_catalog`` ...), the ``Precondition`` methods on the class, and the
selectors ``make_selector`` returns.  ``uninstall`` puts the originals
back.  Nothing in the package is edited.

A span is (id, name, start_ns, end_ns, parent id, op id, self_ns, attrs).
Self time is the span's duration minus its child spans and the scoring
leaves called directly under it.  The scoring leaves
(``response_benefit``, ``effective_cost``) run up to n^2 times per drain,
so they are timed and counted into their parent instead of getting a span
each.  Spans stay in memory until ``write`` dumps them as JSON lines.
"""
from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from checks import ALGORITHMS, MODES

#: Selection-size windows for ``selection.<algo>.select_us.<bucket>``.
SIZE_BUCKETS = {"n1k": (1000, 1040), "n64": (56, 72), "n26": (18, 34)}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = "setup"
        self.leaf_calls: dict[str, int] = {}
        self.leaf_calls_in_select: dict[str, int] = {}
        self.benefit_calls_by_op: dict[str, int] = {}
        self.loaded_paths: set[str] = set()
        self._stack: list[list] = []  # [id, name, start_ns, child_ns, is_selection, op]
        self._next_id = 0
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ recording

    def span(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so each call records a span; ``attrs(args, result)``
        adds fields to it."""
        stack, clock = self._stack, time.perf_counter_ns
        is_selection = name.startswith("selection.")

        def wrapper(*args, **kwargs):
            frame = [self._next_id, name, 0, 0, is_selection, self.op]
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            frame[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, parent, clock(), {})
                raise
            self._close(frame, parent, clock(), attrs(args, result) if attrs is not None else {})
            return result

        return wrapper

    def _close(self, frame: list, parent, end: int, attrs: dict) -> None:
        self._stack.pop()
        dur = end - frame[2]
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((frame[0], frame[1], frame[2], end, parent, frame[5], dur - frame[3], attrs))

    def leaf(self, name: str, fn):
        """Wrap a scoring leaf.  Under a selection span it is only counted,
        so the selection's own timing carries as little wrapper cost as
        possible; elsewhere it is also timed into its parent's children."""
        stack, clock = self._stack, time.perf_counter_ns
        self.leaf_calls[name] = self.leaf_calls_in_select[name] = 0
        by_op, counts_by_op = self.benefit_calls_by_op, name == "responses.response_benefit"

        def wrapper(*args):
            self.leaf_calls[name] += 1
            if counts_by_op:
                by_op[self.op] = by_op.get(self.op, 0) + 1
            if not stack:
                return fn(*args)
            top = stack[-1]
            if top[4]:
                self.leaf_calls_in_select[name] += 1
                return fn(*args)
            t0 = clock()
            result = fn(*args)
            top[3] += clock() - t0
            return result

        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import react_irs.engine as engine
        import react_irs.files as files
        import react_irs.harness as harness
        import react_irs.responses as responses
        import react_irs.selection as selection
        from react_irs.preconditions import Precondition

        def load_catalog_attrs(args, result):
            path = str(args[0])
            reload = path in self.loaded_paths
            self.loaded_paths.add(path)
            return {"reload": reload}

        load_catalog = self.span("files.load_catalog", files.load_catalog, load_catalog_attrs)
        for module in (files, harness):
            self._patch(module, "load_catalog", load_catalog)
        self._patch(files, "load_scenario", self.span("files.load_scenario", files.load_scenario))

        parse = Precondition.__dict__["parse"].__func__
        self._patch(Precondition, "parse", classmethod(self.span("preconditions.parse", parse)))
        self._patch(Precondition, "evaluate", self.span(
            "preconditions.evaluate", Precondition.evaluate, lambda args, result: {"passed": result}))

        event_impact = self.span("risk.event_impact", engine.event_impact)
        generate = self.span("responses.generate_candidates", responses.generate_candidates,
                             lambda args, result: {"n": len(result)})
        inner = self.span("engine.inner_loop", engine.inner_loop,
                          lambda args, result: {"attempts": len(result[1])})
        for module in (engine, harness):
            self._patch(module, "event_impact", event_impact)
            self._patch(module, "inner_loop", inner)
        for module in (engine, harness, responses):
            self._patch(module, "generate_candidates", generate)
        self._patch(engine.Engine, "run", self.span("engine.run", engine.Engine.run))
        for attr in ("adapt_on_failure", "adapt_on_success"):
            self._patch(engine, attr, self.span("engine.adapt", getattr(engine, attr)))

        for attr, name in (("response_benefit", "responses.response_benefit"),
                           ("effective_cost", "responses.effective_cost")):
            wrapped = self.leaf(name, getattr(responses, attr))
            for module in (selection, engine):
                self._patch(module, attr, wrapped)

        make_selector = selection.make_selector

        def traced_make_selector(algorithm, saw_cfg=None):
            return self.span(
                f"selection.{algorithm}",
                make_selector(algorithm, saw_cfg),
                lambda args, outcome: {
                    "n": len(args[0]),
                    "feasible": outcome.feasible_count,
                    "fallback": outcome.fallback,
                },
            )

        for module in (selection, harness):
            self._patch(module, "make_selector", traced_make_selector)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op, self_ns, attrs in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op, "self_ns": self_ns, "attrs": attrs,
                }) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every span recorded, as name -> (value, unit).

        A metric whose layer never ran reads 0.
        """
        by_name: dict[str, list[tuple]] = {}
        for span in self.spans:
            by_name.setdefault(span[1], []).append(span)

        def calls(name):
            return len(by_name.get(name, ()))

        def busy_ms(name):
            return sum(s[3] - s[2] for s in by_name.get(name, ())) / 1e6

        def self_ms(name):
            return sum(s[6] for s in by_name.get(name, ())) / 1e6

        def attr_sum(name, key):
            return sum(s[7][key] for s in by_name.get(name, ()) if s[7])

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {}
        m["files.load_catalog.calls"] = (calls("files.load_catalog"), "count")
        m["files.load_catalog.busy_ms"] = (busy_ms("files.load_catalog"), "ms")
        m["files.load_catalog.reload_ratio"] = (ratio(attr_sum("files.load_catalog", "reload"),
                                                      calls("files.load_catalog")), "ratio")
        m["files.load_scenario.busy_ms"] = (busy_ms("files.load_scenario"), "ms")
        m["preconditions.parse.calls"] = (calls("preconditions.parse"), "count")
        m["preconditions.parse.busy_ms"] = (busy_ms("preconditions.parse"), "ms")
        m["preconditions.evaluate.calls"] = (calls("preconditions.evaluate"), "count")
        m["preconditions.evaluate.busy_ms"] = (busy_ms("preconditions.evaluate"), "ms")
        m["preconditions.pass_ratio"] = (ratio(attr_sum("preconditions.evaluate", "passed"),
                                               calls("preconditions.evaluate")), "ratio")
        m["risk.event_impact.calls"] = (calls("risk.event_impact"), "count")
        m["risk.event_impact.busy_ms"] = (busy_ms("risk.event_impact"), "ms")
        gen = "responses.generate_candidates"
        m[f"{gen}.calls"] = (calls(gen), "count")
        m[f"{gen}.busy_ms"] = (busy_ms(gen), "ms")
        m[f"{gen}.candidates_per_call"] = (ratio(attr_sum(gen, "n"), calls(gen)), "count")
        selections = sum(calls(f"selection.{a}") for a in ALGORITHMS)
        m["responses.response_benefit.calls"] = (self.leaf_calls.get("responses.response_benefit", 0), "count")
        m["responses.response_benefit.calls_per_select"] = (
            ratio(self.leaf_calls_in_select.get("responses.response_benefit", 0), selections), "count")
        for algo in ALGORITHMS:
            name = f"selection.{algo}"
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.busy_ms"] = (busy_ms(name), "ms")
            for bucket, (lo, hi) in SIZE_BUCKETS.items():
                times = [(s[3] - s[2]) / 1e3 for s in by_name.get(name, ()) if s[7] and lo <= s[7]["n"] <= hi]
                m[f"{name}.select_us.{bucket}"] = (statistics.median(times) if times else 0.0, "us")
        sel_spans = [s for a in ALGORITHMS for s in by_name.get(f"selection.{a}", ()) if s[7]]
        m["selection.feasible_ratio"] = (ratio(sum(s[7]["feasible"] for s in sel_spans),
                                               sum(s[7]["n"] for s in sel_spans)), "ratio")
        m["selection.fallback_ratio"] = (ratio(sum(s[7]["fallback"] for s in sel_spans), len(sel_spans)), "ratio")
        m["engine.inner_loop.calls"] = (calls("engine.inner_loop"), "count")
        m["engine.inner_loop.self_ms"] = (self_ms("engine.inner_loop"), "ms")
        m["engine.inner_loop.attempts_per_call"] = (ratio(attr_sum("engine.inner_loop", "attempts"),
                                                          calls("engine.inner_loop")), "count")
        m["engine.run.self_ms"] = (self_ms("engine.run"), "ms")
        m["engine.adapt.calls"] = (calls("engine.adapt"), "count")
        m["engine.adapt.busy_ms"] = (busy_ms("engine.adapt"), "ms")
        for mode in MODES:
            m[f"harness.run.self_ms.{mode}"] = (self_ms(f"harness.run.{mode}"), "ms")
        m["harness.emit_series.busy_ms"] = (busy_ms("harness.emit_series"), "ms")
        m["harness.emit_series.rows"] = (attr_sum("harness.emit_series", "rows"), "count")
        return m

    def per_op_counts(self) -> dict[str, tuple[int, int]]:
        """(selections, ``response_benefit`` calls) per op, keyed by op id."""
        selections: dict[str, int] = {}
        for span in self.spans:
            if span[1].startswith("selection."):
                selections[span[5]] = selections.get(span[5], 0) + 1
        ops = selections.keys() | self.benefit_calls_by_op.keys()
        return {op: (selections.get(op, 0), self.benefit_calls_by_op.get(op, 0)) for op in ops}
