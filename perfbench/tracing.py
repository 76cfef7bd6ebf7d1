"""Span tracing installed from outside the package.

The tracer replaces module-level names of ``ltinfomax`` with wrappers
that record one span per call: (name, start, end, parent index). Spans
stay in memory; ``run.py`` turns them into per-layer metrics and writes
them out when the run ends. ``uninstall`` restores every original, so
untraced passes run the package's own functions.

Pool workers are forked from the tracing process and inherit the
wrappers. The worker entry point is wrapped too: it records the task's
spans in the worker and returns them attached to the run record, and the
``run_suite`` wrapper grafts them under its own span. With a start
method other than fork the workers would run untraced, and a traced pass
of a pool workload fails its step-count check instead of reporting
parent-side spans as the whole.
"""

import functools
import os
import statistics
from dataclasses import dataclass, fields
from time import perf_counter

import ltinfomax.experiments as experiments
import ltinfomax.objectives as objectives
import ltinfomax.trainer as trainer
from ltinfomax.experiments import RunRecord

# (module, attribute, span name); the span name is the layer that owns
# the function, not the module that imports it.
TRACED = (
    (trainer, "augment_pair", "data.augment_pair"),
    (trainer, "infomax_loss_and_grad", "objectives.infomax_loss_and_grad"),
    (trainer, "train_step", "trainer.train_step"),
    (objectives, "softmax", "numerics.softmax"),
    (experiments, "train", "trainer.train"),
    (experiments, "evaluate", "trainer.evaluate"),
    (experiments, "build_domains", "experiments.build_domains"),
    (experiments, "split_sources", "experiments.split_sources"),
)
# Result writers take the output path as their last positional argument.
WRITERS = ("write_runs_csv", "write_aggregate_csv", "write_run_json", "emit_plot_data")


@dataclass(frozen=True)
class TracedRecord(RunRecord):
    """A RunRecord carrying the spans its pool worker recorded."""

    spans: tuple = ()


class Tracer:
    """Span recorder for one benchmark process (and its forked workers)."""

    def __init__(self):
        self.originals = []
        self.reset()

    def reset(self):
        self.spans = []           # (name, start, end, parent index or -1)
        self.stack = []
        self.write_bytes = 0
        self.suites = []          # (run_suite wall, jobs, sum of RunRecord.wall_s)
        self.accepted = []        # per run: mean pseudo-label acceptance over epochs

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, (self.stack[-2] if len(self.stack) > 1 else -1), perf_counter()

    def _close(self, idx, parent, name, t0):
        self.spans[idx] = (name, t0, perf_counter(), parent)
        self.stack.pop()

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent, t0 = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, t0)
                if after is not None:
                    after(args, kwargs)
        return wrapper

    def _count_written(self, args, kwargs):
        path = kwargs.get("path", args[-1])
        if os.path.exists(path):
            self.write_bytes += os.path.getsize(path)

    def _run_suite(self, fn):
        @functools.wraps(fn)
        def wrapper(config, *args, **kwargs):
            idx, parent, t0 = self._open()
            try:
                records = fn(config, *args, **kwargs)
            finally:
                self._close(idx, parent, "experiments.run_suite", t0)
            name, start, end, _ = self.spans[idx]
            for rec in records:
                base = len(self.spans)
                for s_name, s_start, s_end, s_parent in getattr(rec, "spans", ()):
                    self.spans.append((s_name, s_start, s_end,
                                       idx if s_parent < 0 else base + s_parent))
                self.accepted.append(statistics.fmean(
                    e["accepted_fraction"] for e in rec.epochs) if rec.epochs else 0.0)
            self.suites.append((end - start, config.jobs, sum(r.wall_s for r in records)))
            return records
        return wrapper

    def _worker(self, fn):
        # functools.wraps keeps the qualified name, so the pool pickles this
        # wrapper by reference to ltinfomax.experiments._run_worker.
        @functools.wraps(fn)
        def wrapper(args):
            self.spans, self.stack = [], []
            idx, parent, t0 = self._open()
            try:
                rec = fn(args)
            finally:
                self._close(idx, parent, "experiments.run_worker", t0)
            values = {f.name: getattr(rec, f.name) for f in fields(RunRecord)}
            return TracedRecord(**values, spans=tuple(self.spans))
        return wrapper

    def install(self):
        if self.originals:
            raise RuntimeError("tracer already installed")
        patches = [(mod, attr, self._span(name, getattr(mod, attr)))
                   for mod, attr, name in TRACED]
        patches += [(experiments, attr, self._span("experiments.write", getattr(experiments, attr),
                                                   after=self._count_written))
                    for attr in WRITERS]
        patches.append((experiments, "run_suite", self._run_suite(experiments.run_suite)))
        patches.append((experiments, "_run_worker", self._worker(experiments._run_worker)))
        for mod, attr, wrapper in patches:
            self.originals.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)
        self.reset()

    def uninstall(self):
        for mod, attr, original in reversed(self.originals):
            setattr(mod, attr, original)
        self.originals = []


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, steps_expected):
    """Per-layer metrics of one traced pass (see README.md for the list).

    Self time is a span's duration minus its direct children's; spans of
    one process nest without overlap, so that sum is the covered interval.
    """
    spans = tracer.spans
    durations = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        durations.setdefault(name, []).append(end - start)
        if parent >= 0:
            child_time[parent] += end - start

    def self_times(name):
        return [s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name]

    def calls(name):
        return len(durations.get(name, ()))

    steps = calls("trainer.train_step")
    if steps != steps_expected:
        raise RuntimeError(f"traced {steps} train steps, expected {steps_expected}")
    suite_wall = sum(wall * jobs for wall, jobs, _ in tracer.suites)
    busy = sum(b for _, _, b in tracer.suites)
    return {
        "objectives.infomax_loss_and_grad.us_p50":
            1e6 * _median(durations.get("objectives.infomax_loss_and_grad", ())),
        "objectives.infomax_loss_and_grad.calls": calls("objectives.infomax_loss_and_grad"),
        "numerics.softmax.calls_per_step": calls("numerics.softmax") / steps,
        "trainer.train_step.us_p50": 1e6 * _median(durations.get("trainer.train_step", ())),
        "trainer.train_step.self_us_p50": 1e6 * _median(self_times("trainer.train_step")),
        "data.augment_pair.us_p50": 1e6 * _median(durations.get("data.augment_pair", ())),
        "trainer.train.self_ms": 1e3 * _median(self_times("trainer.train")),
        "trainer.evaluate.ms_p50": 1e3 * _median(durations.get("trainer.evaluate", ())),
        "experiments.split_sources.ms_p50":
            1e3 * _median(durations.get("experiments.split_sources", ())),
        "experiments.build_domains.ms":
            1e3 * _median(durations.get("experiments.build_domains", ())),
        "experiments.build_domains.calls": calls("experiments.build_domains"),
        "experiments.write.ms": 1e3 * sum(durations.get("experiments.write", ())),
        "experiments.write.bytes": tracer.write_bytes,
        "experiments.pool.util": busy / suite_wall,
        "experiments.pool.overhead_s": sum(wall - b / jobs for wall, jobs, b in tracer.suites),
        "objectives.accepted_fraction": statistics.fmean(tracer.accepted),
    }
