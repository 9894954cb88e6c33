"""Spans around the calls into each layer of irsofdm, recorded from outside.

A probe replaces a function at the name its caller looks it up by (for
example `irsofdm.optimizer.water_filling`, the name `_alternate` calls), so
every call through that binding opens a span with a name, a start, an end
and the span that was open when it began.  Counts are attached to the span
when the call returns.  Spans stay in memory; `layer_totals` turns them into
per-layer busy time, self time (busy time minus the time covered by child
spans) and summed counts.

A probe whose target name no longer exists is not installed, and one whose
counts can no longer be read from the call is marked broken; both are
reported as missing, so a restructured layer shows up as absent instead of
as 0 s.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    counts: dict | None = None


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        self.spans = []
        self.fired = set()
        self.broken = set()  # probe targets whose counts could not be read
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        index = self._begin(name)
        try:
            yield self.spans[index]
        finally:
            self._end(index)

    def _begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, 0.0, 0.0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _end(self, index):
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def wrap(self, probe, fn):
        """`fn` wrapped so that each call records a span for `probe`."""

        def traced(*args, **kwargs):
            self.fired.add(probe.target)
            index = self._begin(probe.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if probe.counts is not None:
                try:
                    self.spans[index].counts = probe.counts(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.broken.add(probe.target)
            return result

        traced.__wrapped__ = fn
        return traced


@dataclass(frozen=True)
class Probe:
    target: str   # "module.attribute" at the caller's binding
    span: str     # layer name the span is recorded under
    counts: Callable | None = None  # (args, kwargs, result) -> dict

    @property
    def module(self):
        return self.target.rpartition(".")[0]

    @property
    def attribute(self):
        return self.target.rpartition(".")[2]


def _cd_counts(args, kwargs, res):
    table = args[2] if len(args) > 2 else kwargs["phi_table"]
    n_cb, n_sc = np.shape(table)
    updates = int(np.size(res.update_rates))
    return {"sweeps": int(np.size(res.sweep_rates)), "updates": updates,
            "rate_evals": updates * n_cb * n_sc, "maxed_out": int(not res.converged)}


def _wf_counts(args, kwargs, alloc):
    return {"active": int(np.count_nonzero(alloc.p > 0.0)), "subcarriers": int(alloc.p.size)}


def _design_counts(args, kwargs, result):
    return {"nonconverged": int(not result[3].converged)}


def _table_counts(args, kwargs, result):
    params, cb, freqs = args[:3]
    key = (repr(params), np.asarray(cb.values).tobytes(), np.asarray(freqs, dtype=float).tobytes())
    return {"key": hash(key)}


def _channel_counts(args, kwargs, ch):
    return {"bytes": int(ch.frequencies.nbytes + ch.h_direct.nbytes
                         + ch.h_irs_user.nbytes + ch.g_ap_irs.nbytes)}


def _csv_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


PROBES = (
    Probe("irsofdm.cli.load_config", "config.load_config"),
    Probe("irsofdm.cli.write_result_csv", "experiments.write_result_csv", _csv_counts),
    Probe("irsofdm.experiments.generate_channels", "channel.generate_channels", _channel_counts),
    Probe("irsofdm.experiments.simulate_drop_rates", "experiments.simulate_drop_rates"),
    Probe("irsofdm.experiments.alternating_optimize", "optimizer.alternating_optimize",
          _design_counts),
    Probe("irsofdm.experiments.water_filling", "optimizer.water_filling", _wf_counts),
    Probe("irsofdm.optimizer.water_filling", "optimizer.water_filling", _wf_counts),
    Probe("irsofdm.optimizer._alternate", "optimizer.alternate", _design_counts),
    Probe("irsofdm.optimizer.coordinate_descent_sweeps", "kernels.cd", _cd_counts),
    Probe("irsofdm.optimizer.reflection_table", "reflection_model.reflection_table",
          _table_counts),
)


@contextlib.contextmanager
def installed(tracer, probes=PROBES):
    """Patch every probe target for the duration of the block.

    Yields the targets that could not be patched because the module or the
    attribute does not exist.
    """
    patched, absent = [], []
    try:
        for probe in probes:
            try:
                module = importlib.import_module(probe.module)
            except ImportError:
                absent.append(probe.target)
                continue
            original = getattr(module, probe.attribute, None)
            if not callable(original):
                absent.append(probe.target)
                continue
            setattr(module, probe.attribute, tracer.wrap(probe, original))
            patched.append((module, probe.attribute, original))
        yield absent
    finally:
        for module, attribute, original in reversed(patched):
            setattr(module, attribute, original)


@dataclass
class LayerTotal:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def layer_totals(spans):
    """Busy time, self time, calls and summed counts per span name.

    Counts named "key" identify a call's inputs; they are reported as the
    number of distinct keys, under "distinct".
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals = defaultdict(LayerTotal)
    keys = defaultdict(set)
    for span, covered in zip(spans, child_time):
        total = totals[span.name]
        total.seconds += span.end - span.start
        total.self_seconds += span.end - span.start - covered
        total.calls += 1
        for name, value in (span.counts or {}).items():
            if name == "key":
                keys[span.name].add(value)
            else:
                total.counts[name] += value
    for name, seen in keys.items():
        totals[name].counts["distinct"] = len(seen)
    return dict(totals)


def child_calls(spans, parent_name, child_name):
    """Number of `child_name` spans opened directly inside a `parent_name` span."""
    return sum(1 for span in spans
               if span.name == child_name and span.parent >= 0
               and spans[span.parent].name == parent_name)
