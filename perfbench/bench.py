"""Measurement loops, layer metrics and the result line of the benchmark.

An untraced run (--trace 0) reports the end-to-end metrics; a traced run
(--trace 1) reports the per-layer metrics and the tracing overhead.  Every
call goes through `irsofdm.cli.main` in this process, and every call's
output is checked against the stored reference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer, child_calls, installed, layer_totals, PROBES
from workloads import WORKLOADS, item_order, load_reference, mismatches, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_SPAWNS = 5  # fresh interpreters timed per run, after one warm-up spawn

# A fresh interpreter that imports the CLI and loads the workload config,
# then reports how long each took.
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import irsofdm.cli
t1 = time.perf_counter()
import irsofdm.config
irsofdm.config.load_config(sys.argv[2])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, flush=True)
"""


def _spawn_setup(config, importtime=False):
    """(seconds from spawn to loaded config, import s, load s, child stderr)."""
    flags = ["-X", "importtime"] if importtime else []
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *flags, "-c", _SETUP_CHILD, str(SRC), str(config)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = child.communicate(timeout=60)
    if child.returncode != 0 or not line.strip():
        raise RuntimeError(f"set-up child failed with code {child.returncode}: {err[-2000:]}")
    import_s, load_s = (float(x) for x in line.split())
    return elapsed, import_s, load_s, err


def _cumulative_import_us(importtime_log, module):
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return float(parts[1])
    return 0.0


class SetupSampler:
    """Set-up spawns spread evenly over a run.

    The host this benchmark was tuned on switches between a fast and a slow
    state every few seconds, so the spawns are spread like the calls and the
    median is reported.
    """

    def __init__(self, config, seconds):
        self.config = config
        self.interval = seconds / SETUP_SPAWNS
        self.runs = []
        _spawn_setup(config)  # warm-up: byte-compiles and fills the page cache

    def poll(self, elapsed):
        """Spawn one interpreter if the next one is due `elapsed` s into the run."""
        if len(self.runs) < SETUP_SPAWNS and elapsed >= len(self.runs) * self.interval:
            self.runs.append(_spawn_setup(self.config))

    def values(self, trace):
        while len(self.runs) < SETUP_SPAWNS:
            self.runs.append(_spawn_setup(self.config))
        values = {"setup_s": statistics.median(r[0] for r in self.runs),
                  "setup.import_s": statistics.median(r[1] for r in self.runs),
                  "setup.load_config_s": statistics.median(r[2] for r in self.runs)}
        if trace:
            log = _spawn_setup(self.config, importtime=True)[3]
            values["setup.scipy_optimize_import_s"] = 1e-6 * _cumulative_import_us(
                log, "scipy.optimize")
        return values


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, cli_seed, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"CLI seed {cli_seed}: " + "; ".join(problems))


class Caller:
    """Runs items of one workload through `irsofdm.cli.main` and checks them."""

    def __init__(self, workload, reference, work):
        import irsofdm.cli

        self.main = irsofdm.cli.main
        self.workload = workload
        self.reference = reference
        self.out = work / "out.csv"
        self.tally = Tally()
        self.absent = set()  # probe targets that could not be installed

    def __call__(self, cli_seed, tracer=None):
        """Run one item; returns (seconds, summary or None, passed)."""
        self.out.unlink(missing_ok=True)
        argv = self.workload.argv(cli_seed, self.out)
        err = io.StringIO()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                self.absent.update(stack.enter_context(installed(tracer)))
                stack.enter_context(tracer.span("cli.main"))
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    rc = self.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed operation, not the end of the run
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - t0
        summary, problems = None, []
        if rc != 0:
            problems = [f"exit code {rc}: {err.getvalue().strip()[-500:]}"]
        else:
            try:
                summary = summarize(self.out)
            except (OSError, ValueError) as exc:
                problems = [f"unreadable output: {exc}"]
            else:
                problems = mismatches(summary, self.reference, cli_seed,
                                      self.workload.drops_per_call)
        self.tally.record(cli_seed, problems)
        return elapsed, summary, not problems


def _round_robin(items, seconds, setup, step, rounds):
    """Call `step(index, item)` over `items` in turn until `seconds` have
    passed and every item ran `rounds` times; returns the number of calls."""
    start, i = time.perf_counter(), 0
    while i < rounds * len(items) or time.perf_counter() - start < seconds:
        setup.poll(time.perf_counter() - start)
        step(i, items[i % len(items)])
        i += 1
    return i


def run_plain(caller, items, seconds, setup):
    """End-to-end figures of an untraced run."""
    workload = caller.workload
    caller(items[0])  # warm-up: first-call costs inside numpy and the CLI
    timed = workload.rounds * len(items)  # calls that set drops_per_s
    fastest, practical = {}, {}
    busy = {"drops": 0, "s": 0.0}

    def step(i, cli_seed):
        elapsed, summary, passed = caller(cli_seed)
        if passed:
            if i < timed:
                fastest[cli_seed] = min(elapsed, fastest.get(cli_seed, elapsed))
            busy["drops"] += workload.drops_per_call
            busy["s"] += elapsed
        if summary is not None:
            practical.setdefault(cli_seed, summary["rate"])

    calls = _round_robin(items, seconds, setup, step, workload.rounds)
    values = setup.values(trace=False)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if fastest:
        # Each item's fastest of its first `rounds` calls.  The host's slow
        # stretches last seconds and would otherwise set the figure; the fixed
        # number of calls keeps a faster program from drawing more samples.
        values["drops_per_s"] = workload.drops_per_call * len(fastest) / sum(fastest.values())
    if practical:
        values["rate_practical_bps_hz"] = statistics.fmean(practical.values())
    info = {"calls": calls}
    if busy["drops"]:
        info["all_calls_drops_per_s"] = busy["drops"] / busy["s"]
    return values, info


_SPAN_OF = {p.target: p.span for p in PROBES}


def run_traced(caller, items, seconds, setup):
    """Per-layer figures: each item runs once untraced and once traced."""
    workload = caller.workload
    tracer = Tracer()
    caller(items[0])
    busy = {False: 0.0, True: 0.0}

    def step(i, cli_seed):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            elapsed, _, _ = caller(cli_seed, tracer if traced else None)
            busy[traced] += elapsed

    i = _round_robin(items, seconds, setup, step, rounds=1)
    plain_s, traced_s = busy[False], busy[True]
    drops = i * workload.drops_per_call
    missing = sorted(caller.absent | tracer.broken | (set(workload.probes) - tracer.fired))
    # a layer with a missing probe is left out, so that it cannot read as 0 s
    missing_layers = {_SPAN_OF[t] for t in missing}
    values = {name: value for name, value in layer_metrics(tracer.spans, drops).items()
              if name.rpartition(".")[0] not in missing_layers}
    values.update(setup.values(trace=True))
    values["probes.missing"] = len(missing)
    values["trace.overhead_share"] = traced_s / plain_s - 1.0
    info = {"calls": i, "missing": missing,
            "untraced_drops_per_s": drops / plain_s, "traced_drops_per_s": drops / traced_s}
    return values, info


def layer_metrics(spans, drops):
    """Per-drop layer figures from the spans of `drops` traced drops.

    A layer that recorded no span reads 0.
    """
    totals = layer_totals(spans)
    wall = totals["cli.main"].seconds
    values = {}

    def layer(name, figures):
        total = totals.get(name)
        for metric, fn in figures.items():
            values[f"{name}.{metric}"] = fn(total) if total is not None else 0.0

    per_drop = lambda x: x / drops
    layer("kernels.cd", {
        "s": lambda t: per_drop(t.seconds),
        "share": lambda t: t.seconds / wall,
        "calls": lambda t: per_drop(t.calls),
        "sweeps": lambda t: per_drop(t.counts["sweeps"]),
        "updates": lambda t: per_drop(t.counts["updates"]),
        "us_per_update": lambda t: 1e6 * t.seconds / max(1, t.counts["updates"]),
        "rate_evals": lambda t: per_drop(t.counts["rate_evals"]),
        "maxed_out": lambda t: per_drop(t.counts["maxed_out"]),
    })
    layer("optimizer.water_filling", {
        "s": lambda t: per_drop(t.seconds),
        "share": lambda t: t.seconds / wall,
        "calls": lambda t: per_drop(t.calls),
        "us_per_call": lambda t: 1e6 * t.seconds / t.calls,
        "active_share": lambda t: t.counts["active"] / t.counts["subcarriers"],
    })
    layer("optimizer.alternate", {
        "self_s": lambda t: per_drop(t.self_seconds),
        "share": lambda t: t.self_seconds / wall,
        "calls": lambda t: per_drop(t.calls),
        "outer_iters": lambda t: child_calls(spans, "optimizer.alternate",
                                             "optimizer.water_filling") / t.calls,
        "nonconverged": lambda t: per_drop(t.counts["nonconverged"]),
    })
    layer("optimizer.alternating_optimize", {
        "nonconverged": lambda t: per_drop(t.counts["nonconverged"]),
    })
    layer("reflection_model.reflection_table", {
        "s": lambda t: per_drop(t.seconds),
        "calls": lambda t: per_drop(t.calls),
        "distinct_share": lambda t: t.counts["distinct"] / t.calls,
    })
    layer("channel.generate_channels", {
        "s": lambda t: per_drop(t.seconds),
        "calls": lambda t: per_drop(t.calls),
        "bytes": lambda t: per_drop(t.counts["bytes"]),
    })
    layer("experiments.simulate_drop_rates", {
        "self_s": lambda t: per_drop(t.self_seconds),
        "share": lambda t: t.self_seconds / wall,
    })
    layer("experiments.write_result_csv", {
        "s": lambda t: per_drop(t.seconds),
        "share": lambda t: t.seconds / wall,
        "bytes": lambda t: per_drop(t.counts["bytes"]),
    })
    layer("config.load_config", {"s": lambda t: per_drop(t.seconds)})
    values["cli.main.s"] = per_drop(wall)
    return values


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "irsofdm").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_stamp(args):
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(), "src_sha256": src_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": blas.get("name", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    import irsofdm.cli

    if Path(irsofdm.cli.__file__).resolve().parent != SRC / "irsofdm":
        print(f"perfbench: irsofdm was imported from {irsofdm.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload)
    items = item_order(args.seed)[:workload.items_per_run]

    work = WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = SetupSampler(workload.config, args.seconds)
        caller = Caller(workload, reference, work)
        runner = run_traced if args.trace else run_plain
        values, info = runner(caller, items, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    tally = caller.tally
    stamp = environment_stamp(args)
    print(f"workload {workload.name}, seed {args.seed}: {info['calls']} timed calls of "
          f"{workload.drops_per_call} drop(s) over {len(items)} items")
    if "all_calls_drops_per_s" in info:
        print(f"all timed calls together: {info['all_calls_drops_per_s']:.6g} drops/s")
    print(f"failed_share = {tally.failed / tally.attempted:.6g} share "
          f"({tally.failed} of {tally.attempted} calls)")
    for problem in tally.problems[:10]:
        print(f"  FAILED {problem}")
    if args.trace:
        print("probes missing: " + (", ".join(info["missing"]) or "none"))
        print(f"tracing overhead {100 * values['trace.overhead_share']:+.2f}% "
              f"(untraced {info['untraced_drops_per_s']:.4g} drops/s, "
              f"traced {info['traced_drops_per_s']:.4g} drops/s)")
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in section:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
        else:
            print(f"{m['name']}: not measured")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0
