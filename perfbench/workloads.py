"""Workloads, the inputs a run feeds them, and the reference check.

Every workload is a YAML config under `configs/` run through
`irsofdm.cli.main` with `--seed S --drops D --out FILE`.  One such call is an
item.  The CLI seeds of the items are 0..UNIVERSE-1; the output of each was
stored under `reference/` by `make_reference.py`.  A run with benchmark seed
n takes the first `items_per_run` items of `item_order(n)` and cycles over
them, so the same n always gives the same inputs.

Outputs are compared numerically (relative tolerance RTOL, absolute ATOL),
not byte for byte, so that changes at the level of the last few ulps pass
while any change of a design or of a convergence path fails.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

from tracing import PROBES

HERE = Path(__file__).resolve().parent
UNIVERSE = 128
RTOL = 1e-9
ATOL = 1e-12
TRACE_STRIDE = 64  # a full-trace reference keeps every 64th objective


@dataclass(frozen=True)
class Workload:
    name: str
    drops_per_call: int  # passed as --drops; a drop of full-trace is one design
    items_per_run: int   # leading items of item_order(seed) a run cycles over
    rounds: int          # calls per item that set drops_per_s
    probes: tuple        # probe targets a traced run of this workload must fire

    @property
    def config(self):
        return HERE / "configs" / f"{self.name}.yaml"

    @property
    def reference(self):
        return HERE / "reference" / f"{self.name}.json"

    def argv(self, cli_seed, out):
        return ["run", str(self.config), "--seed", str(cli_seed),
                "--drops", str(self.drops_per_call), "--out", str(out)]


_ALL = tuple(p.target for p in PROBES)
_SWEEP_ONLY = ("irsofdm.experiments.simulate_drop_rates", "irsofdm.experiments.water_filling")

# One round over a run's items takes about 5 s at the seed commit's average
# speed, so the timed rounds take 20 to 25 s and still end near 32 s when the
# shared host runs 1.5x slower; an item's calls sit seconds apart.
WORKLOADS = {w.name: w for w in (
    Workload("desk-power", drops_per_call=4, items_per_run=8, rounds=4, probes=_ALL),
    Workload("desk-elements", drops_per_call=8, items_per_run=12, rounds=4, probes=_ALL),
    Workload("full-trace", drops_per_call=1, items_per_run=96, rounds=5,
             probes=tuple(t for t in _ALL if t not in _SWEEP_ONLY)),
)}


def item_order(seed):
    """The CLI seeds run `seed` feeds the program, a permutation of the universe."""
    order = list(range(UNIVERSE))
    random.Random(seed).shuffle(order)
    return order


def _rounded(x):
    return float(f"{x:.13g}")


def summarize(path):
    """What the reference check compares, read from a scenario's CSV output."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if header == ["stage", "iteration", "objective"]:
        return _summarize_trace(rows)
    if header != ["sweep_var", "sweep_value", "scheme", "mean_rate_bps_hz",
                  "std_rate", "n_drops", "seed"]:
        raise ValueError(f"unexpected CSV header {header}")
    return {
        "labels": [f"{r[0]}={r[1]}/{r[2]}" for r in rows],
        "n_drops": sorted({r[5] for r in rows}),
        "seed": sorted({r[6] for r in rows}),
        "mean": [_rounded(float(r[3])) for r in rows],
        "std": [_rounded(float(r[4])) for r in rows],
        "rate": sum(float(r[3]) for r in rows if r[2] == "practical")
                / max(1, sum(r[2] == "practical" for r in rows)),
    }


def _summarize_trace(rows):
    stages = []
    for stage, _, _ in rows:
        if stages and stages[-1][0] == stage:
            stages[-1][1] += 1
        else:
            stages.append([stage, 1])
    ends, at = set(), 0
    for _, count in stages:
        at += count
        ends.add(at - 1)
    objectives = [float(r[2]) for r in rows]
    keep = sorted(ends | set(range(0, len(rows), TRACE_STRIDE)))
    return {
        "stages": stages,
        "iterations_ok": [int(r[1]) for r in rows] == list(range(len(rows))),
        "samples": [_rounded(objectives[i]) for i in keep],
        "sum": _rounded(sum(objectives)),
        "rate": objectives[-1],
    }


def stored_form(summary):
    """The part of a summary kept in the reference file."""
    if "stages" in summary:
        return {k: summary[k] for k in ("stages", "samples", "sum")}
    return {k: summary[k] for k in ("mean", "std")}


def _close(a, b):
    return abs(a - b) <= ATOL + RTOL * abs(b)


def mismatches(summary, reference, cli_seed, drops):
    """Differences between one call's output and its stored reference."""
    item = reference["items"].get(str(cli_seed))
    if item is None:
        return [f"no reference for CLI seed {cli_seed}"]
    out = []
    if "stages" in item:
        if summary.get("stages") != item["stages"]:
            return ["stage sequence differs"]
        if not summary["iterations_ok"]:
            out.append("iteration column is not 0..n-1")
        pairs = list(zip(summary["samples"], item["samples"])) + [(summary["sum"], item["sum"])]
    else:
        if summary.get("labels") != reference["labels"]:
            return ["sweep rows differ"]
        if summary["n_drops"] != [str(drops)] or summary["seed"] != [str(cli_seed)]:
            out.append("n_drops or seed column differs")
        pairs = list(zip(summary["mean"] + summary["std"], item["mean"] + item["std"]))
    bad = [(a, b) for a, b in pairs if not _close(a, b)]
    if bad:
        a, b = max(bad, key=lambda ab: abs(ab[0] - ab[1]))
        out.append(f"{len(bad)} values outside tolerance, worst {a!r} against {b!r}")
    return out


def load_reference(workload):
    with open(workload.reference) as fh:
        return json.load(fh)
