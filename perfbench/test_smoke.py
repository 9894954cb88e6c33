"""Smoke test of the benchmark harness at tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

One item per workload goes through every probe; one short run of the
cheapest workload goes through the command in both modes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import Caller, layer_metrics  # noqa: E402
from tracing import Probe, Tracer, installed  # noqa: E402
from workloads import WORKLOADS, item_order, load_reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_ONLY = {"setup.import_s", "setup.load_config_s", "setup.scipy_optimize_import_s",
            "probes.missing", "trace.overhead_share"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_traced_item_fires_every_probe(name, tmp_path):
    workload = WORKLOADS[name]
    caller = Caller(workload, load_reference(workload), tmp_path)
    tracer = Tracer()
    cli_seed = item_order(0)[0]
    _, summary, passed = caller(cli_seed, tracer)
    assert passed, caller.tally.problems
    assert not caller.absent
    assert set(workload.probes) <= tracer.fired
    values = layer_metrics(tracer.spans, workload.drops_per_call)
    expected = {m["name"] for m in SPEC["per_layer"]} - RUN_ONLY
    assert set(values) == expected
    assert values["kernels.cd.s"] == max(v for k, v in values.items() if k.endswith(".s")
                                         and k != "cli.main.s")


def test_unpatchable_or_unreadable_probe_is_reported_missing():
    import irsofdm.reflection_model

    def unreadable(args, kwargs, result):
        return {"sweeps": result.no_such_field}

    tracer = Tracer()
    probes = [Probe("irsofdm.optimizer.no_such_function", "gone"),
              Probe("irsofdm.reflection_model.codebook", "reflection_model.codebook", unreadable)]
    with installed(tracer, probes) as absent:
        cb = irsofdm.reflection_model.codebook(3)
    assert cb.size == 8
    assert absent == ["irsofdm.optimizer.no_such_function"]
    assert tracer.broken == {"irsofdm.reflection_model.codebook"}


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-trace", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(trace):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in section:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
                   for line in lines), metric["name"]
    assert any(line.startswith("failed_share = 0 ") for line in lines)
    if trace:
        assert result["metrics"]["probes.missing"]["value"] == 0
        assert "probes missing: none" in lines


def test_tree_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-power", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
