"""The benchmark's probes still find the layers they time.

perfbench patches each layer at the name its caller looks it up by.  A
renamed or restructured layer would only show up as `probes.missing` in a
traced benchmark run, so this checks the bindings in every test run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from irsofdm.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_probe_target_is_callable(tracing):
    for probe in tracing.PROBES:
        module = importlib.import_module(probe.module)
        assert callable(getattr(module, probe.attribute, None)), probe.target


def test_desk_rate_sweep_fires_every_probe(tracing, tmp_path):
    config = tmp_path / "desk-power.yaml"
    config.write_text("scenario: rate-vs-power\n")
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        rc = main(["run", str(config), "--drops", "1", "--out", str(tmp_path / "out.csv")])
    assert rc == 0
    assert absent == []
    assert tracer.fired == {probe.target for probe in tracing.PROBES}
    assert tracer.broken == set()
