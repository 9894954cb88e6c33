"""Golden outputs: every scenario, seeds 0 and 1, against stored CSVs.

Text columns (labels, stages, iteration numbers, drop counts, seeds) must
match exactly and every other value to a relative 1e-13, which lets the last
ulp move but fails any change of a design or convergence path.  Regenerate the
stored files with `PYTHONPATH=src python tests/test_golden.py [NAME ...]`,
which rewrites the named cases (every case if none is named), only together
with a note of which rows moved and by how much.
"""

import csv
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from irsofdm.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-13
SEEDS = (0, 1)

# name -> (YAML config, extra CLI arguments)
CASES = {
    "model-validation": ("scenario: model-validation\n", []),
    "rate-vs-power": ("scenario: rate-vs-power\n", ["--drops", "3"]),
    "rate-vs-elements": ("scenario: rate-vs-elements\n", ["--drops", "2"]),
    "trace-desk": ("scenario: convergence-trace\n", []),
    "trace-full": ("scenario: convergence-trace\n"
                   "system: {n_elements: 128, n_subcarriers: 64}\n", []),
}
# model-validation draws no random numbers, so both seeds share one file
SEEDLESS = {"model-validation"}
EXACT = {"target_phase_deg", "sweep_var", "sweep_value", "scheme", "n_drops", "seed",
         "stage", "iteration"}


def run_case(name, seed, directory):
    """Run one case through the CLI and return the path of its CSV."""
    text, extra = CASES[name]
    config = Path(directory) / f"{name}.yaml"
    config.write_text(text)
    out = Path(directory) / f"{name}-seed{seed}.csv"
    rc = main(["run", str(config), "--seed", str(seed), "--out", str(out), *extra])
    assert rc == 0
    return out


def golden_path(name, seed):
    return GOLDEN / (f"{name}.csv" if name in SEEDLESS else f"{name}-seed{seed}.csv")


def read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, seed, tmp_path):
    header, rows = read(run_case(name, seed, tmp_path))
    gold_header, gold_rows = read(golden_path(name, seed))
    assert header == gold_header
    assert len(rows) == len(gold_rows)
    exact = [i for i, col in enumerate(header) if col in EXACT]
    numeric = [i for i in range(len(header)) if i not in exact]
    assert [[r[i] for i in exact] for r in rows] == [[r[i] for i in exact] for r in gold_rows]
    got = np.array([[float(r[i]) for i in numeric] for r in rows])
    want = np.array([[float(r[i]) for i in numeric] for r in gold_rows])
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)


def regenerate(names):
    """Rewrite the golden files of the named cases, of every case if none is named."""
    names = names or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown case {', '.join(unknown)}; cases: {', '.join(sorted(CASES))}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for case in names:
            for s in SEEDS[:1] if case in SEEDLESS else SEEDS:
                shutil.copyfile(run_case(case, s, work), golden_path(case, s))


def test_regenerate_writes_only_the_named_cases(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path / "golden")
    with pytest.raises(SystemExit) as exc:
        regenerate(["model-validation", "no-such-case"])
    assert exc.value.code == f"unknown case no-such-case; cases: {', '.join(sorted(CASES))}"
    assert not (tmp_path / "golden").exists()
    regenerate(["model-validation"])
    assert [f.name for f in (tmp_path / "golden").iterdir()] == ["model-validation.csv"]


if __name__ == "__main__":
    regenerate(sys.argv[1:])
