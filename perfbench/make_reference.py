"""Store the reference output of every item of every workload.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are the accepted baseline: the
benchmark counts every later output that leaves the tolerance of these
files as a failed operation.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import irsofdm.cli  # noqa: E402

from bench import WORK_DIR, git_commit, src_digest  # noqa: E402
from workloads import ATOL, RTOL, UNIVERSE, WORKLOADS, stored_form, summarize  # noqa: E402


def make(workload, out):
    items, labels = {}, None
    for cli_seed in range(UNIVERSE):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = irsofdm.cli.main(workload.argv(cli_seed, out))
        if rc != 0:
            raise SystemExit(f"{workload.name} CLI seed {cli_seed} exited {rc}: {err.getvalue()}")
        summary = summarize(out)
        labels = summary.get("labels")
        items[str(cli_seed)] = stored_form(summary)
    reference = {"workload": workload.name, "drops_per_call": workload.drops_per_call,
                 "rtol": RTOL, "atol": ATOL,
                 "generated_from": {"commit": git_commit(), "src_sha256": src_digest()},
                 "labels": labels, "items": items}
    with open(workload.reference, "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


def main():
    work = WORK_DIR / "reference"
    work.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS.values():
        make(workload, work / f"{workload.name}.csv")
        print(f"wrote {workload.reference}")


if __name__ == "__main__":
    main()
