"""Command-line front end.

    irsofdm run CONFIG [--scenario S] [--seed N] [--drops N] [--out FILE]
    irsofdm validate-config CONFIG

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .circuit import SingularCircuitError
from .config import SCENARIOS, ConfigError, load_config
from .experiments import RUNNERS, write_csv_rows, write_result_csv
from .optimizer import PowerAllocationError

_NUMERICAL_ERRORS = (SingularCircuitError, PowerAllocationError)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="irsofdm",
        description="Wideband OFDM link simulator for reconfigurable reflecting surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario described by a YAML config")
    run_p.add_argument("config", help="path to the YAML configuration")
    run_p.add_argument("--scenario", choices=SCENARIOS, help="override the configured scenario")
    run_p.add_argument("--seed", type=int, help="override the random seed")
    run_p.add_argument("--drops", type=int, help="override the number of Monte Carlo drops")
    run_p.add_argument("--out", help="override the output CSV path")

    val_p = sub.add_parser("validate-config", help="check a config file and exit")
    val_p.add_argument("config", help="path to the YAML configuration")
    val_p.set_defaults(scenario=None, seed=None, drops=None, out=None)
    return parser


def _check_writable(out):
    """Fail before simulating if `out` cannot be written; creates and truncates nothing."""
    folder = os.path.dirname(os.path.abspath(out))
    # an existing file is truncated in place, so its own mode decides; a new one needs the folder's
    target = out if os.path.exists(out) else folder
    if os.path.isdir(out) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise ConfigError(f"cannot write {out}: not a file in an existing writable directory")


def _devnull(stream):  # the bytes a failed write left buffered must not fail the exit flush
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _to_stdout(write):
    """Call `write(sys.stdout)` and flush; an unwritable standard output is a config error."""
    if sys.stdout is None:  # closed before the interpreter started
        raise ConfigError("cannot write standard output: it is closed")
    try:  # flushed inside the try: a reader that closed the pipe is an unwritable output
        write(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        _devnull(sys.stdout)
        raise ConfigError(f"cannot write standard output: {exc}") from exc


def _say(line):
    """One line to stderr; an unwritable stderr loses the line, never the exit code."""
    try:
        if sys.stderr is not None:  # None: closed before the interpreter started
            print(line, file=sys.stderr, flush=True)
    except OSError:
        _devnull(sys.stderr)


def _emit(result, out):
    if not out:
        return _to_stdout(lambda fh: write_csv_rows(fh, result))
    try:
        write_result_csv(out, result)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _load(args):
    """The checked config and output path; `run` and `validate-config` both load here."""
    overrides = {"scenario": args.scenario, "seed": args.seed, "n_drops": args.drops}
    cfg = load_config(args.config, {k: v for k, v in overrides.items() if v is not None})
    out = args.out or cfg.output_csv
    if out:
        _check_writable(out)
    return cfg, out


def _run(cfg, out):
    result = RUNNERS[cfg.scenario](cfg)  # looked up per call, so a patched entry is what runs
    _emit(result, out)
    for line in result.summary():
        _say(line)
    # model validation lists the targets that no capacitance reaches
    return 3 if getattr(result, "errors", None) else 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg, out = _load(args)
        if args.command == "run":
            return _run(cfg, out)
        _to_stdout(lambda fh: print(
            f"ok: scenario {cfg.scenario}, seed {cfg.seed}, {cfg.n_drops} drops, "
            f"N = {cfg.system.n_elements}, K = {cfg.system.n_subcarriers}", file=fh))
        return 0
    except ConfigError as exc:
        _say(f"configuration error: {exc}")
        return 2
    except _NUMERICAL_ERRORS as exc:
        _say(f"numerical failure: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
