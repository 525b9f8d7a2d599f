"""Command-line interface: confinement sweeps, the free-atom table, verify.

Exit codes: 0 success, 1 usage error, 2 numerical-convergence or accuracy
failure (for `verify`, also any failed criterion), 3 I/O failure, 4 internal
error.  A sweep with per-point failures still writes its outputs (failed
rows carry an error marker) and exits with code 2 so scripts notice.  Only
bad arguments and config values are usage errors; any other exception (a
ValueError raised inside the numerics, a broken --jobs worker pool) is a
fault of the program: its traceback goes to stderr and the exit code is 4.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .specfun import AccuracyError, ConvergenceError
from .sweep import (
    SETTINGS,
    SweepConfig,
    config_echo,
    config_from,
    emit_csv,
    emit_plot_data,
    parse_states,
    read_config_file,
    run_sweep,
    table1_text,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via our exit code."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hydrodisc",
        description="Confined 2D hydrogen atom: variational sweeps and "
        "information-theoretic measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a (state x r0) confinement sweep")
    sweep.add_argument("--config", help="key=value config file (flags win)")
    sweep.add_argument("--states", help="states as 'n,m;n,m;...', e.g. 1,0;2,0;2,1;3,2")
    sweep.add_argument("--r0-min", type=float, dest="r0_min")
    sweep.add_argument("--r0-max", type=float, dest="r0_max")
    sweep.add_argument("--points", type=int)
    sweep.add_argument("--spacing")
    sweep.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    sweep.add_argument("--out", dest="output_path", help="output directory (default: current)")
    sweep.add_argument(
        "--plot-data",
        action="store_const",
        const=True,
        dest="emit_plot_data",
        help="also write per-state fig*.dat files",
    )

    table1 = sub.add_parser("table1", help="write the free-atom measure table")
    table1.add_argument("--out", default="-", help="output file, '-' for stdout")

    sub.add_parser("verify", help="run the acceptance criteria and report pass/fail")
    return parser


def _resolve_config(args: argparse.Namespace) -> SweepConfig:
    """Sweep configuration from --config and the flags; bad values are usage errors."""
    try:
        file_values = read_config_file(args.config) if args.config else None
        flags = {key: getattr(args, key) for key in SETTINGS}
        flags["states"] = parse_states(args.states) if args.states is not None else None
        return config_from(file_values, flags)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _run_sweep_command(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")

    out_dir = cfg.output_path
    os.makedirs(out_dir, exist_ok=True)
    rows = run_sweep(cfg, jobs=args.jobs)

    csv_path = os.path.join(out_dir, "sweep.csv")
    emit_csv(rows, csv_path)
    echo_path = os.path.join(out_dir, "sweep_config.txt")
    with open(echo_path, "w", encoding="utf-8") as fh:
        fh.write(config_echo(cfg, args.jobs))
    written = [csv_path, echo_path]
    if cfg.emit_plot_data:
        plot_dir = os.path.join(out_dir, "plot_data")
        emit_plot_data(rows, plot_dir)
        written.append(plot_dir + os.sep)

    failed = [row for row in rows if row.error is not None]
    print(f"sweep: {len(rows)} rows ({len(failed)} failed), wrote {', '.join(written)}")
    for row in failed:
        print(f"  failed ({row.n},{row.m}) r0={row.r0:g}: {row.error}", file=sys.stderr)
    return EXIT_NUMERICAL if failed else EXIT_OK


def _run_table1_command(args: argparse.Namespace) -> int:
    if args.out == "-":
        sys.stdout.write(table1_text())
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table1_text())
        print(f"table1: wrote {args.out}")
    return EXIT_OK


def _run_verify_command() -> int:
    from .acceptance import run_all

    results = run_all(verbose=True)
    failed = [name for name, ok, _ in results if not ok]
    if failed:
        print(f"{len(failed)} of {len(results)} criteria FAILED: {', '.join(failed)}")
        return EXIT_NUMERICAL
    print(f"all {len(results)} acceptance criteria passed")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return _run_sweep_command(args)
        if args.command == "table1":
            return _run_table1_command(args)
        return _run_verify_command()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, AccuracyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        target = getattr(exc, "filename", None)
        where = f" ({target})" if target else ""
        print(f"i/o failure{where}: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
