"""Command-line entry point.

Subcommands: sync, transmit, digital, hop (scenario runs), diagnose
(chaos diagnostics), lut (channel table tooling).  Session commands read
a flat key=value config file, write a CSV trace, and print a one-page
metric summary (key: value lines) to stdout.

Exit codes: 0 success, 1 usage/config error, 2 runtime or session error.
Every command computes its results before it writes a file, and writes its
files before it prints, so a command that fails prints no result and leaves
no file: when one write fails, the files written before it are removed.
"""

import argparse
import functools
import os
import sys
from dataclasses import replace

from .core import (
    BasinEscapeError,
    LogisticParams,
    amplitude_spectrum,
    bifurcation_scan,
    iterate,
    lyapunov_exponent,
)
from .hopper import build_default_table, load_table_csv, save_table_csv
from .simkit import (
    DivergenceError,
    export_csv,
    export_hops_csv,
    load_config,
    run_digital_session,
    run_hop_session,
    run_sync_session,
    run_transmit_session,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args fills a new Namespace
    on every call and leaves the parser as it was."""
    parser = _Parser(prog="chaoslink", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def session_cmd(name, help_text, session):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", required=True, help="trace CSV output path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.set_defaults(run=_run_session, session=session, hops_out=None)
        return p

    # Each lambda looks its runner up when the command runs, so a runner
    # replaced on this module is the one called.
    session_cmd("sync", "idle synchronization session",
                lambda cfg, args: run_sync_session(cfg))
    session_cmd("transmit", "analog masked transmission session",
                lambda cfg, args: run_transmit_session(cfg))
    session_cmd("digital", "fixed-point bitstream session",
                lambda cfg, args: run_digital_session(cfg))
    hop = session_cmd("hop", "synchronization-gated channel hopping session", _hop_session)
    hop.add_argument("--table", default=None, help="channel LUT CSV (default built-in)")
    hop.add_argument("--hops-out", default=None, help="per-hop CSV output path")

    diag = sub.add_parser("diagnose", help="chaos diagnostics for one mu")
    diag.add_argument("--mu", type=float, required=True)
    diag.add_argument("--k", type=float, default=1.0)
    diag.add_argument("--x0", type=float, default=0.1)
    diag.add_argument("--steps", type=int, default=100_000)
    diag.add_argument("--lyapunov", action="store_true",
                      help="print the Lyapunov exponent estimate")
    diag.add_argument("--spectrum-out", default=None,
                      help="write the orbit amplitude spectrum to CSV")
    diag.add_argument("--bifurcation-out", default=None,
                      help="write a bifurcation scan to CSV")
    diag.add_argument("--mu-min", type=float, default=2.5)
    diag.add_argument("--mu-max", type=float, default=4.0)
    diag.add_argument("--mu-steps", type=int, default=301)
    diag.set_defaults(run=_run_diagnose)

    lut = sub.add_parser("lut", help="channel lookup table tooling")
    lut.add_argument("--emit", required=True, help="write the LUT to this CSV path")
    lut.add_argument("--table", default=None,
                     help="load this LUT CSV instead of the default table")
    lut.set_defaults(run=_run_lut)
    return parser


def _run_session(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    trace, metrics = args.session(cfg, args)
    hops = [(args.hops_out, export_hops_csv, metrics.hops)] if args.hops_out else []
    _write(hops + [(args.out, export_csv, trace)])
    print(f"command: {args.command}", f"steps: {len(trace) - 1}",
          *metrics.summary_lines(), sep="\n")
    return EXIT_OK


def _hop_session(cfg, args):
    return run_hop_session(cfg, load_table_csv(args.table) if args.table else None)


def _write(outputs) -> None:
    """Write each output (path, writer, *data) in order, as writer(*data,
    path); if one fails, remove the files written before it, then
    re-raise."""
    written = []
    try:
        for path, writer, *data in outputs:
            writer(*data, path)
            written.append(path)
    except BaseException:
        for path in written:
            os.remove(path)
        raise


def _write_csv(header, rows, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)


def _run_diagnose(args) -> int:
    """Compute every requested result, then write the CSVs, then print."""
    params = LogisticParams(mu=args.mu, k=args.k)
    lines, tables = [f"mu: {args.mu}"], []
    if args.lyapunov:
        value = lyapunov_exponent(params, args.x0, args.steps)
        lines += [f"lyapunov_exponent: {value!r}", f"chaotic: {value > 0}"]
    if args.spectrum_out:
        orbit = iterate(params, args.x0, max(args.steps, 4096))
        report = amplitude_spectrum(orbit[-4096:])
        lines.append(f"spectral_flatness: {report.flatness!r}")
        tables.append((args.spectrum_out, _write_csv, "bin,magnitude",
                       enumerate(report.magnitudes)))
    if args.bifurcation_out:
        rows = bifurcation_scan(args.mu_min, args.mu_max, args.mu_steps,
                                settle=500, keep=200, x0=args.x0, k=args.k)
        lines.append(f"bifurcation_rows: {sum(len(s) for _, s in rows)}")
        tables.append((args.bifurcation_out, _write_csv, "mu,value",
                       ((mu, v) for mu, samples in rows for v in samples)))
    _write(tables)
    print("\n".join(lines))
    return EXIT_OK


def _run_lut(args) -> int:
    table = load_table_csv(args.table) if args.table else build_default_table()
    save_table_csv(table, args.emit)
    print(f"channels: {len(table)}")
    print(f"band_mhz: {table[1].f_low}-{table[len(table)].f_high}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a command is required")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except (BasinEscapeError, DivergenceError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        # numpy names the allocation it could not make; Python names none
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
