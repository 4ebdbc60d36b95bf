"""Command-line entry point.

Subcommands: sync, transmit, digital, hop (scenario runs), diagnose
(chaos diagnostics), lut (channel table tooling).  Session commands read
a flat key=value config file, write a CSV trace, and print a one-page
metric summary (key: value lines) to stdout.

Exit codes: 0 success, 1 usage/config error, 2 runtime or session error.
"""

import argparse
import functools
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
    ConfigError,
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

    def session_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", required=True, help="trace CSV output path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        return p

    session_cmd("sync", "idle synchronization session")
    session_cmd("transmit", "analog masked transmission session")
    session_cmd("digital", "fixed-point bitstream session")
    hop = session_cmd("hop", "synchronization-gated channel hopping session")
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

    lut = sub.add_parser("lut", help="channel lookup table tooling")
    lut.add_argument("--emit", required=True, help="write the LUT to this CSV path")
    lut.add_argument("--table", default=None,
                     help="load this LUT CSV instead of the default table")
    return parser


_SESSIONS = {
    "sync": run_sync_session,
    "transmit": run_transmit_session,
    "digital": run_digital_session,
}


def _run_session(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.command == "hop":
        table = load_table_csv(args.table) if args.table else None
        trace, metrics = run_hop_session(cfg, table)
        if args.hops_out:
            export_hops_csv(metrics.hops, args.hops_out)
    else:
        trace, metrics = _SESSIONS[args.command](cfg)
    export_csv(trace, args.out)
    print(f"command: {args.command}")
    print(f"steps: {len(trace) - 1}")
    for line in metrics.summary_lines():
        print(line)
    return EXIT_OK


def _run_diagnose(args) -> int:
    params = LogisticParams(mu=args.mu, k=args.k)
    print(f"mu: {args.mu}")
    if args.lyapunov:
        value = lyapunov_exponent(params, args.x0, args.steps)
        print(f"lyapunov_exponent: {value!r}")
        print(f"chaotic: {value > 0}")
    if args.spectrum_out:
        orbit = iterate(params, args.x0, max(args.steps, 4096))
        report = amplitude_spectrum(orbit.samples[-4096:])
        with open(args.spectrum_out, "w", newline="") as fh:
            fh.write("bin,magnitude\n")
            for b, m in enumerate(report.magnitudes):
                fh.write(f"{b},{format(m, '.17g')}\n")
        print(f"spectral_flatness: {report.flatness!r}")
    if args.bifurcation_out:
        rows = bifurcation_scan(args.mu_min, args.mu_max, args.mu_steps,
                                settle=500, keep=200, x0=args.x0, k=args.k)
        with open(args.bifurcation_out, "w", newline="") as fh:
            fh.write("mu,value\n")
            for mu, samples in rows:
                for v in samples:
                    fh.write(f"{format(mu, '.17g')},{format(v, '.17g')}\n")
        print(f"bifurcation_rows: {sum(len(s) for _, s in rows)}")
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
        if args.command in ("sync", "transmit", "digital", "hop"):
            return _run_session(args)
        if args.command == "diagnose":
            return _run_diagnose(args)
        return _run_lut(args)
    except (ConfigError, ValueError) as exc:
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
