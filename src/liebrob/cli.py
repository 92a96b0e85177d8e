"""Command-line entry point.

Exit codes: 0 for a clean run, 1 for configuration or usage errors and for an
allocation that does not fit in memory, 2 when a certified bound was violated
at any grid point.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .runner import run_assumptions, run_lightcone, run_verify_harmonic, run_verify_spin

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    # Usage errors exit with 1; code 2 is reserved for bound violations.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(self.exit_code_on_error, f"{self.prog}: error: {message}\n")

    exit_code_on_error = EXIT_CONFIG_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liebrob",
        description="Simulate open lattice dynamics and certify Lieb-Robinson bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text in (
        ("assumptions", "emit the lattice decay constants (constants.json)"),
        ("verify-spin", "certify Theorems 1-3 against exact spin dynamics"),
        ("verify-harmonic", "certify the harmonic bound against kernel dynamics"),
        ("lightcone", "emit threshold arrival times of the exact dynamics"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", required=True, help="output directory")
        if name in ("verify-spin", "lightcone"):
            cmd.add_argument("--guard-dim", type=int, default=None,
                             help="cap the spin Hilbert dimension at N")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = Path(args.out).absolute()  # refused before the run, not after it
        if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
            raise NotADirectoryError(f"--out {args.out} is a file or lies under one")
        config = load_config(args.config)
        if args.command == "assumptions":
            summary = run_assumptions(config, args.out)
        elif args.command == "verify-spin":
            summary = run_verify_spin(config, args.out, guard_dim=args.guard_dim)
        elif args.command == "verify-harmonic":
            summary = run_verify_harmonic(config, args.out)
        else:
            summary = run_lightcone(config, args.out, guard_dim=args.guard_dim)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ConfigError, ValueError) as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:  # numpy's message names the allocation's size
        print(f"error: {args.config}: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if summary.get("violation_count", 0) > 0:
        print(
            f"bound violations detected: {summary['violation_count']}"
            " (see report.csv)",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
