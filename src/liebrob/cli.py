"""Command-line entry point: ``assumptions``, ``verify-spin`` and ``verify-harmonic``.

``assumptions`` writes the lattice constants and is the one command that runs
on a config with no model; each verify command also writes its model's light
cone.

Exit codes: 0 for a clean run, 1 for configuration or usage errors and for an
allocation that does not fit in memory, 2 when a certified bound was violated
at any grid point.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .runner import run_assumptions, run_verify_harmonic, run_verify_spin

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_VIOLATION = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liebrob",
        description="Simulate open lattice dynamics and certify Lieb-Robinson bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("assumptions", "emit the lattice decay constants (constants.json)"),
        ("verify-spin", "certify Theorems 1-3 against exact spin dynamics"),
        ("verify-harmonic", "certify the harmonic bound against kernel dynamics"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # code 2 is reserved for bound violations
        return EXIT_CONFIG_ERROR if exc.code == 2 else int(exc.code or 0)
    try:
        out = Path(args.out).absolute()  # refused before the run, not after it
        if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
            raise NotADirectoryError(f"--out {args.out} is a file or lies under one")
        config = load_config(args.config)
        # looked up per call, so a runner replaced on this module is the one run
        runners = {"assumptions": run_assumptions, "verify-spin": run_verify_spin,
                   "verify-harmonic": run_verify_harmonic}
        summary = runners[args.command](config, args.out)
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
