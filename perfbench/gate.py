"""Correctness gate for one CLI run.

A run fails when its exit code differs from the workload's expected code,
when an output file is missing or unreadable, or when the report disagrees
with its own summary. On the default seed it must also match the golden copy
in ``golden/<workload>/``: equal violation counts per theorem, and every
numeric report column except the slack ratios within ``REL_TOL`` of the
golden value, taken relative to that column's largest finite magnitude.
Timeouts are detected by the caller.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

OUTPUT_FILES = ("report.csv", "summary.json", "lightcone.csv")

# The "same behaviour" tolerance of the project's roadmap.
REL_TOL = 1e-12

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def read_report(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("report.csv is empty")
    return rows[0], rows[1:]


def golden_report(workload: str) -> tuple[list[str], list[list[str]]]:
    with gzip.open(GOLDEN_DIR / workload / "report.csv.gz", "rt") as fh:
        return read_report(fh.read())


def golden_summary(workload: str) -> dict:
    return json.loads((GOLDEN_DIR / workload / "summary.json").read_text())


def compare_reports(header, rows, gold_header, gold_rows) -> list[str]:
    """Differences between a report and its golden copy, as messages."""
    if header != gold_header:
        return [f"report columns {header} differ from golden {gold_header}"]
    if len(rows) != len(gold_rows):
        return [f"report has {len(rows)} rows, golden has {len(gold_rows)}"]
    problems = []
    for col, name in enumerate(header):
        if name.startswith("slack"):
            continue  # rhs/lhs amplifies rounding wherever the LHS is tiny
        gold = [row[col] for row in gold_rows]
        new = [row[col] for row in rows]
        try:
            gold_vals = [float(v) if v else None for v in gold]
            new_vals = [float(v) if v else None for v in new]
        except ValueError:
            if new != gold:
                problems.append(f"column {name}: text differs from golden")
            continue
        finite = [abs(v) for v in gold_vals if v is not None and math.isfinite(v)]
        scale = max(finite, default=0.0)
        for i, (a, b) in enumerate(zip(new_vals, gold_vals)):
            if (a is None) != (b is None):
                problems.append(f"column {name} row {i + 1}: presence differs")
                break
            if a is None or a == b:
                continue
            if not (math.isfinite(a) and math.isfinite(b)) or abs(a - b) > REL_TOL * scale:
                problems.append(f"column {name} row {i + 1}: {a!r} vs golden {b!r}")
                break
    return problems


def check_run(workload: str, expected_exit: int, exit_code: int, out_dir: Path,
              golden: bool) -> list[str]:
    """Reasons the run failed; an empty list means it passed."""
    if exit_code != expected_exit:
        return [f"exit code {exit_code}, expected {expected_exit}"]
    missing = [name for name in OUTPUT_FILES if not (out_dir / name).is_file()]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        header, rows = read_report((out_dir / "report.csv").read_text())
    except (ValueError, OSError) as exc:
        return [f"unreadable output: {exc}"]
    if not rows or summary.get("rows") != len(rows):
        return [f"summary counts {summary.get('rows')} rows, report.csv has {len(rows)}"]
    if not golden:
        return []
    problems = []
    gold_summary = golden_summary(workload)
    if summary.get("violations") != gold_summary.get("violations"):
        problems.append(
            f"violation counts {summary.get('violations')}"
            f" differ from golden {gold_summary.get('violations')}"
        )
    problems += compare_reports(header, rows, *golden_report(workload))
    return problems


def check_count(out_dir: Path) -> int:
    """Certified LHS-vs-RHS comparisons a run made, read from its outputs.

    Spin: every non-empty ``rhs*`` cell of the report. Harmonic: each of the
    four commutator kinds at every ordered pair of distinct sites and every
    grid point, 4 n (n - 1) dt_points.
    """
    summary = json.loads((out_dir / "summary.json").read_text())
    if summary["mode"] == "verify-harmonic":
        n = summary["sites"]
        return 4 * n * (n - 1) * summary["dt_points"]
    header, rows = read_report((out_dir / "report.csv").read_text())
    cols = [i for i, name in enumerate(header) if name.startswith("rhs")]
    return sum(1 for row in rows for i in cols if row[i])
