"""Compare two liebrob source trees on the 22 reference runs, byte for byte.

    python tools/reference_runs.py A_SRC B_SRC

A_SRC and B_SRC are ``src`` directories (each holding the ``liebrob``
package). The runs are every shipped config, ``configs/*.json``, every
benchmark workload's kept config, ``perfbench/golden/*/config.json``, and the
edge cases in ``tools/reference_configs/*.json``, each under its
``verify-spin`` or ``verify-harmonic`` command and ``assumptions``. The edge
cases reach the verdict's branches that the other configs miss: a run that
exits 2 on flagged cells, blank Theorem-3 cells (a 2-site observable, and a
model with a 3-site term, which has no J matrix), infinite RHS cells on both
engines, and a single-site harmonic chain whose report has no rows.
The verify run also writes the model's ``lightcone.csv``. The configs are read
from the tree this script lives in, so both sides see the same files at the
same paths.

Each run is ``python -m liebrob.cli <command> --config <config> --out out``
with PYTHONPATH set to the source tree and one BLAS thread, in a fresh
temporary directory. The exit code, stdout, stderr and every file under
``out`` must be the same on both sides. One line is printed per run; the exit
status is 1 if any run differs. Under a differing run, one line per differing
output file gives the largest column-relative difference in each column that
differs, largest first (a float's change over the largest finite magnitude in
its CSV column, or among the JSON numbers at its key path), and whether every
other field is equal: text, integers (sites, counts) and the file's columns
and row counts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def reference_runs() -> list[tuple[str, Path]]:
    """(command, config) for every reference run, in a fixed order."""
    configs = [config for pattern in ("configs/*.json", "perfbench/golden/*/config.json",
                                      "tools/reference_configs/*.json")
               for config in sorted(ROOT.glob(pattern))]
    runs = []
    for config in configs:
        kind = json.loads(config.read_text())["model"]["type"]
        runs += [(f"verify-{kind}", config), ("assumptions", config)]
    return runs


def run(src: Path, command: str, config: Path) -> dict:
    """One CLI run in a temporary directory: exit code, stdout, stderr, files."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run(
            [sys.executable, "-m", "liebrob.cli", command, "--config", str(config),
             "--out", "out"], cwd=tmp, env=env, capture_output=True)
        out = Path(tmp, "out")
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
            **{f"out/{name}": data for name, data in files.items()}}


def columns(name: str, data: bytes) -> dict[str, list]:
    """Column name -> cells of a CSV file, or key path -> leaves of a JSON file."""
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(data.decode()))
        return {col: [row[i] for row in rows] for i, col in enumerate(header)}
    leaves: dict[str, list] = {}

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for item in value:
                walk(item, f"{path}[]")
        else:
            leaves.setdefault(path, []).append(value)

    walk(json.loads(data), "")
    return leaves


def as_float(cell) -> float | None:
    """A float field's value; None for a field compared exactly (text, integers)."""
    if isinstance(cell, str) and not cell.lstrip("-").isdigit():
        try:
            return float(cell)
        except ValueError:
            return None
    return cell if isinstance(cell, float) else None


def file_difference(name: str, a: bytes, b: bytes) -> str:
    """The largest column-relative difference per differing column of two output
    files, and whether every field that is not a float is equal."""
    cols_a, cols_b = columns(name, a), columns(name, b)
    if cols_a.keys() != cols_b.keys() or any(
            len(cols_a[col]) != len(cols_b[col]) for col in cols_a):
        return f"{name}: columns or row counts differ"
    worst, exact = {}, True
    for col, cells_a in cols_a.items():
        pairs = [(x, y, as_float(x), as_float(y)) for x, y in zip(cells_a, cols_b[col])]
        scale = max((abs(v) for *_, fx, fy in pairs for v in (fx, fy)
                     if v is not None and math.isfinite(v)), default=0.0)
        for x, y, fx, fy in pairs:
            if x == y:
                continue
            if fx is None or fy is None:
                exact = False
                continue
            diff = abs(fx - fy) / scale if scale and math.isfinite(fx - fy) else math.inf
            worst[col] = max(worst.get(col, 0.0), diff)
    ranked = sorted(worst.items(), key=lambda item: -item[1])
    return (f"{name}: column-relative differences"
            f" {', '.join(f'{col} {diff:.3g}' for col, diff in ranked) or 'none'};"
            f" other fields {'equal' if exact else 'differ'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two liebrob source trees"
                                     " on the reference runs, byte for byte.")
    parser.add_argument("a_src", type=Path)
    parser.add_argument("b_src", type=Path)
    args = parser.parse_args(argv)
    runs = reference_runs()
    differing = 0
    for command, config in runs:
        a, b = (run(src.resolve(), command, config) for src in (args.a_src, args.b_src))
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        files = sum(k.startswith("out/") for k in a)
        verdict = "differ: " + ", ".join(diff) if diff else "identical"
        print(f"{command:16} {config.relative_to(ROOT)}: exit {a['exit']},"
              f" outputs {files}, {verdict}", flush=True)
        for key in diff:
            if key.startswith("out/") and key in a and key in b:
                print(f"    {file_difference(key, a[key], b[key])}", flush=True)
        differing += bool(diff)
    print(f"{differing} of {len(runs)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
