"""Regenerate ``golden/`` from the current ``src/liebrob`` on the default seed.

    python3 perfbench/make_golden.py

Writes, per workload, the generated ``config.json`` and the CLI's
``report.csv.gz`` and ``summary.json``. Run it only when a change of the
program's numbers is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import gzip
import shutil
import subprocess
import sys

import gate
import run
import workloads


def main() -> int:
    env = run.child_env()
    for name, wl in workloads.WORKLOADS.items():
        dest = gate.GOLDEN_DIR / name
        dest.mkdir(parents=True, exist_ok=True)
        config = dest / "config.json"
        config.write_text(workloads.config_text(
            workloads.generate(name, workloads.DEFAULT_SEED)))
        out = run.HERE / "_runs" / f"golden-{name}"
        code = subprocess.call([sys.executable, "-m", "liebrob.cli", wl.command,
                                "--config", str(config), "--out", str(out)],
                               env=env, cwd=run.ROOT)
        if code != wl.expected_exit:
            print(f"{name}: exit code {code}, expected {wl.expected_exit}",
                  file=sys.stderr)
            return 1
        with gzip.GzipFile(dest / "report.csv.gz", "wb", mtime=0) as fh:
            fh.write((out / "report.csv").read_bytes())
        shutil.copyfile(out / "summary.json", dest / "summary.json")
        shutil.rmtree(out)
        print(f"{name}: golden written to {dest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
