"""The benchmark workloads' kept configs reproduce their golden outputs.

Each workload's ``perfbench/golden/<name>/config.json`` runs through the CLI
and must pass the benchmark's own correctness gate (``perfbench/gate.py``):
exit code 0, all three output files, and every compared report column within
the gate's 1e-12 relative tolerance of the golden copy.
"""

import sys
from pathlib import Path

import pytest

from liebrob.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gate  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_kept_config_matches_golden(tmp_path, capsys, name):
    config = gate.GOLDEN_DIR / name / "config.json"
    out = tmp_path / "out"
    code = main([workloads.WORKLOADS[name].command, "--config", str(config),
                 "--out", str(out)])
    assert gate.check_run(name, 0, code, out, golden=True) == []
    assert "Traceback" not in capsys.readouterr().err
