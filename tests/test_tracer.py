"""The benchmark's per-layer tracer still hooks the spin engine.

``perfbench/tracer.py`` wraps ``lindblad._superop_pieces`` and
``lindblad._assemble`` by name and reads ``len(pieces)``; this smoke test runs
it once on the reference spin config so a change to those names or to the
pieces shows up here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_spin_run_records_the_generator(tmp_path):
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "1", str(result),
         "verify-spin", "--config", str(ROOT / "configs" / "spin_chain_xy.json"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    traced = json.loads(result.read_text())
    assert traced["exit_code"] == 0
    assert any(span[0] == "lindblad.assemble" for span in traced["spans"])
    assert traced["counts"]["lindblad.superop_bytes"] > 0
