"""The benchmark's per-layer tracer still hooks both engines.

``perfbench/tracer.py`` wraps the public calls of each layer by module and
attribute name, and lists the targets it could not find as ``absent``. These
smoke tests run it once on each reference config, so a change to a hooked
name shows up here. ``absent`` is checked as a subset of the two targets that
no longer exist, so the tracer can be re-pointed without editing this file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GONE = {"liebrob.lindblad.expm", "liebrob.harmonic.harmonic_commutator_norms"}


def _traced(tmp_path, command, config):
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "1", str(result),
         command, "--config", str(ROOT / "configs" / config),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    traced = json.loads(result.read_text())
    assert traced["exit_code"] == 0
    return traced


def _assert_targets_found(traced):
    assert set(traced["absent"]) <= GONE
    names = {span[0] for span in traced["spans"]}
    # runner.verify is seen only if the CLI looks its runners up at call time
    assert {"config.load", "runner.verify", "lattice.constants",
            "bounds.lightcone"} <= names


def test_traced_spin_run_records_the_generator(tmp_path):
    traced = _traced(tmp_path, "verify-spin", "spin_chain_xy.json")
    _assert_targets_found(traced)
    assert {"lindblad.sweep", "lindblad.assemble"} <= {span[0] for span in traced["spans"]}
    assert traced["counts"]["lindblad.superop_bytes"] > 0


def test_traced_harmonic_run_finds_its_targets(tmp_path):
    traced = _traced(tmp_path, "verify-harmonic", "harmonic_chain.json")
    _assert_targets_found(traced)
    assert any(span[0] == "harmonic.kernel" for span in traced["spans"])
