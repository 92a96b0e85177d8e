"""Tests of the benchmark's own input generator and correctness gate."""

import gzip
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gate  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = workloads.config_text(workloads.generate(name, 7))
    assert workloads.config_text(workloads.generate(name, 7)) == first
    assert workloads.config_text(workloads.generate(name, 8)) != first


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_default_seed_matches_kept_config(name):
    kept = (gate.GOLDEN_DIR / name / "config.json").read_text()
    assert workloads.config_text(workloads.generate(name, workloads.DEFAULT_SEED)) == kept


def test_write_configs_repeats(tmp_path):
    a = workloads.write_configs(tmp_path / "a", 3)
    b = workloads.write_configs(tmp_path / "b", 3)
    assert a.keys() == b.keys() == workloads.WORKLOADS.keys()
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes()


def _golden_outputs(name, out_dir):
    out_dir.mkdir()
    with gzip.open(gate.GOLDEN_DIR / name / "report.csv.gz", "rb") as fh:
        (out_dir / "report.csv").write_bytes(fh.read())
    shutil.copyfile(gate.GOLDEN_DIR / name / "summary.json", out_dir / "summary.json")
    (out_dir / "lightcone.csv").write_text("distance,arrival\n")
    return out_dir


def _scale_largest_lhs(out_dir, factor):
    header, rows = gate.read_report((out_dir / "report.csv").read_text())
    col = next(i for i, name in enumerate(header) if name.startswith("lhs"))
    row = max(rows, key=lambda r: float(r[col]))
    row[col] = repr(float(row[col]) * factor)
    lines = [",".join(header)] + [",".join(r) for r in rows]
    (out_dir / "report.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", ["spin_static5", "harmonic_grid16_closed"])
def test_gate_catches_one_perturbed_lhs(name, tmp_path):
    out = _golden_outputs(name, tmp_path / "out")
    assert gate.check_run(name, 0, 0, out, golden=True) == []

    _scale_largest_lhs(out, 1.0 + 1e-14)  # inside the 1e-12 tolerance
    assert gate.check_run(name, 0, 0, out, golden=True) == []

    _scale_largest_lhs(out, 1.0 + 1e-9)
    problems = gate.check_run(name, 0, 0, out, golden=True)
    assert len(problems) == 1 and problems[0].startswith("column lhs")
    # Off the default seed there is no golden copy to compare with.
    assert gate.check_run(name, 0, 0, out, golden=False) == []


def test_gate_rejects_wrong_exit_missing_file_and_counts(tmp_path):
    out = _golden_outputs("spin_driven4", tmp_path / "out")
    assert gate.check_run("spin_driven4", 0, 2, out, golden=False)
    summary = json.loads((out / "summary.json").read_text())
    summary["violations"]["thm1"] += 1
    (out / "summary.json").write_text(json.dumps(summary))
    assert gate.check_run("spin_driven4", 0, 0, out, golden=True)
    (out / "lightcone.csv").unlink()
    assert gate.check_run("spin_driven4", 0, 0, out, golden=False)


def test_check_count_reads_outputs(tmp_path):
    spin = _golden_outputs("spin_static5", tmp_path / "spin")
    assert gate.check_count(spin) == 10 * 21 * 3  # pairs x grid points x theorems
    harm = _golden_outputs("harmonic_grid16_closed", tmp_path / "harm")
    assert gate.check_count(harm) == 4 * 256 * 255 * 21
