"""The pure comparisons of tools/reference_runs.py, the same-behaviour check."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "reference_runs.py"
_SPEC = importlib.util.spec_from_file_location("reference_runs", _PATH)
reference_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference_runs)


def _csv(*rows):
    return "".join(",".join(row) + "\r\n" for row in rows).encode()


def test_columns_of_csv_and_json():
    data = _csv(("d", "lhs", "flags"), ("1.0", "0.5", ""), ("2.0", "0.25", "thm1"))
    assert reference_runs.columns("report.csv", data) == {
        "d": ["1.0", "2.0"], "lhs": ["0.5", "0.25"], "flags": ["", "thm1"]}
    payload = {"eta": 2.0, "lightcone": [{"distance": 1.0, "arrival": 0.5},
                                         {"distance": 2.0, "arrival": 0.75}]}
    assert reference_runs.columns("summary.json", json.dumps(payload).encode()) == {
        "eta": [2.0], "lightcone[].distance": [1.0, 2.0],
        "lightcone[].arrival": [0.5, 0.75]}


def test_float_column_difference_is_column_relative():
    a = _csv(("d", "lhs", "flags"), ("1", "2.0", ""), ("2", "0.5", "thm1"))
    b = _csv(("d", "lhs", "flags"), ("1", "2.0000000000002", ""), ("2", "0.5", "thm1"))
    line = reference_runs.file_difference("out/report.csv", a, b)
    prefix = "out/report.csv: column-relative differences lhs "
    suffix = "; other fields equal"
    assert line.startswith(prefix) and line.endswith(suffix)
    # 2e-13 over the column's largest magnitude, 2
    assert float(line[len(prefix):-len(suffix)]) == pytest.approx(1e-13, rel=1e-3)


def test_differing_text_cell_is_reported():
    a = _csv(("d", "lhs", "flags"), ("1", "2.0", ""), ("2", "0.5", "thm1"))
    b = _csv(("d", "lhs", "flags"), ("1", "2.0", ""), ("2", "0.5", "thm2"))
    assert reference_runs.file_difference("out/report.csv", a, b) == (
        "out/report.csv: column-relative differences none; other fields differ")


def test_json_float_leaf_is_reported_under_its_key_path():
    payload = {"eta": 2.0, "violations": {"thm1": 0},
               "lightcone": [{"distance": 1.0, "arrival": 0.5},
                             {"distance": 2.0, "arrival": 1.0}]}
    changed = json.loads(json.dumps(payload))
    changed["lightcone"][0]["arrival"] = 0.75
    line = reference_runs.file_difference("out/summary.json",
                                          json.dumps(payload).encode(),
                                          json.dumps(changed).encode())
    # 0.25 over the largest arrival, 1.0
    assert line == ("out/summary.json: column-relative differences"
                    " lightcone[].arrival 0.25; other fields equal")


def test_reference_runs_include_the_edge_case_configs():
    # every edge-case config is run under its verify command and assumptions,
    # after the shipped configs and the benchmark's kept ones
    from liebrob.config import load_config

    runs = reference_runs.reference_runs()
    edge = sorted((reference_runs.ROOT / "tools" / "reference_configs").glob("*.json"))
    assert len(edge) == 5 and len(runs) == 22
    assert [config for _, config in runs[-2 * len(edge):]] == [
        config for config in edge for _ in range(2)]
    for command, config in runs[-2 * len(edge):]:
        parsed = load_config(config)
        assert command in ("assumptions", "verify-spin" if parsed.spin_model
                           else "verify-harmonic")
