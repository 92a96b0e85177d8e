import json

import numpy as np
import pytest

from liebrob.cli import main
from liebrob.config import ConfigError, load_config, parse_config
from liebrob.operators import PAULI_X, PAULI_Y
from liebrob.runner import run_assumptions, run_verify_harmonic, run_verify_spin

from _helpers import CONFIG_DIR, commutator_norms


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def minimal_spin_config(n_sites=2, coupling=1.0, rate=0.0, t=1.0, points=5):
    hamiltonian = [{
        "sites": [0, 1],
        "operator": {"kron": ["pauli_x", "pauli_x"]},
        "strength": coupling,
    }]
    lindblad = []
    if rate > 0:
        lindblad = [{"sites": [i], "operator": {"name": "pauli_z"}, "rate": rate}
                    for i in range(n_sites)]
    return {
        "lattice": {"geometry": {"kind": "chain", "sides": [n_sites]},
                    "metric": "graph"},
        "eta": 1.0,
        "model": {"type": "spin", "hamiltonian": hamiltonian, "lindblad": lindblad},
        "time": {"t": t, "r_points": points},
        "observables": [
            {"name": "Z0", "sites": [0], "operator": {"name": "pauli_z"}},
            {"name": "Z1", "sites": [n_sites - 1], "operator": {"name": "pauli_z"}},
        ],
        "pairs": [["Z0", "Z1"]],
        "thresholds": {"epsilon": 0.01},
    }


SMALL_HARMONIC = {
    "lattice": {"geometry": {"kind": "chain", "sides": [4]}, "metric": "graph"},
    "eta": 3.0,
    "model": {"type": "harmonic", "a": {"identity": {}}, "b": {"identity": {}},
              "m": {"local_damping": {"rate": 0.2}}},
    "time": {"t": 1.0, "dt_points": 3},
    "thresholds": {"epsilon": 0.01},
}


class TestConfigParsing:
    def test_reference_configs_parse(self):
        spin = load_config(CONFIG_DIR / "spin_chain_xy.json")
        assert spin.spin_model is not None
        assert len(spin.pairs) == 10
        harmonic = load_config(CONFIG_DIR / "harmonic_chain.json")
        assert harmonic.harmonic_model is not None
        assert harmonic.harmonic_model.n_sites == 100

    def test_unknown_key_rejected_with_pointer(self):
        data = minimal_spin_config()
        data["model"]["hamiltonian"][0]["weight"] = 2.0
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert "/model/hamiltonian/0/weight" in str(err.value)

    def test_unknown_top_level_key_rejected(self):
        data = minimal_spin_config()
        data["plot"] = True
        with pytest.raises(ConfigError, match="/plot"):
            parse_config(data)

    def test_output_section_rejected(self, tmp_path):
        # --out names the output directory; a config has no output section
        data = minimal_spin_config()
        data["output"] = {"directory": "runs"}
        with pytest.raises(ConfigError, match="^/output: unknown key"):
            parse_config(data)
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify-spin", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_site_out_of_range_rejected(self):
        data = minimal_spin_config()
        data["observables"][0]["sites"] = [7]
        with pytest.raises(ConfigError, match="/observables/0/sites"):
            parse_config(data)

    def test_missing_required_key(self):
        data = minimal_spin_config()
        del data["lattice"]
        with pytest.raises(ConfigError, match="lattice"):
            parse_config(data)

    def test_complex_entries_as_pairs(self):
        data = minimal_spin_config()
        data["model"]["hamiltonian"][0]["sites"] = [0]
        data["model"]["hamiltonian"][0]["operator"] = {
            "matrix": [[0, [0, -1]], [[0, 1], 0]]
        }
        config = parse_config(data)
        term = config.spin_model.hamiltonian_terms[0]
        np.testing.assert_allclose(term.matrix, PAULI_Y)

    def test_non_finite_complex_entry_rejected(self):
        data = minimal_spin_config()
        data["model"]["hamiltonian"][0]["sites"] = [0]
        data["model"]["hamiltonian"][0]["operator"] = {
            "matrix": [[0, [0, float("inf")]], [[0, 1], 0]]
        }
        with pytest.raises(ConfigError, match="^/model/hamiltonian/0/operator/matrix/0/1:"
                                              " expected a finite number"):
            parse_config(data)

    def test_all_disjoint_pairs_resolve_to_triples(self):
        data = minimal_spin_config(n_sites=3)
        data["observables"].append(
            {"name": "ZZ12", "sites": [1, 2], "operator": {"kron": ["pauli_z", "pauli_z"]}})
        data["pairs"] = "all_disjoint"
        config = parse_config(data)
        assert [(ox.support, oy.support, d) for ox, oy, d in config.pairs] == [
            ((0,), (2,), 2.0), ((0,), (1, 2), 1.0)]

    def test_named_kron_factors(self):
        data = minimal_spin_config()
        config = parse_config(data)
        term = config.spin_model.hamiltonian_terms[0]
        np.testing.assert_allclose(term.matrix, np.kron(PAULI_X, PAULI_X))

    def test_sinusoidal_profile_parses(self):
        data = minimal_spin_config(rate=0.3)
        data["model"]["lindblad"][0]["profile"] = {
            "kind": "sinusoidal", "amplitude": 1.0, "omega": 2.0, "phase": 0.1,
        }
        config = parse_config(data)
        assert not config.spin_model.lindblad_terms[0].profile.is_constant

    def test_duplicate_observable_rejected(self):
        data = minimal_spin_config()
        data["observables"].append(
            {"name": "Z0", "sites": [1], "operator": {"name": "pauli_z"}})
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(data)

    def test_unknown_pair_name_rejected(self):
        data = minimal_spin_config()
        data["pairs"] = [["Z0", "nope"]]
        with pytest.raises(ConfigError, match="/pairs/0"):
            parse_config(data)

    def test_time_grid_needs_exactly_one_kind(self):
        data = minimal_spin_config()
        data["time"] = {"t": 1.0, "r_points": 3, "dt_points": 3}
        with pytest.raises(ConfigError, match="/time"):
            parse_config(data)

    def test_negative_rate_pointer(self):
        data = minimal_spin_config(rate=0.5)
        data["model"]["lindblad"][0]["rate"] = -0.5
        with pytest.raises(ConfigError, match="/model/lindblad/0/rate"):
            parse_config(data)

    def test_named_operator_requires_qubits(self):
        data = minimal_spin_config()
        data["model"]["dim_per_site"] = 3
        with pytest.raises(ConfigError, match="qubit"):
            parse_config(data)

    def test_json_syntax_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "lattice": {,}\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)


class TestHarmonicMatrixSpecs:
    def base(self):
        return {
            "lattice": {"geometry": {"kind": "chain", "sides": [4]},
                        "metric": "graph"},
            "eta": 3.0,
            "model": {"type": "harmonic", "a": None, "b": None, "m": None},
            "time": {"t": 1.0, "dt_points": 3},
        }

    def test_dense_banded_power_law_identity(self):
        data = self.base()
        data["model"]["a"] = {"banded": {"offsets": [0, 1], "values": [2.0, 0.5]}}
        data["model"]["b"] = {"identity": {"scale": 3.0}}
        data["model"]["m"] = {"zero": {}}
        config = parse_config(data)
        a = config.harmonic_model.a
        expected = 2.0 * np.eye(4) + 0.5 * (np.diag(np.ones(3), 1)
                                            + np.diag(np.ones(3), -1))
        np.testing.assert_allclose(a, expected)
        np.testing.assert_allclose(config.harmonic_model.b, 3.0 * np.eye(4))
        assert np.all(config.harmonic_model.m == 0)

    def test_power_law_spec(self):
        data = self.base()
        data["model"]["a"] = {"power_law": {"amplitude": 2.0, "eta": 2.0}}
        data["model"]["b"] = {"identity": {}}
        data["model"]["m"] = {"zero": {}}
        config = parse_config(data)
        lattice = config.lattice
        np.testing.assert_allclose(
            config.harmonic_model.a, 2.0 * (1.0 + lattice.dist) ** -2.0
        )

    def test_local_damping_spec(self):
        data = self.base()
        data["model"]["a"] = {"identity": {}}
        data["model"]["b"] = {"identity": {}}
        data["model"]["m"] = {"local_damping": {"rate": 0.5}}
        config = parse_config(data)
        m = config.harmonic_model.m
        amp = np.sqrt(0.25)
        np.testing.assert_allclose(m[:, :4], amp * np.eye(4))
        np.testing.assert_allclose(m[:, 4:], 1j * amp * np.eye(4))

    def test_dense_m_shape_enforced(self):
        data = self.base()
        data["model"]["a"] = {"identity": {}}
        data["model"]["b"] = {"identity": {}}
        data["model"]["m"] = {"dense": [[0.0] * 4] * 4}
        with pytest.raises(ConfigError, match="/model/m"):
            parse_config(data)


class TestRunners:
    def test_assumptions_two_site_chain(self, tmp_path):
        data = {
            "lattice": {"geometry": {"kind": "chain", "sides": [2]},
                        "metric": "graph"},
            "eta": 1.0,
        }
        payload = run_assumptions(parse_config(data), tmp_path)
        assert payload == {
            "eta": 1.0, "p0": 2.0, "extensivity_sup": 1.5,
            "n_lambda": 2.0, "p1": 4.0,
        }
        on_disk = json.loads((tmp_path / "constants.json").read_text())
        assert on_disk == payload

    def test_assumptions_single_site_has_note(self, tmp_path):
        data = {
            "lattice": {"geometry": {"kind": "chain", "sides": [1]},
                        "metric": "graph"},
            "eta": 2.0,
        }
        payload = run_assumptions(parse_config(data), tmp_path)
        assert payload["p0"] == 1.0
        assert "n_lambda" not in payload
        assert "note" in payload

    def test_assumptions_grid(self, tmp_path):
        data = {
            "lattice": {"geometry": {"kind": "grid", "sides": [3, 3]},
                        "metric": "manhattan"},
            "eta": 2.5,
        }
        payload = run_assumptions(parse_config(data), tmp_path)
        for key in ("p0", "extensivity_sup", "n_lambda", "p1"):
            assert np.isfinite(payload[key]) and payload[key] > 0

    def test_verify_spin_rhs_matches_bound_formulas(self, tmp_path):
        # independent recomputation of the certified RHS wiring: a single
        # pair coupling of strength 0.8 gives the term bound 1.6 and a
        # power-law fit of (1+1) * 1.6 = 3.2 at eta = 1
        import csv
        import math

        from liebrob.runner import SAFETY, run_lightcone

        data = minimal_spin_config(coupling=0.8, rate=0.0, t=1.0, points=3)
        config = parse_config(data)
        run_verify_spin(config, tmp_path)
        p0 = 2.0 * SAFETY
        lambda0 = 3.2 * SAFETY
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            dt = 1.0 - float(row["r"])
            expected1 = (2.0 / p0) * math.expm1(lambda0 * p0 * dt) / 2.0
            assert float(row["rhs1"]) == pytest.approx(expected1, rel=1e-12)
            # minimal p1 equals the rescaling factor times p0, so the
            # rescaled bound coincides with the first up to the safety
            # factor's cancellation inside p1 / n_lambda
            assert float(row["rhs2"]) == pytest.approx(expected1, rel=1e-10)
            kappa = 1.6
            expected3 = 2.0 * math.exp(kappa * dt) * math.sinh(kappa * kappa * dt)
            assert float(row["rhs3"]) == pytest.approx(expected3, rel=1e-10)

    def test_verify_harmonic_rhs_matches_bound_formula(self, tmp_path):
        import csv

        from liebrob import assumption_constants, c0_fit, theorem4_bound
        from liebrob.harmonic import growth_rate
        from liebrob.runner import SAFETY, run_lightcone

        data = {
            "lattice": {"geometry": {"kind": "chain", "sides": [5]},
                        "metric": "graph"},
            "eta": 2.5,
            "model": {
                "type": "harmonic",
                "a": {"power_law": {"amplitude": 0.7, "eta": 2.5}},
                "b": {"identity": {}},
                "m": {"local_damping": {"rate": 0.3}},
            },
            "time": {"t": 1.0, "dt_points": 3},
        }
        config = parse_config(data)
        summary = run_verify_harmonic(config, tmp_path)
        p0 = assumption_constants(config.lattice, 2.5).p0 * SAFETY
        c0 = c0_fit(config.harmonic_model, 2.5) * SAFETY
        assert summary["growth_rate"] == growth_rate(c0, p0)  # the bound's own rate
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            expected = theorem4_bound(c0, p0, 2.5, float(row["dt"]),
                                      float(row["distance"]))
            assert float(row["rhs"]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("rhs_scale", [1.0, 1e-24])
    def test_verify_harmonic_rows_match_mask_loop_oracle(self, tmp_path, monkeypatch,
                                                         rhs_scale):
        # The per-distance reduction, one boolean mask per distance, kind and
        # grid point, on a random power-law model on a grid with tied and
        # irrational distances. The bound is loose by a factor above 1e11
        # here; scaled down by 1e-24 it fails on part of the pairs.
        import csv
        import math

        from liebrob import assumption_constants, harmonic, lightcone_arrivals
        from liebrob.bounds import VIOLATION_TOLERANCE
        from liebrob.config import RunConfig, TimeGrid
        from liebrob.harmonic import HarmonicModel
        from liebrob.lattice import build_lattice
        from liebrob.runner import SAFETY, run_lightcone

        rng = np.random.default_rng(71)
        lattice = build_lattice((3, 4), "euclidean")
        n = lattice.n_sites
        decay = (1.0 + lattice.dist) ** -3.0
        a = rng.uniform(0.5, 1.0, (n, n))
        b = rng.uniform(0.5, 1.0, (n, n))
        m = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
        model = HarmonicModel(lattice=lattice, a=(a + a.T) * decay, b=(b + b.T) * decay,
                              m=0.3 * m * np.hstack([decay, decay]))
        config = RunConfig(lattice=lattice, eta=3.0, harmonic_model=model,
                           time=TimeGrid(t=1.5, points=7, kind="dt"))
        bound = harmonic.theorem4_bound
        monkeypatch.setattr(harmonic, "theorem4_bound",
                            lambda *args: rhs_scale * bound(*args))
        summary = run_verify_harmonic(config, tmp_path)

        p0 = assumption_constants(lattice, 3.0).p0 * SAFETY
        c0 = harmonic.c0_fit(model, 3.0) * SAFETY
        dist = lattice.dist
        off = ~np.eye(n, dtype=bool)
        kernel = harmonic.build_kernel(model)
        norms = commutator_norms(kernel, 1.5, 7)
        expected, per_kind, field = [], {}, {}
        for k, (dt, values) in enumerate(norms):
            blocks = {"QQ": values[:n, :n], "QP": values[:n, n:],
                      "PQ": values[n:, :n], "PP": values[n:, n:]}
            for kind, lhs in blocks.items():
                for d in np.unique(dist[off]):
                    mask = (dist == d) & off
                    lhs_max = float(lhs[mask].max())
                    rhs = float(rhs_scale * bound(c0, p0, 3.0, dt, d))
                    slack = math.inf if lhs_max == 0.0 else rhs / lhs_max
                    cell = int((lhs[mask] > rhs * (1.0 + VIOLATION_TOLERANCE)).sum())
                    per_kind[kind] = per_kind.get(kind, 0) + cell
                    curve = field.setdefault(float(d), [0.0] * len(norms))
                    curve[k] = max(curve[k], lhs_max)
                    expected.append([repr(float(d)), kind, repr(dt), repr(lhs_max),
                                     repr(rhs), repr(slack), str(cell)])
        with open(tmp_path / "report.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == expected
        assert summary["violations"] == per_kind
        total = sum(per_kind.values())
        assert summary["violation_count"] == total
        assert (total == 0) == (rhs_scale == 1.0)
        assert total < 4 * n * (n - 1) * 7
        arrivals = [{"distance": d, "arrival": t}
                    for d, t in lightcone_arrivals([dt for dt, _ in norms], field,
                                                       config.epsilon)]
        assert arrivals and summary["lightcone"] == arrivals
        assert run_lightcone(config, tmp_path / "lightcone")["lightcone"] == arrivals

    @pytest.mark.parametrize("t, rhs1_scale", [(1.5, 1.0), (1.5, 1e-24), (60.0, 1.0)])
    def test_verify_spin_rows_match_scalar_oracle(self, tmp_path, monkeypatch, t,
                                                 rhs1_scale):
        # A random 4-site long-range model with one 2-site observable (its
        # rhs3 cells stay blank). Scaled down by 1e-24 the Theorem-1 bound
        # fails on part of the grid; at t = 60 the early RHS cells overflow.
        import csv
        import math

        from liebrob import bounds
        from liebrob.config import RunConfig, TimeGrid
        from liebrob.lattice import build_lattice
        from liebrob.lindblad import GKSLModel, HamiltonianTerm, LindbladTerm
        from liebrob.operators import PAULI_Z, local_operator, support_distance

        from _helpers import random_hermitian, spin_report_oracle

        rng = np.random.default_rng(83)
        lattice = build_lattice(4)
        h_terms = [HamiltonianTerm(support=(x, y), matrix=random_hermitian(rng, 4)
                                   / (1.0 + lattice.dist[x, y]) ** 2)
                   for x in range(4) for y in range(x + 1, 4)]
        h_terms += [HamiltonianTerm(support=(x,), matrix=random_hermitian(rng, 2))
                    for x in range(4)]
        l_terms = [LindbladTerm(support=(x,), matrix=PAULI_Z, rate=0.3) for x in range(4)]
        model = GKSLModel(lattice=lattice, hamiltonian_terms=tuple(h_terms),
                          lindblad_terms=tuple(l_terms))
        a01 = local_operator(random_hermitian(rng, 4), (0, 1))
        x0 = local_operator(random_hermitian(rng, 2), (0,))
        z2, z3 = local_operator(PAULI_Z, (2,)), local_operator(PAULI_Z, (3,))
        pairs = [(a01, z3), (x0, z2), (x0, z3), (z3, x0)]
        config = RunConfig(lattice=lattice, eta=2.0, spin_model=model,
                           time=TimeGrid(t=t, points=13, kind="r"),
                           pairs=[(ox, oy, support_distance(ox.support, oy.support,
                                                            lattice))
                                  for ox, oy in pairs])
        bound = bounds.theorem1_bound
        monkeypatch.setattr(bounds, "theorem1_bound",
                            lambda *args: rhs1_scale * bound(*args))
        summary = run_verify_spin(config, tmp_path)
        expected_rows, expected = spin_report_oracle(config, rhs1_scale)

        def close(a, b):
            return a == b or (math.isfinite(a) and math.isfinite(b)
                              and abs(a - b) <= 1e-12 * max(abs(a), abs(b)))

        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(expected_rows) == 4 * 13
        for row, want in zip(rows, expected_rows):
            assert row[:2] == [";".join(map(str, want[0])), ";".join(map(str, want[1]))]
            for cell, value in zip(row[2:12], want[2:12]):
                assert (cell == "") == (value is None)
                assert value is None or close(float(cell), value), (cell, value)
            assert row[12] == want[12]
        assert summary["violations"] == expected["violations"]
        assert summary["violation_count"] == sum(expected["violations"].values())
        assert summary["rhs_overflow"] == expected["rhs_overflow"]
        for key in ("max_slack", "min_slack"):
            for name, value in expected[key].items():
                assert close(summary[key][name], value), (key, name)
        assert (summary["violations"]["thm1"] > 0) == (rhs1_scale != 1.0)
        assert (summary["rhs_overflow"] > 0) == (t > 10.0)
        assert all(row[8] == "" for row in rows[:13])  # 2-site X: no Theorem 3

    def test_verify_spin_interaction_free_model(self, tmp_path):
        data = minimal_spin_config(coupling=0.0, rate=0.4)
        data["model"]["hamiltonian"] = []
        config = parse_config(data)
        summary = run_verify_spin(config, tmp_path)
        assert summary["violation_count"] == 0
        assert summary["lambda0"] == 0.0
        rows = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 5  # header + one pair over five grid points
        # the LHS vanishes everywhere, so no slack is finite: strict JSON, nulls
        written = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert written["min_slack"] == written["max_slack"] == dict.fromkeys(
            ("thm1", "thm2", "thm3"))


class TestCli:
    def test_invalid_config_exits_one_without_partial_output(self, tmp_path):
        path = write_config(tmp_path, {"eta": 1.0})
        out = tmp_path / "out"
        assert main(["assumptions", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_nonpositive_eta_rejected(self, tmp_path):
        data = minimal_spin_config()
        data["eta"] = 0.0
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify-spin", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["assumptions", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    def test_usage_error_exits_one(self, capsys, tmp_path):
        assert main(["verify-spin"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: liebrob verify-spin")
        assert ("liebrob verify-spin: error: the following arguments are required:"
                " --config, --out") in err
        path = write_config(tmp_path, minimal_spin_config())
        assert main(["verify-spin", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == 1
        assert main(["assumptions", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--guard-dim", "8"]) == 1
        assert not (tmp_path / "out").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("case", ["out-is-a-file", "out-under-a-file",
                                      "config-is-a-directory"])
    def test_path_errors_exit_one_without_traceback(self, tmp_path, case):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import liebrob

        config, out = write_config(tmp_path, minimal_spin_config()), tmp_path / "out"
        if case == "config-is-a-directory":
            config = tmp_path
        else:
            out.write_text("")
            out = out / "sub" if case == "out-under-a-file" else out
        env = dict(os.environ, PYTHONPATH=str(Path(liebrob.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "liebrob.cli", "assumptions",
                               "--config", str(config), "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("under_a_file", [False, True])
    def test_out_is_checked_before_the_run(self, tmp_path, capsys, monkeypatch,
                                           under_a_file):
        import liebrob.runner

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(liebrob.runner, "commutator_norm_curves", no_sweep)
        out = tmp_path / "out"
        out.write_text("")
        out = out / "sub" if under_a_file else out
        assert main(["verify-spin", "--config", str(CONFIG_DIR / "spin_chain_xy.json"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out") and "Traceback" not in err

    @pytest.mark.parametrize("case, pointer", [
        ("time-t", "/time/t"),
        ("lindblad-rate", "/model/lindblad/0/rate"),
        ("local-damping-rate", "/model/m/local_damping/rate"),
        ("epsilon", "/thresholds/epsilon"),
        ("integer-beyond-float", "/time/t"),
    ])
    def test_non_finite_number_exits_one_at_its_pointer(self, tmp_path, capsys, case,
                                                        pointer):
        # Python's json reads NaN and Infinity, json.dumps writes them back;
        # an integer literal beyond the float range is infinite too
        command, data = "verify-spin", minimal_spin_config(rate=0.5)
        if case == "time-t":
            data["time"]["t"] = float("inf")
        elif case == "lindblad-rate":
            data["model"]["lindblad"][0]["rate"] = float("inf")
        elif case == "epsilon":
            data["thresholds"]["epsilon"] = float("nan")
        elif case == "integer-beyond-float":
            data["time"]["t"] = 10**400
        else:
            command, data = "verify-harmonic", {
                "lattice": {"geometry": {"kind": "chain", "sides": [4]},
                            "metric": "graph"},
                "eta": 3.0,
                "model": {"type": "harmonic", "a": {"identity": {}},
                          "b": {"identity": {}},
                          "m": {"local_damping": {"rate": float("nan")}}},
                "time": {"t": 1.0, "dt_points": 3},
            }
        path = write_config(tmp_path, data)
        assert any(text in path.read_text() for text in ("Infinity", "NaN", "0" * 400))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{pointer}: expected a finite number" in err
        assert "Traceback" not in err

    def test_overlapping_pair_exits_one_at_its_pointer(self, tmp_path, capsys):
        data = minimal_spin_config(n_sites=3)
        data["observables"].append(
            {"name": "ZZ12", "sites": [1, 2], "operator": {"kron": ["pauli_z", "pauli_z"]}})
        data["pairs"] = [["Z0", "Z1"], ["Z0", "ZZ12"], ["ZZ12", "Z1"]]
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify-spin", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "/pairs/2: 'ZZ12' and 'Z1' have overlapping supports" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, model, name", [
        ("assumptions", "spin", "constants.json"),
        ("verify-spin", "spin", "summary.json"),
        ("verify-spin", "spin", "lightcone.csv"),
        ("verify-harmonic", "harmonic", "report.csv"),
        ("verify-harmonic", "harmonic", "lightcone.csv"),
        ("lightcone", "spin", "lightcone.csv"),
        ("lightcone", "harmonic", "lightcone.csv"),
    ])
    def test_directory_in_place_of_an_output_leaves_no_partial_output(
            self, tmp_path, capsys, command, model, name):
        # every target is checked before the first file is written
        data = minimal_spin_config(rate=0.3) if model == "spin" else SMALL_HARMONIC
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]
        assert [p.name for p in out.iterdir()] == [name]
        assert not any((out / name).iterdir())

    @pytest.mark.parametrize("strength", [1e308, 1e12])
    def test_huge_step_norm_exits_one_with_one_line(self, tmp_path, strength):
        # one huge but finite coupling: the Taylor kernel would need about
        # norm / 9.9 sums per step, so the step is refused instead
        import os
        import subprocess
        import sys
        from pathlib import Path

        import liebrob

        data = json.loads((CONFIG_DIR / "spin_chain_xy.json").read_text())
        data["model"]["hamiltonian"][0]["strength"] = strength
        path, out = write_config(tmp_path, data), tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(liebrob.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "liebrob.cli", "verify-spin",
                               "--config", str(path), "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
        assert f"1-norm {0.2 * strength:.6g}" in lines[0]  # 2 strength x the 0.1 step
        assert not out.exists()

    def test_assumptions_roundtrip(self, tmp_path):
        path = write_config(tmp_path, minimal_spin_config())
        out = tmp_path / "out"
        assert main(["assumptions", "--config", str(path), "--out", str(out)]) == 0
        constants = json.loads((out / "constants.json").read_text())
        assert constants["p0"] == 2.0

    def test_verify_spin_clean_run_and_determinism(self, tmp_path):
        path = write_config(tmp_path, minimal_spin_config(coupling=0.8, rate=0.3))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify-spin", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["verify-spin", "--config", str(path), "--out", str(out2)]) == 0
        for name in ("report.csv", "summary.json", "lightcone.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert json.loads((out1 / "summary.json").read_text())["rhs_overflow"] == 0

    def test_weak_coupling_pairwise_bound_fails_and_exits_two(self, tmp_path, capsys):
        # kappa < 1 breaks the power-series step behind the matrix-exponential
        # bound; the certifier must surface that as flagged violations
        path = write_config(tmp_path, minimal_spin_config(coupling=0.15, t=0.5,
                                                          points=6))
        out = tmp_path / "out"
        assert main(["verify-spin", "--config", str(path), "--out", str(out)]) == 2
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kappa_below_one"]
        assert summary["violations"]["thm3"] > 0
        assert summary["violations"]["thm1"] == 0
        assert summary["violations"]["thm2"] == 0

    @pytest.mark.parametrize("command", ["verify-spin", "lightcone"])
    def test_guard_dim_flag(self, tmp_path, capsys, command):
        data = minimal_spin_config(n_sites=4, coupling=0.5)
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out),
                     "--guard-dim", "8"]) == 1
        err = capsys.readouterr().err  # the refusal names the CLI flag
        assert "Hilbert dimension 16 exceeds the guard 8; raise --guard-dim" in err
        assert main([command, "--config", str(path), "--out", str(out),
                     "--guard-dim", "16"]) == 0

    @pytest.mark.parametrize("command", ["verify-spin", "lightcone"])
    def test_memory_guard_exits_one(self, tmp_path, capsys, monkeypatch, command):
        # 16 free pages of 4 KiB cannot hold a 4-qubit sweep: exit 1, no output,
        # and the message names the estimate and the available bytes
        import os

        real = os.sysconf
        fake = {"SC_AVPHYS_PAGES": 16, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name, real(name)))
        path = write_config(tmp_path, minimal_spin_config(n_sites=4, coupling=0.5))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "needs an estimated" in err and "but only 65536 bytes" in err
        assert "Traceback" not in err
        monkeypatch.setattr(os, "sysconf", real)
        assert main([command, "--config", str(path), "--out", str(out)]) == 0

    def test_lightcone_subcommand(self, tmp_path):
        path = write_config(tmp_path, minimal_spin_config(coupling=1.0, rate=0.2))
        out = tmp_path / "out"
        assert main(["lightcone", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "lightcone.csv").read_text().strip().splitlines()
        assert lines[0] == "distance,arrival"
        assert len(lines) >= 2

    def test_verify_harmonic_small_chain(self, tmp_path):
        data = {
            "lattice": {"geometry": {"kind": "chain", "sides": [6]},
                        "metric": "graph"},
            "eta": 3.0,
            "model": {
                "type": "harmonic",
                "a": {"power_law": {"amplitude": 1.0, "eta": 3.0}},
                "b": {"identity": {}},
                "m": {"local_damping": {"rate": 0.2}},
            },
            "time": {"t": 1.0, "dt_points": 5},
        }
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify-harmonic", "--config", str(path),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violation_count"] == 0
        assert "x = y" in summary["note"]

    def test_wrong_model_type_for_command(self, tmp_path):
        path = write_config(tmp_path, minimal_spin_config())
        assert main(["verify-harmonic", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1

    def test_closed_harmonic_chain_reports_symplecticity(self, tmp_path):
        data = {
            "lattice": {"geometry": {"kind": "chain", "sides": [8]},
                        "metric": "graph"},
            "eta": 3.0,
            "model": {
                "type": "harmonic",
                "a": {"banded": {"offsets": [0, 1], "values": [1.0, 0.3]}},
                "b": {"identity": {}},
                "m": {"zero": {}},
            },
            "time": {"t": 2.0, "dt_points": 5},
        }
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify-harmonic", "--config", str(path),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["symplectic_defect"] is not None
        assert summary["symplectic_defect"] < 1e-9

    def test_closed_harmonic_run_takes_one_exponential_and_one_pass(self, tmp_path,
                                                                    monkeypatch):
        # the symplectic defect reads the sweep's own products: no second
        # stepping pass and no second exponential
        from liebrob import harmonic

        calls = {"matrix_exp": 0, "stepped_products": 0}

        def counted(name):
            fn = getattr(harmonic, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(harmonic, name, counted(name))
        config = load_config(write_config(tmp_path, {
            "lattice": {"geometry": {"kind": "grid", "sides": [3, 3]},
                        "metric": "graph"},
            "eta": 3.0,
            "model": {"type": "harmonic", "a": {"power_law": {"amplitude": 0.5,
                                                              "eta": 3.0}},
                      "b": {"identity": {}}, "m": {"zero": {}}},
            "time": {"t": 2.0, "dt_points": 9},
        }))
        summary = run_verify_harmonic(config, tmp_path / "out")
        assert calls == {"matrix_exp": 1, "stepped_products": 1}
        monkeypatch.undo()
        kernel = harmonic.build_kernel(config.harmonic_model)
        defects = [harmonic.symplectic_defect(product)
                   for _, product in harmonic.stepped_products(kernel, 2.0, 9)]
        assert summary["symplectic_defect"] == max(defects) < 1e-12

    def test_harmonic_eta_at_or_below_dimension_is_flagged(self, tmp_path, capsys):
        data = {
            "lattice": {"geometry": {"kind": "chain", "sides": [6]},
                        "metric": "graph"},
            "eta": 0.8,
            "model": {
                "type": "harmonic",
                "a": {"identity": {}},
                "b": {"identity": {}},
                "m": {"zero": {}},
            },
            "time": {"t": 1.0, "dt_points": 3},
        }
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify-harmonic", "--config", str(path),
                     "--out", str(out)]) == 0
        assert "warning" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["eta_above_lattice_dimension"] is False

    def test_overflowing_harmonic_rhs_is_vacuous(self, tmp_path):
        data = {
            "lattice": {"geometry": {"kind": "chain", "sides": [20]},
                        "metric": "graph"},
            "eta": 3.0,
            "model": {
                "type": "harmonic",
                "a": {"power_law": {"amplitude": 0.98, "eta": 3.0}},
                "b": {"identity": {"scale": 0.98}},
                "m": {"local_damping": {"rate": 0.1}},
            },
            "time": {"t": 40.0, "dt_points": 21},
        }
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify-harmonic", "--config", str(path),
                     "--out", str(out)]) == 0
        rhs = [line.split(",")[4]
               for line in (out / "report.csv").read_text().splitlines()[1:]]
        assert "inf" in rhs and rhs[0] != "inf"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violation_count"] == 0
        assert summary["rhs_overflow"] == rhs.count("inf") > 0

    def test_overflowing_spin_rhs_is_vacuous(self, tmp_path, capsys):
        # XX+YY chain at t = 200: e^{v dt} and e^{kappa J dt} leave the float
        # range at the early grid points, the dissipative LHS stays bounded
        import csv
        import math

        data = minimal_spin_config(rate=0.5, t=200.0, points=21)
        data["model"]["hamiltonian"].append(
            {"sites": [0, 1], "operator": {"kron": ["pauli_y", "pauli_y"]}})
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify-spin", "--config", str(path), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        for name in ("report.csv", "summary.json", "lightcone.csv"):
            assert (out / name).is_file()
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21
        for name in ("rhs1", "rhs2", "rhs3"):
            cells = [row[name] for row in rows]
            assert cells[0] == "inf" and cells[-1] == "0.0"
            assert all(c == "inf" or math.isfinite(float(c)) for c in cells)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violation_count"] == 0
        assert summary["rhs_overflow"] == sum(
            row[name] == "inf" for row in rows for name in ("rhs1", "rhs2", "rhs3")) > 0

    @pytest.mark.parametrize("command", ["assumptions", "verify-spin"])
    def test_underflowing_decay_kernel_exits_one(self, tmp_path, capsys, command):
        # eta = 800 on a 5-site chain: the off-site kernel underflows to 0, so
        # p0 = max (k @ k) / k is 0/0
        data = minimal_spin_config(n_sites=5)
        data["eta"] = 800.0
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "p0 is nan at eta = 800.0" in err
        assert "Traceback" not in err and "JSON" not in err

    @pytest.mark.parametrize("command", ["verify-harmonic", "lightcone"])
    def test_overflowing_harmonic_lhs_exits_one(self, tmp_path, capsys, command):
        # inverted oscillators: S has eigenvalues +-1, e^{S dt} passes the
        # float range around dt = 710 while each step e^{100 S} is finite
        data = {
            "lattice": {"geometry": {"kind": "chain", "sides": [2]},
                        "metric": "graph"},
            "eta": 2.0,
            "model": {
                "type": "harmonic",
                "a": {"identity": {}},
                "b": {"identity": {"scale": -1.0}},
                "m": {"zero": {}},
            },
            "time": {"t": 1000.0, "dt_points": 11},
        }
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "/time/t" in err and "t = 1000.0" in err
        assert "Traceback" not in err

    def test_non_finite_generator_exits_one_with_one_line(self, tmp_path):
        # 1e308 + 1e308 on the first bond overflows the effective matrix; the
        # build refuses it before the sweep, with no warning on stderr
        import os
        import subprocess
        import sys
        from pathlib import Path

        import liebrob

        data = json.loads((CONFIG_DIR / "spin_chain_xy.json").read_text())
        for term in data["model"]["hamiltonian"][:3]:
            term["strength"] = 1e308
        path, out = write_config(tmp_path, data), tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(liebrob.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "liebrob.cli", "verify-spin",
                               "--config", str(path), "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            f"error: {path}: the spin generator has non-finite entries"]
        assert not out.exists()

    @pytest.mark.parametrize("case", ["spin-r-points", "harmonic-dt-points",
                                      "harmonic-sides"])
    def test_out_of_memory_exits_one_with_one_line(self, tmp_path, case):
        # each config asks numpy for 6.7 GiB or more: 74.5 GiB of LHS curves,
        # a 7.45 GiB dt grid, a 6.7 GiB distance build while the config loads
        import os
        import resource
        import subprocess
        import sys
        from pathlib import Path

        import liebrob

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        if case == "spin-r-points":
            command = "verify-spin"
            data = json.loads((CONFIG_DIR / "spin_chain_xy.json").read_text())
            data["time"]["r_points"] = 10**9
        else:
            command = "verify-harmonic"
            data = json.loads((CONFIG_DIR / "harmonic_chain.json").read_text())
            if case == "harmonic-dt-points":
                data["time"]["dt_points"] = 10**9
            else:
                data["lattice"]["geometry"]["sides"] = [30000]
        path, out = write_config(tmp_path, data), tmp_path / "out"
        # one BLAS thread: per-thread buffers must not eat the address space
        env = dict(os.environ, PYTHONPATH=str(Path(liebrob.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-m", "liebrob.cli", command,
                               "--config", str(path), "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=60,
                              preexec_fn=limit_address_space)
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
        assert "Unable to allocate" in lines[0] and "Traceback" not in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify-spin", "lightcone", "assumptions"])
    def test_overflowing_profile_phase_exits_one_before_the_build(
            self, tmp_path, capsys, monkeypatch, command):
        # omega t = 2e308 is beyond the float range, so sin(omega t + phase)
        # has no value; the config is refused before any generator is built
        from liebrob import lindblad

        def no_build(*args, **kwargs):
            raise AssertionError("the generator was built")

        monkeypatch.setattr(lindblad, "_superop_pieces", no_build)
        data = json.loads((CONFIG_DIR / "spin_chain_xy.json").read_text())
        data["model"]["hamiltonian"][0]["profile"] = {
            "kind": "sinusoidal", "amplitude": 1.0, "omega": 1e308}
        path, out = write_config(tmp_path, data), tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: {path}: /model/hamiltonian/0/profile/omega: ")
        assert f"t = {data['time']['t']!r}" in err[0]
        assert not out.exists()

    def test_verify_spin_takes_one_theorem3_stack(self, tmp_path, monkeypatch):
        # every single-site pair reads its Theorem-3 RHS from one e^{kappa J dt}
        # stack over the run's dt grid
        from liebrob import bounds

        calls = []
        stack = bounds.theorem3_matrix

        def counted(*args):
            calls.append(args)
            return stack(*args)

        monkeypatch.setattr(bounds, "theorem3_matrix", counted)
        out = tmp_path / "out"
        assert main(["verify-spin", "--config", str(CONFIG_DIR / "spin_chain_xy.json"),
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["theorem3_applicable"] and summary["rows"] == 10 * 21
