"""Acceptance suite: one test per release criterion, one printed line each.

Criterion 10 is warning-level by design: a monotonicity failure prints a WARN
line and raises a warning instead of failing the suite.
"""

import time
import warnings

import numpy as np
import pytest

from liebrob import (
    GKSLModel,
    HamiltonianTerm,
    HarmonicModel,
    JMatrix,
    LindbladTerm,
    TimeProfile,
    build_kernel,
    build_lattice,
    assumption_constants,
    matrix_exp,
    symplectic_form,
    theorem3_bound,
    theorem3_matrix,
)
from liebrob.config import load_config
from liebrob.operators import (
    LOWERING,
    PAULI_X,
    PAULI_Z,
    embed,
    unvec,
    vec,
)
from liebrob.runner import run_verify_harmonic, run_verify_spin

from _helpers import (
    CONFIG_DIR,
    c2_path_sum,
    c3_path_sum,
    commutator_norms,
    evolve,
    generator,
    random_density_matrix,
    random_hermitian,
    random_matrix,
    random_model,
)


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def spin_reference(tmp_path_factory):
    started = time.monotonic()
    config = load_config(CONFIG_DIR / "spin_chain_xy.json")
    summary = run_verify_spin(config, tmp_path_factory.mktemp("spin_ref"))
    return summary, time.monotonic() - started


def test_01_spin_soundness_sweep(spin_reference):
    summary, elapsed = spin_reference
    assert summary["rows"] == 10 * 21
    assert summary["violation_count"] == 0, summary["violations"]
    assert elapsed < 60.0, f"reference spin run took {elapsed:.1f}s"
    report(1, "spin soundness sweep (thms 1-3)",
           f"210 grid points, 0 violations, {elapsed:.1f}s")


def test_02_harmonic_soundness_sweep(tmp_path):
    started = time.monotonic()
    config = load_config(CONFIG_DIR / "harmonic_chain.json")
    summary = run_verify_harmonic(config, tmp_path)
    elapsed = time.monotonic() - started
    assert summary["sites"] == 100
    assert summary["violation_count"] == 0, summary["violations"]
    assert elapsed < 30.0, f"reference harmonic run took {elapsed:.1f}s"
    report(2, "harmonic soundness sweep (thm 4)",
           f"100 sites, 21 dt points, 0 violations, {elapsed:.1f}s")


def test_03_duality_identity_time_dependent():
    rng = np.random.default_rng(1003)
    s, t, steps = 0.2, 1.1, 96
    worst = 0.0
    for _ in range(5):
        model = random_model(rng, n_sites=3, time_dependent=True)
        rhos, ops = map(np.array, zip(*[(random_density_matrix(rng, 8),
                                         random_matrix(rng, 8)) for _ in range(20)]))
        # forward by the dense oracle, backward by the package's sweep
        rhos_t = evolve(model, rhos, s, t, adjoint=False, steps=steps)
        ops_s = evolve(model, ops, s, t, adjoint=True, steps=steps)
        for rho, a, rho_t, a_s in zip(rhos, ops, rhos_t, ops_s):
            worst = max(worst, abs(np.trace(rho_t @ a) - np.trace(rho @ a_s)))
    assert worst <= 1e-8, worst
    report(3, "Schrodinger/Heisenberg duality", f"100 pairs, worst {worst:.2e}")


def test_04_structural_generator_checks():
    rng = np.random.default_rng(1004)
    worst_trace = worst_unital = worst_herm = 0.0
    for k in range(50):
        model = random_model(rng, n_sites=2, time_dependent=bool(k % 2))
        when = float(rng.uniform(0.0, 2.0))
        gen = generator(model, when)
        adj = generator(model, when, adjoint=True)
        dim = model.hilbert_dim
        rho = random_density_matrix(rng, dim)
        worst_trace = max(worst_trace, abs(np.trace(unvec(gen @ vec(rho), dim))))
        worst_unital = max(
            worst_unital, np.abs(adj @ vec(np.eye(dim, dtype=complex))).max()
        )
        a = embed(random_hermitian(rng, 2), (0,), model.lattice)
        evolved = evolve(model, a, 0.1, 0.8, adjoint=True, steps=64)
        worst_herm = max(worst_herm, np.abs(evolved - evolved.conj().T).max())
    assert worst_trace <= 1e-10
    assert worst_unital <= 1e-10
    assert worst_herm <= 1e-10
    report(4, "structural generator checks",
           f"trace {worst_trace:.1e}, unital {worst_unital:.1e},"
           f" herm {worst_herm:.1e}")


def test_05_closed_form_oracles():
    # dephasing decay of pauli_x
    gamma, r, t = 0.6, 0.4, 1.9
    lattice = build_lattice(1)
    dephasing = GKSLModel(
        lattice=lattice,
        lindblad_terms=(LindbladTerm(support=(0,), matrix=PAULI_Z, rate=gamma),),
    )
    out = evolve(dephasing, PAULI_X, r, t, adjoint=True)
    expected = np.exp(-2.0 * gamma * (t - r))
    rel = abs(out[0, 1].real - expected) / expected
    assert rel <= 1e-8

    # amplitude-damping population of |1>, <1| tau*(|1><1|) |1> by duality
    damping = GKSLModel(
        lattice=lattice,
        lindblad_terms=(LindbladTerm(support=(0,), matrix=LOWERING, rate=1.0),),
    )
    out = evolve(damping, np.diag([0.0, 1.0]).astype(complex), 0.0, 1.0, adjoint=True)
    rel_pop = abs(out[1, 1].real - np.exp(-1.0)) / np.exp(-1.0)
    assert rel_pop <= 1e-8

    # harmonic oscillator commutator rotation
    oscillator = HarmonicModel(lattice=lattice, a=np.array([[1.0]]),
                               b=np.array([[1.0]]), m=np.zeros((1, 2)))
    kernel = build_kernel(oscillator)
    worst_osc = max(
        abs(commutator_norms(kernel, dt, 2)[-1][1][0, 0] - abs(np.sin(dt)))
        for dt in (0.3, 0.9, 1.7, 2.4)
    )
    assert worst_osc <= 1e-9

    # two-site matrix-exponential bound closed form
    a, dt = 0.8, 1.1
    jm = JMatrix(matrix=np.array([[1.0, a], [a, 1.0]]), kappa=a,
                 onsite_excluded=False)
    value = theorem3_bound(theorem3_matrix(jm, dt), 1.0, 1.0, 0, 1)
    closed = np.exp(a * dt) * np.sinh(a * a * dt)
    rel3 = abs(value - closed) / closed
    assert rel3 <= 1e-10
    report(5, "closed-form oracles",
           f"dephasing {rel:.1e}, damping {rel_pop:.1e}, oscillator"
           f" {worst_osc:.1e}, pairwise {rel3:.1e}")


def test_06_lattice_constants():
    chain2 = build_lattice(2)
    assert assumption_constants(chain2, 1.0).p0 == 2.0
    for eta in (0.5, 1.0, 2.0):
        value = assumption_constants(chain2, eta).n_lambda
        assert value == pytest.approx(2.0**eta, rel=1e-12)
    rng = np.random.default_rng(1006)
    for _ in range(50):
        if rng.random() < 0.5:
            sides = (int(rng.integers(2, 25)),)
        else:
            sides = tuple(int(s) for s in rng.integers(2, 6, size=2))
        metric = str(rng.choice(["graph", "manhattan", "euclidean"]))
        eta = float(rng.uniform(0.3, 4.0))
        lattice = build_lattice(sides, metric=metric)
        assert assumption_constants(lattice, eta).n_lambda <= 2.0**eta * (1.0 + 1e-12)
    report(6, "lattice constants", "p0 and rescaling factor identities hold")


def test_07_coefficient_recursion_spot_check():
    rng = np.random.default_rng(1007)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(3, 6))
        j = rng.uniform(0.3, 1.2, size=(n, n))
        j = 0.5 * (j + j.T)
        np.fill_diagonal(j, 1.0)
        kappa = float((j - np.eye(n)).sum(axis=1).max())
        assert kappa >= 1.0
        j2 = j @ j
        j3 = j2 @ j
        i, k = rng.choice(n, size=2, replace=False)
        assert c2_path_sum(j, i, k) <= kappa**2 * j2[i, k] * (1.0 + 1e-12)
        assert c3_path_sum(j, i, k) <= kappa**3 * j3[i, k] * (1.0 + 1e-12)
        checked += 1
    assert checked == 20
    report(7, "coefficient recursion spot check", "c2, c3 below kappa^n [J^n]_ij")


def test_08_symplecticity():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 65))
        a = rng.standard_normal((n, n))
        a = 0.25 * (a + a.T) / np.sqrt(n)
        b = rng.standard_normal((n, n))
        b = 0.25 * (b + b.T) / np.sqrt(n)
        model = HarmonicModel(lattice=build_lattice(n), a=a, b=b,
                              m=np.zeros((n, 2 * n)))
        kernel = build_kernel(model)
        sigma = symplectic_form(n)
        for dt in (0.1, 1.0, 5.0):
            e = matrix_exp(kernel * dt)
            worst = max(worst, np.abs(e @ sigma @ e.T - sigma).max())
    assert worst <= 1e-9, worst
    report(8, "closed-system symplecticity", f"worst defect {worst:.2e}")


def taylor_exp_with_remainder(m, terms=30):
    # for ||M|| <= 1 the remainder after 30 terms is below 1/31! ~ 1.2e-34
    out = np.eye(m.shape[0], dtype=complex)
    power = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        power = power @ m / k
        out = out + power
    return out


def test_09_matrix_exp_accuracy():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 65))
        m = random_matrix(rng, dim)
        m = m * (rng.uniform(0.1, 1.0) / np.linalg.svd(m, compute_uv=False)[0])
        oracle = taylor_exp_with_remainder(m)
        got = matrix_exp(m)
        worst = max(worst, np.abs(got - oracle).max() / np.abs(oracle).max())
    assert worst <= 1e-12, worst
    report(9, "matrix_exp accuracy vs Taylor oracle", f"worst rel {worst:.2e}")


def test_10_lightcone_monotonicity(spin_reference):
    summary, _ = spin_reference
    arrivals = [(row["distance"], row["arrival"]) for row in summary["lightcone"]]
    assert arrivals, "no arrivals at the configured threshold"
    ordered = sorted(arrivals)
    monotone = all(a <= b + 1e-12 for (_, a), (_, b) in zip(ordered, ordered[1:]))
    if monotone:
        report(10, "light-cone monotonicity",
               f"{len(arrivals)} distances, nondecreasing arrivals")
    else:
        # warning-level criterion: failure triggers inspection, not a release block
        warnings.warn(f"light-cone arrivals not monotone: {ordered}")
        print("ACCEPTANCE 10 light-cone monotonicity: WARN (non-blocking,"
              f" arrivals {ordered})")
