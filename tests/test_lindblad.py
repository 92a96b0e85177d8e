import os
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from liebrob import (
    GKSLModel,
    HamiltonianTerm,
    LindbladTerm,
    TimeProfile,
    build_lattice,
    commutator_norm_curves,
)
from liebrob.operators import (
    LOWERING,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    embed,
    local_operator,
    operator_norm,
    unvec,
    vec,
)

from _helpers import (
    dense_assemble,
    dense_commutator_norms,
    dense_superop_pieces,
    evolve,
    generator,
    random_density_matrix,
    random_hermitian,
    random_matrix,
    random_model,
    random_profile,
)


def single_qubit_model(**kwargs):
    return GKSLModel(lattice=build_lattice(1), **kwargs)


def dephasing_model(gamma=0.5):
    return single_qubit_model(
        lindblad_terms=(LindbladTerm(support=(0,), matrix=PAULI_Z, rate=gamma),)
    )


class TestTimeProfile:
    def test_constant(self):
        profile = TimeProfile(kind="constant", amplitude=0.7)
        assert profile.value(3.1) == 0.7
        assert profile.sup_abs == 0.7
        assert profile.min_value == 0.7
        assert profile.is_constant

    def test_sinusoidal_range(self):
        profile = TimeProfile(kind="sinusoidal", amplitude=2.0, omega=3.0, phase=0.4)
        ts = np.linspace(0, 20, 4001)
        values = np.array([profile.value(t) for t in ts])
        assert values.min() >= 0.0
        assert values.max() <= 2.0
        assert profile.sup_abs == 2.0
        assert profile.min_value == 0.0

    def test_interval_sup_matches_dense_sampling(self):
        windows = ((0.0, 0.3), (0.5, 0.9), (0.0, 5.0), (1.2, 1.2001))
        for amplitude, omega, phase, spans in (
            (1.3, 2.1, 0.9, windows),
            (-1.3, 2.1, 0.9, windows),
            # phases 4.0 to 5.6 hold the trough 3 pi / 2 but no crest
            (0.8, 1.0, 4.0, ((0.0, 1.6), (0.5, 0.6))),
        ):
            profile = TimeProfile(kind="sinusoidal", amplitude=amplitude, omega=omega,
                                  phase=phase)
            for lo, hi in spans:
                ts = np.linspace(lo, hi, 20001)
                sampled = max(abs(profile.value(t)) for t in ts)
                closed = profile.sup_abs_on(lo, hi)
                assert sampled <= closed + 1e-9
                assert closed <= sampled + 1e-4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TimeProfile(kind="square")


class TestModelValidation:
    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            single_qubit_model(
                hamiltonian_terms=(HamiltonianTerm(support=(0,), matrix=LOWERING),)
            )

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            single_qubit_model(
                lindblad_terms=(LindbladTerm(support=(0,), matrix=PAULI_Z, rate=-1.0),)
            )

    def test_negative_rate_profile_rejected(self):
        profile = TimeProfile(kind="constant", amplitude=-1.0)
        with pytest.raises(ValueError, match="negative"):
            single_qubit_model(
                lindblad_terms=(
                    LindbladTerm(support=(0,), matrix=PAULI_Z, rate=1.0, profile=profile),
                )
            )

    def test_support_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            single_qubit_model(
                hamiltonian_terms=(HamiltonianTerm(support=(3,), matrix=PAULI_Z),)
            )


class TestGenerators:
    def test_empty_model_gives_zero_matrix(self):
        gen = generator(single_qubit_model())
        np.testing.assert_array_equal(gen.toarray(), np.zeros((4, 4)))

    def test_hamiltonian_action_is_commutator(self):
        model = single_qubit_model(
            hamiltonian_terms=(HamiltonianTerm(support=(0,), matrix=PAULI_Z),)
        )
        gen = generator(model)
        out = unvec(gen @ vec(PAULI_X), 2)
        oracle = -1j * (PAULI_Z @ PAULI_X - PAULI_X @ PAULI_Z)
        np.testing.assert_allclose(out, oracle, atol=1e-14)

    def test_amplitude_damping_action(self):
        model = single_qubit_model(
            lindblad_terms=(LindbladTerm(support=(0,), matrix=LOWERING, rate=1.0),)
        )
        gen = generator(model)
        excited = np.diag([0.0, 1.0]).astype(complex)
        out = unvec(gen @ vec(excited), 2)
        np.testing.assert_allclose(out, np.diag([1.0, -1.0]), atol=1e-14)

    def test_adjoint_annihilates_identity(self):
        rng = np.random.default_rng(31)
        model = random_model(rng, n_sites=2, time_dependent=True)
        adj = generator(model, time=0.37, adjoint=True)
        out = adj @ vec(np.eye(4, dtype=complex))
        assert np.abs(out).max() < 1e-10

    def test_generator_preserves_trace(self):
        rng = np.random.default_rng(32)
        model = random_model(rng, n_sites=2, time_dependent=True)
        gen = generator(model, time=0.81)
        for _ in range(5):
            rho = random_density_matrix(rng, 4)
            assert abs(np.trace(unvec(gen @ vec(rho), 4))) < 1e-10

    def test_qutrit_model_preserves_trace(self):
        rng = np.random.default_rng(30)
        lattice = build_lattice(2)
        h = random_hermitian(rng, 9)
        l0 = random_matrix(rng, 3)
        model = GKSLModel(
            lattice=lattice,
            dim_per_site=3,
            hamiltonian_terms=(HamiltonianTerm(support=(0, 1), matrix=h),),
            lindblad_terms=(LindbladTerm(support=(0,), matrix=l0, rate=0.4),),
        )
        gen = generator(model)
        rho = random_density_matrix(rng, 9)
        assert abs(np.trace(unvec(gen @ vec(rho), 9))) < 1e-10
        adj = generator(model, adjoint=True)
        assert np.abs(adj @ vec(np.eye(9, dtype=complex))).max() < 1e-10

    def test_dephasing_eigenaction(self):
        gamma = 0.8
        adj = generator(dephasing_model(gamma), adjoint=True)
        out = unvec(adj @ vec(PAULI_X), 2)
        np.testing.assert_allclose(out, -2.0 * gamma * PAULI_X, atol=1e-13)

    def test_hilbert_schmidt_duality(self):
        # the package's adjoint generator against the dense oracle's forward one
        rng = np.random.default_rng(33)
        model = random_model(rng, n_sites=2)
        gen = dense_assemble(dense_superop_pieces(model, adjoint=False), 4, 0.0)
        adj = generator(model, adjoint=True)
        np.testing.assert_allclose(adj.toarray(), gen.conj().T, atol=1e-12)
        for _ in range(5):
            rho = random_density_matrix(rng, 4)
            a = random_matrix(rng, 4)
            lhs = np.trace(unvec(gen @ vec(rho), 4).conj().T @ a)
            rhs = np.trace(rho.conj().T @ unvec(adj @ vec(a), 4))
            assert abs(lhs - rhs) < 1e-10

    def test_terms_sharing_a_profile_share_one_piece(self):
        # Pieces are summed per time profile; the generator stays the sum of
        # its one-term generators at every time.
        from liebrob.lindblad import _superop_pieces

        rng = np.random.default_rng(37)
        static = random_model(rng, n_sites=3)
        assert len(_superop_pieces(static)) == 1
        model = random_model(rng, n_sites=3, time_dependent=True)
        shared = model.hamiltonian_terms[0].profile
        model = GKSLModel(
            lattice=model.lattice,
            hamiltonian_terms=model.hamiltonian_terms + (
                HamiltonianTerm(support=(2,), matrix=random_hermitian(rng, 2),
                                profile=shared),),
            lindblad_terms=model.lindblad_terms + (
                LindbladTerm(support=(0,), matrix=LOWERING, rate=0.4, profile=shared),),
        )
        profiles = {term.profile
                    for term in model.hamiltonian_terms + model.lindblad_terms}
        pieces = _superop_pieces(model)
        assert len(pieces) == len(profiles) < len(model.hamiltonian_terms
                                                   + model.lindblad_terms)
        for time in (0.0, 0.37, 1.9):
            one_term_sum = sum(
                generator(GKSLModel(lattice=model.lattice, hamiltonian_terms=(term,)),
                          time, adjoint=True).toarray()
                for term in model.hamiltonian_terms
            ) + sum(
                generator(GKSLModel(lattice=model.lattice, lindblad_terms=(term,)),
                          time, adjoint=True).toarray()
                for term in model.lindblad_terms
            )
            np.testing.assert_allclose(generator(model, time, adjoint=True).toarray(),
                                       one_term_sum, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("case", ["xy3", "driven"])
    def test_pattern_drops_exact_cancellations(self, case):
        # XX + YY cancels on 00 <-> 11, and dephasing's jump cancels its
        # anticommutator on the diagonal: the pattern stores exactly the
        # entries some piece of the dense per-term oracle leaves nonzero
        from liebrob.lindblad import _superop_pieces

        if case == "xy3":
            model = xy_chain_with_dephasing(n_sites=3)
        else:
            model = random_model(np.random.default_rng(38), n_sites=3,
                                 time_dependent=True)
        pieces = _superop_pieces(model)
        oracle = {profile: matrix != 0
                  for matrix, profile in dense_superop_pieces(model, adjoint=True)}
        assert len(pieces) == len(oracle) == (1 if case == "xy3" else 6)
        coo = pieces.pattern.tocoo()  # keeps stored zeros
        stored = np.zeros(pieces.pattern.shape, dtype=bool)
        stored[coo.row, coo.col] = True
        np.testing.assert_array_equal(stored, np.any(list(oracle.values()), axis=0))
        for profile, values in zip(pieces.profiles, pieces.data):
            np.testing.assert_array_equal(values != 0, oracle[profile][coo.row, coo.col])


class TestHeisenbergEvolve:
    def test_dephasing_closed_form(self):
        gamma, r, t = 0.5, 0.3, 1.7
        model = dephasing_model(gamma)
        out = evolve(model, PAULI_X, r, t, adjoint=True)
        expected = np.exp(-2.0 * gamma * (t - r)) * PAULI_X
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-15)

    def test_hamiltonian_only_matches_unitary_conjugation(self):
        rng = np.random.default_rng(34)
        lattice = build_lattice(2)
        h = random_hermitian(rng, 4)
        model = GKSLModel(
            lattice=lattice,
            hamiltonian_terms=(HamiltonianTerm(support=(0, 1), matrix=h),),
        )
        a = embed(PAULI_Z, (0,), lattice)
        out = evolve(model, a, 0.2, 1.4, adjoint=True)
        u = expm(1j * h * 1.2)
        np.testing.assert_allclose(out, u @ a @ u.conj().T, atol=1e-9)

    def test_backward_composition_law(self):
        rng = np.random.default_rng(35)
        model = random_model(rng, n_sites=2, time_dependent=True)
        a = embed(random_matrix(rng, 2), (0,), model.lattice)
        r, s, t = 0.2, 0.7, 1.1
        steps = 1024  # unaligned partitions only agree to the midpoint-rule order
        direct = evolve(model, a, r, t, adjoint=True, steps=2 * steps)
        stage = evolve(model, a, s, t, adjoint=True, steps=steps)
        composed = evolve(model, stage, r, s, adjoint=True, steps=steps)
        assert operator_norm(direct - composed) < 1e-8

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(36)
        model = random_model(rng, n_sites=2, time_dependent=True)
        a = embed(random_hermitian(rng, 2), (1,), model.lattice)
        out = evolve(model, a, 0.1, 0.9, adjoint=True, steps=64)
        assert np.abs(out - out.conj().T).max() < 1e-10

    def test_contractivity_proxy(self):
        rng = np.random.default_rng(37)
        model = random_model(rng, n_sites=2)
        for _ in range(10):
            a = embed(random_matrix(rng, 4), (0, 1), model.lattice)
            out = evolve(model, a, 0.0, 1.0, adjoint=True)
            assert operator_norm(out) <= operator_norm(a) * (1 + 1e-8)

    def test_sinusoidal_dephasing_closed_form(self):
        # the modulated dephasing generator commutes with itself at all times,
        # so A(r) = exp(-2 int_r^t gamma(s) ds) pauli_x exactly; midpoint
        # stepping converges to the integral at second order
        rate, amp, omega, phase = 0.8, 1.0, 3.0, 0.7
        profile = TimeProfile(kind="sinusoidal", amplitude=amp, omega=omega,
                              phase=phase)
        model = single_qubit_model(
            lindblad_terms=(
                LindbladTerm(support=(0,), matrix=PAULI_Z, rate=rate,
                             profile=profile),
            ),
        )
        t = 1.4
        for r in (0.0, 0.5, 1.0):
            out = evolve(model, PAULI_X, r, t, adjoint=True, steps=2048)
            integral = rate * amp * 0.5 * (
                (t - r)
                - (np.cos(omega * t + phase) - np.cos(omega * r + phase)) / omega
            )
            expected = np.exp(-2.0 * integral)
            assert out[0, 1].real == pytest.approx(expected, rel=1e-6)


class TestSchrodingerEvolve:
    """Schrodinger-picture facts, checked on the package's backward sweep.

    The package evolves observables only; Tr(rho_t A) = Tr(rho tau*(A)) turns
    each statement about the evolved state rho_t into one about tau*.
    """

    def test_amplitude_damping_population(self):
        # the population of |1> after 1.3 is <1| tau*(|1><1|) |1>
        model = single_qubit_model(
            lindblad_terms=(LindbladTerm(support=(0,), matrix=LOWERING, rate=1.0),)
        )
        excited = np.diag([0.0, 1.0]).astype(complex)
        out = evolve(model, excited, 0.0, 1.3, adjoint=True)
        assert out[1, 1].real == pytest.approx(np.exp(-1.3), rel=1e-10)

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_output_is_a_state(self, time_dependent):
        # unit trace is tau*(I) = I; Hermiticity and positivity of the output
        # are those of tau*(P) for Hermitian and positive P
        rng = np.random.default_rng(42)
        model = random_model(rng, n_sites=3, time_dependent=time_dependent)
        eye = np.eye(8, dtype=complex)
        assert np.abs(evolve(model, eye, 0.15, 1.3, adjoint=True) - eye).max() <= 1e-10
        for _ in range(5):
            positive = random_density_matrix(rng, 8)
            out = evolve(model, positive, 0.15, 1.3, adjoint=True)
            assert np.abs(out - out.conj().T).max() <= 1e-10
            assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() >= -1e-8

    def test_heisenberg_schrodinger_duality(self):
        rng = np.random.default_rng(38)
        model = random_model(rng, n_sites=2, time_dependent=True)
        s, t, steps = 0.15, 1.05, 128
        for _ in range(10):
            rho = random_density_matrix(rng, 4)
            a = random_matrix(rng, 4)
            rho_t = evolve(model, rho, s, t, adjoint=False, steps=steps)
            a_s = evolve(model, a, s, t, adjoint=True, steps=steps)
            assert abs(np.trace(rho_t @ a) - np.trace(rho @ a_s)) < 1e-8


def xy_chain_with_dephasing(n_sites=3, gamma=0.4):
    """Power-law XY couplings on every pair plus on-site dephasing."""
    lattice = build_lattice(n_sites)
    h_terms = []
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            w = 1.0 / lattice.dist[i, j] ** 2
            h_terms.append(HamiltonianTerm(
                support=(i, j), matrix=w * np.kron(PAULI_X, PAULI_X)))
            h_terms.append(HamiltonianTerm(
                support=(i, j), matrix=w * np.kron(PAULI_Y, PAULI_Y)))
    l_terms = tuple(
        LindbladTerm(support=(i,), matrix=PAULI_Z, rate=gamma) for i in range(n_sites)
    )
    return GKSLModel(lattice=lattice, hamiltonian_terms=tuple(h_terms),
                     lindblad_terms=l_terms)


def reference_heisenberg_curve(n_sites, gamma, x_site, y_site, t, r_grid):
    """Independent oracle for the XY-with-dephasing commutator curve.

    Rebuilds the model from scratch with plain kron chains (pair couplings as
    products of single-site embeddings) and integrates the backward operator
    equation dA/ds = -L(A) with an adaptive ODE solver; no vectorized
    superoperator and no matrix exponential.
    """
    dim = 2**n_sites

    def site_op(mat, site):
        out = np.eye(1, dtype=complex)
        for k in range(n_sites):
            out = np.kron(out, mat if k == site else np.eye(2, dtype=complex))
        return out

    h_total = np.zeros((dim, dim), dtype=complex)
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            w = 1.0 / (j - i) ** 2
            h_total += w * site_op(PAULI_X, i) @ site_op(PAULI_X, j)
            h_total += w * site_op(PAULI_Y, i) @ site_op(PAULI_Y, j)
    lindblads = [(site_op(PAULI_Z, i), gamma) for i in range(n_sites)]
    x_full = site_op(PAULI_Z, x_site)

    def rhs(s, y):
        a = y.reshape(dim, dim)
        out = 1j * (h_total @ a - a @ h_total)
        for l_full, rate in lindblads:
            ldl = l_full.conj().T @ l_full
            out += rate * (l_full.conj().T @ a @ l_full - 0.5 * (ldl @ a + a @ ldl))
        return (-out).reshape(-1)

    sol = solve_ivp(rhs, (t, min(r_grid)),
                    site_op(PAULI_Z, y_site).reshape(-1).astype(complex),
                    t_eval=sorted(r_grid, reverse=True), rtol=1e-11, atol=1e-12,
                    method="DOP853")
    values = {}
    for idx, r in enumerate(sol.t):
        a_r = sol.y[:, idx].reshape(dim, dim)
        comm = a_r @ x_full - x_full @ a_r
        values[float(r)] = float(np.linalg.svd(comm, compute_uv=False)[0])
    return values


class TestCommutatorNormCurve:
    def test_zero_at_r_equals_t(self):
        model = xy_chain_with_dephasing()
        o_x = local_operator(PAULI_Z, (0,))
        o_y = local_operator(PAULI_Z, (2,))
        curves = commutator_norm_curves(model, [(o_x, o_y)], t=1.0, points=2)
        assert curves.shape == (1, 2) and curves.dtype == float
        assert curves[0, -1] == 0.0

    def test_onsite_only_model_has_flat_zero_curve(self):
        lattice = build_lattice(3)
        model = GKSLModel(
            lattice=lattice,
            hamiltonian_terms=tuple(
                HamiltonianTerm(support=(i,), matrix=PAULI_Z) for i in range(3)
            ),
            lindblad_terms=(LindbladTerm(support=(1,), matrix=PAULI_Z, rate=0.3),),
        )
        curve = commutator_norm_curves(
            model, [(local_operator(PAULI_X, (0,)), local_operator(PAULI_X, (2,)))],
            t=1.0, points=5,
        )[0]
        assert (curve < 1e-12).all()

    def test_grid_outside_window_rejected(self):
        model = xy_chain_with_dephasing()
        pairs = [(local_operator(PAULI_Z, (0,)), local_operator(PAULI_Z, (2,)))]
        with pytest.raises(ValueError, match="t must be nonnegative"):
            commutator_norm_curves(model, pairs, t=-0.5, points=5)
        with pytest.raises(ValueError, match="at least 2 points"):
            commutator_norm_curves(model, pairs, t=1.0, points=1)

    def test_matches_independent_ode_oracle(self):
        model = xy_chain_with_dephasing(n_sites=3, gamma=0.4)
        o_x = local_operator(PAULI_Z, (0,))
        o_y = local_operator(PAULI_Z, (2,))
        t = 1.2
        curve = commutator_norm_curves(model, [(o_x, o_y)], t, 5)[0]
        rs = np.linspace(0.0, t, 5).tolist()
        oracle = reference_heisenberg_curve(3, 0.4, 0, 2, t, rs)
        for r, value in zip(rs, curve):
            assert value == pytest.approx(oracle[r], abs=1e-8)

    def test_time_dependent_curve_agrees_with_heisenberg_partition(self):
        rng = np.random.default_rng(39)
        model = random_model(rng, n_sites=2, time_dependent=True)
        o_x = local_operator(PAULI_Z, (0,))
        o_y = local_operator(random_matrix(rng, 2), (1,))
        t, points, substeps = 1.1, 12, 32
        curve = commutator_norm_curves(model, [(o_x, o_y)], t, points,
                                       substeps=substeps)[0]
        r, value = np.linspace(0.0, t, points)[3], curve[3]  # 8 intervals below t
        evolved = evolve(model, embed(o_y.matrix, (1,), model.lattice), r, t,
                         adjoint=True, steps=8 * substeps)
        x_full = embed(PAULI_Z, (0,), model.lattice)
        comm = evolved @ x_full - x_full @ evolved
        assert r == pytest.approx(0.3, abs=1e-15)
        assert value == pytest.approx(operator_norm(comm), abs=1e-12)

    def test_curves_share_the_sweep(self):
        model = xy_chain_with_dephasing()
        pairs = [
            (local_operator(PAULI_Z, (0,)), local_operator(PAULI_Z, (2,))),
            (local_operator(PAULI_Z, (1,)), local_operator(PAULI_Z, (2,))),
        ]
        batched = commutator_norm_curves(model, pairs, 1.0, 6)
        for pair, batch in zip(pairs, batched):
            single = commutator_norm_curves(model, [pair], 1.0, 6)[0]
            np.testing.assert_array_equal(batch, single)

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_sweep_counts_kernel_calls(self, monkeypatch, time_dependent):
        # one kernel call per grid interval of a time-independent model, one per
        # midpoint substep of a driven one, and no dense exponential is ever
        # formed on the spin path
        import scipy.linalg

        import liebrob.lindblad as lindblad

        calls = []
        kernel = lindblad._expm_action

        def counting_kernel(a, block):
            calls.append(block.shape)
            return kernel(a, block)

        def no_dense_expm(*args, **kwargs):
            raise AssertionError("scipy.linalg.expm reached on the spin path")

        monkeypatch.setattr(lindblad, "_expm_action", counting_kernel)
        monkeypatch.setattr(scipy.linalg, "expm", no_dense_expm)
        assert not hasattr(lindblad, "expm")
        assert not hasattr(lindblad, "expm_multiply")
        rng = np.random.default_rng(41)
        model = random_model(rng, n_sites=3, time_dependent=time_dependent)
        pairs = [(local_operator(PAULI_Z, (0,)), local_operator(PAULI_Z, (2,)))]
        points, substeps = 21, 4
        commutator_norm_curves(model, pairs, 2.0, points, substeps=substeps)
        expected = (points - 1) * substeps if time_dependent else points - 1
        assert calls == [(64, 1)] * expected

    def test_cli_import_leaves_out_sparse_linalg(self):
        import subprocess
        import sys
        from pathlib import Path

        import liebrob

        code = ("import sys, liebrob.cli;"
                " print('scipy.sparse.linalg' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(liebrob.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_stepped_grid_matches_direct_evolution(self, time_dependent):
        rng = np.random.default_rng(40)
        model = random_model(rng, n_sites=2, time_dependent=time_dependent)
        o_x = local_operator(PAULI_Z, (0,))
        o_y = local_operator(random_matrix(rng, 2), (1,))
        y_full = embed(o_y.matrix, (1,), model.lattice)
        t, points, substeps = 1.3, 7, 4
        curve = commutator_norm_curves(model, [(o_x, o_y)], t, points,
                                       substeps=substeps)[0]
        x_full = embed(PAULI_Z, (0,), model.lattice)
        for k, (r, value) in enumerate(zip(np.linspace(0.0, t, points), curve)):
            # a fresh backward evolution over the points - 1 - k intervals above r
            steps = max(1, (points - 1 - k) * substeps)
            evolved = evolve(model, y_full, r, t, adjoint=True, steps=steps)
            direct = operator_norm(evolved @ x_full - x_full @ evolved)
            assert value == pytest.approx(direct, abs=1e-12)


def random_qudit_model(rng, dim_per_site, n_sites, time_dependent):
    """Random nearest-neighbour couplings, on-site fields and one jump per site."""
    def profile():
        return random_profile(rng) if time_dependent else TimeProfile()

    h_terms = [HamiltonianTerm(support=(i, i + 1),
                               matrix=random_hermitian(rng, dim_per_site**2),
                               profile=profile())
               for i in range(n_sites - 1)]
    h_terms += [HamiltonianTerm(support=(i,), matrix=random_hermitian(rng, dim_per_site),
                                profile=profile())
                for i in range(n_sites)]
    l_terms = [LindbladTerm(support=(i,), matrix=random_matrix(rng, dim_per_site),
                            rate=float(rng.uniform(0.1, 0.8)), profile=profile())
               for i in range(n_sites)]
    return GKSLModel(lattice=build_lattice(n_sites), dim_per_site=dim_per_site,
                     hamiltonian_terms=tuple(h_terms), lindblad_terms=tuple(l_terms))


class TestDenseOracle:
    """The sparse engine against the dense kron assembly and dense-expm sweep."""

    @pytest.mark.parametrize("time_dependent", [False, True])
    @pytest.mark.parametrize("dim_per_site, n_sites", [(2, 3), (3, 2)])
    def test_generator_matches_dense_assembly(self, dim_per_site, n_sites,
                                              time_dependent):
        rng = np.random.default_rng(60 + dim_per_site + 10 * time_dependent)
        model = random_qudit_model(rng, dim_per_site, n_sites, time_dependent)
        dim = model.hilbert_dim
        for adjoint in (False, True):
            pieces = dense_superop_pieces(model, adjoint)
            for time in (0.0, 0.37, 1.9):
                sparse = generator(model, time, adjoint)
                assert sparse.format == "csr"
                np.testing.assert_allclose(sparse.toarray(),
                                           dense_assemble(pieces, dim, time),
                                           rtol=0, atol=1e-14)

    @pytest.mark.parametrize("case", ["xy5", "qubit4-driven", "qutrit2-driven"])
    def test_curves_match_dense_sweep(self, case):
        rng = np.random.default_rng(70)
        if case == "xy5":
            model = xy_chain_with_dephasing(n_sites=5, gamma=0.5)  # D = 32
            o_x, o_y = local_operator(PAULI_Z, (0,)), local_operator(PAULI_Z, (4,))
        elif case == "qubit4-driven":
            model = random_model(rng, n_sites=4, time_dependent=True)  # D = 16
            o_x = local_operator(random_hermitian(rng, 2), (0,))
            o_y = local_operator(random_matrix(rng, 2), (3,))
        else:
            model = random_qudit_model(rng, 3, 2, time_dependent=True)  # D = 9
            o_x = local_operator(random_hermitian(rng, 3), (0,), dim_per_site=3)
            o_y = local_operator(random_matrix(rng, 3), (1,), dim_per_site=3)
        t, points, substeps = 1.5, 11, 4
        curve = commutator_norm_curves(model, [(o_x, o_y)], t, points,
                                       substeps=substeps)[0]
        oracle = dense_commutator_norms(model, o_x, o_y, t, points, substeps)
        np.testing.assert_allclose(curve, oracle, rtol=0, atol=1e-12)


def kernel_input(model, time=0.3, scale=1.0):
    """The scaled adjoint generator at ``time``."""
    a = generator(model, time, adjoint=True)
    a.data *= scale
    return a


def stored_diagonals(a) -> int:
    coo = a.tocoo()
    return np.count_nonzero(coo.row == coo.col)


def blocks(rng, rows):
    column = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    return column, rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))


class TestExpmAction:
    """The Taylor kernel against scipy's expm_multiply, kept here as an oracle."""

    @staticmethod
    def assert_matches_oracle(a, block):
        import liebrob.lindblad as lindblad

        before = block.copy()
        ours = lindblad._expm_action(a, block)
        oracle = expm_multiply(a, block)
        np.testing.assert_array_equal(block, before)  # the input is not touched
        assert ours.shape == block.shape
        assert np.abs(ours - oracle).max() <= 1e-13 * np.abs(oracle).max()

    @pytest.mark.parametrize("time_dependent", [False, True])
    @pytest.mark.parametrize("dim_per_site, n_sites", [(2, 3), (3, 2)])
    def test_random_generators(self, dim_per_site, n_sites, time_dependent):
        rng = np.random.default_rng(90 + dim_per_site + 10 * time_dependent)
        model = random_qudit_model(rng, dim_per_site, n_sites, time_dependent)
        for time, scale in ((0.0, 0.05), (0.37, 0.4), (1.9, 1.0)):
            a = kernel_input(model, time, scale)
            for block in blocks(rng, a.shape[0]):
                self.assert_matches_oracle(a, block)

    def test_zero_generator(self):
        rng = np.random.default_rng(91)
        a = kernel_input(single_qubit_model())
        assert a.nnz == 0
        for block in blocks(rng, 4):
            self.assert_matches_oracle(a, block)
        a = kernel_input(dephasing_model(), scale=0.0)  # stored zeros
        assert a.nnz > 0 and stored_diagonals(a) > 0
        for block in blocks(rng, 4):
            self.assert_matches_oracle(a, block)

    def test_pattern_without_some_diagonals(self):
        # XY couplings and dephasing leave the diagonal of the populations'
        # block empty, while the trace shift is far from zero: the shift must
        # reach the missing diagonals too
        rng = np.random.default_rng(92)
        a = kernel_input(xy_chain_with_dephasing(n_sites=3), scale=0.5)
        n = a.shape[0]
        assert 0 < stored_diagonals(a) < n
        assert abs(a.diagonal().sum() / n) > 0.1
        for block in blocks(rng, n):
            self.assert_matches_oracle(a, block)

    def test_large_norm_step(self):
        # condition (3.13), norm <= 2 ell p_max (p_max + 3) theta_55 / (55 n0)
        # with ell = 2 and p_max = 8, fails for n0 = 3 columns above a 1-norm of
        # about 21, so scipy estimates norms of powers where the kernel takes
        # the exact norm
        rng = np.random.default_rng(93)
        model = random_qudit_model(rng, 2, 3, time_dependent=False)
        a = kernel_input(model, scale=4.0)
        n = a.shape[0]
        mu = a.diagonal().sum() / n
        norm = np.abs(a.toarray() - mu * np.eye(n)).sum(axis=0).max()
        assert norm * 3 > 2 * 2 * 8 * 11 * 9.9 / 55
        self.assert_matches_oracle(a, blocks(rng, n)[1])


class TestMemoryGuard:
    @staticmethod
    def _free_pages(monkeypatch, pages):
        real = os.sysconf
        fake = {"SC_AVPHYS_PAGES": pages, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name, real(name)))

    def test_no_dimension_cap_by_default(self):
        model = xy_chain_with_dephasing(n_sites=7)  # D = 128, above the old cap of 64
        assert not hasattr(model, "guard_dim")
        assert generator(model, adjoint=True).shape == (128**2, 128**2)

    def test_refusal_names_estimate_and_available_bytes(self, monkeypatch):
        self._free_pages(monkeypatch, 16)
        model = xy_chain_with_dephasing()
        pairs = [(local_operator(PAULI_Z, (0,)), local_operator(PAULI_Z, (2,)))]
        pattern = r"needs an estimated \d+ bytes but only 65536 bytes"
        with pytest.raises(ValueError, match=pattern):
            commutator_norm_curves(model, pairs, 1.0, 5)
        with pytest.raises(ValueError, match=pattern):
            evolve(model, embed(PAULI_Z, (0,), model.lattice), 0.0, 1.0,
                   adjoint=True)
        with pytest.raises(ValueError, match=pattern):
            generator(model)

    def test_refusal_comes_before_the_build(self, monkeypatch):
        import liebrob.lindblad as lindblad

        self._free_pages(monkeypatch, 16)
        monkeypatch.setattr(lindblad, "embed", None)  # any build step would fail
        with pytest.raises(ValueError, match="estimated"):
            generator(xy_chain_with_dephasing())

    @pytest.mark.parametrize("case", ["static-curves", "driven-curves", "two-point"])
    def test_estimate_bounds_the_traced_peak(self, monkeypatch, case):
        # numpy reports its allocations to tracemalloc, so the traced peak is
        # the sweep's array memory; the guard's estimate, read from its
        # refusal of the same call with no free memory, must not undercut it
        import re

        rng = np.random.default_rng(80)
        if case == "static-curves":
            model = xy_chain_with_dephasing(n_sites=5)
        else:
            model = random_qudit_model(rng, 2, 4, time_dependent=True)
        pairs = [(local_operator(PAULI_Z, (i,)), local_operator(PAULI_Z, (j,)))
                 for i, j in ((0, 3), (1, 3), (0, 2))]

        def run():
            if case == "two-point":
                evolve(model, embed(PAULI_Z, (0,), model.lattice), 0.0, 0.2,
                       adjoint=True, steps=2)
            else:
                commutator_norm_curves(model, pairs, 1.0, 5, substeps=2)

        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self._free_pages(monkeypatch, 0)
        with pytest.raises(ValueError) as refusal:
            run()
        estimate = int(re.search(r"needs an estimated (\d+) bytes", str(refusal.value))[1])
        assert 0 < peak <= estimate
