import numpy as np
import pytest

from liebrob import (
    HarmonicModel,
    assumption_constants,
    build_kernel,
    build_lattice,
    c0_fit,
    matrix_exp,
    stepped_products,
    symplectic_defect,
    symplectic_form,
    theorem4_bound,
)

from _helpers import commutator_norms


def closed_model(rng, n, scale=0.3):
    lattice = build_lattice(n)
    a = rng.standard_normal((n, n))
    a = scale * 0.5 * (a + a.T)
    b = rng.standard_normal((n, n))
    b = scale * 0.5 * (b + b.T)
    return HarmonicModel(lattice=lattice, a=a, b=b, m=np.zeros((n, 2 * n)))


def damped_chain(n, eta, gamma):
    """Power-law Q couplings, unit P couplings, one damping Lindblad per site."""
    lattice = build_lattice(n)
    a = (1.0 + lattice.dist) ** (-eta)
    b = np.eye(n)
    amp = np.sqrt(gamma / 2.0)
    m = np.zeros((n, 2 * n), dtype=complex)
    m[:, :n] = amp * np.eye(n)
    m[:, n:] = 1j * amp * np.eye(n)
    return HarmonicModel(lattice=lattice, a=a, b=b, m=m)


class TestModelValidation:
    def test_asymmetric_a_rejected(self):
        lattice = build_lattice(2)
        with pytest.raises(ValueError, match="symmetric"):
            HarmonicModel(lattice=lattice, a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                          b=np.eye(2), m=np.zeros((2, 4)))

    def test_wrong_m_shape_rejected(self):
        lattice = build_lattice(2)
        with pytest.raises(ValueError, match="M"):
            HarmonicModel(lattice=lattice, a=np.eye(2), b=np.eye(2),
                          m=np.zeros((2, 2)))


class TestBuildKernel:
    def test_closed_system_block_structure(self):
        rng = np.random.default_rng(51)
        model = closed_model(rng, 4)
        kernel = build_kernel(model)
        n = 4
        np.testing.assert_allclose(kernel[:n, :n], np.zeros((n, n)), atol=1e-15)
        np.testing.assert_allclose(kernel[:n, n:], -model.b, atol=1e-15)
        np.testing.assert_allclose(kernel[n:, :n], model.a, atol=1e-15)
        np.testing.assert_allclose(kernel[n:, n:], np.zeros((n, n)), atol=1e-15)

    def test_f_is_minus_d(self):
        # F = -D, so the dissipative QQ block of S, D + F, vanishes
        rng = np.random.default_rng(52)
        n = 5
        lattice = build_lattice(n)
        m = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
        model = HarmonicModel(lattice=lattice, a=np.eye(n), b=np.eye(n), m=m)
        kernel = build_kernel(model)
        np.testing.assert_allclose(kernel[:n, :n], np.zeros((n, n)), atol=1e-15)
        np.testing.assert_allclose(kernel[n:, :n], model.a, atol=1e-15)

    def test_dissipative_row_pairs_are_negatives(self):
        rng = np.random.default_rng(53)
        n = 4
        lattice = build_lattice(n)
        m = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
        model = HarmonicModel(lattice=lattice, a=0.5 * np.eye(n), b=np.eye(n), m=m)
        kernel = build_kernel(model)
        hamiltonian_part = np.zeros_like(kernel)
        hamiltonian_part[:n, n:] = -model.b
        hamiltonian_part[n:, :n] = model.a
        dissipative = kernel - hamiltonian_part
        np.testing.assert_allclose(dissipative[n:, :], -dissipative[:n, :], atol=1e-14)

    def test_kernel_entry_definitions_by_direct_loops(self):
        rng = np.random.default_rng(54)
        n = 3
        lattice = build_lattice(n)
        m = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
        model = HarmonicModel(lattice=lattice, a=np.eye(n), b=np.eye(n), m=m)
        s = build_kernel(model)
        for x in range(n):
            for y in range(n):
                d_xy = -0.5j * sum(np.conj(m[v, y]) * m[v, x] for v in range(n))
                e_xy = -0.5j * sum(np.conj(m[v, y + n]) * m[v, x] for v in range(n))
                f_xy = 0.5j * sum(np.conj(m[v, y]) * m[v, x] for v in range(n))
                g_xy = 0.5j * sum(np.conj(m[v, x]) * m[v, y + n] for v in range(n))
                upper_q, upper_p = (d_xy + f_xy).real, (e_xy + g_xy).real
                assert s[x, y] == pytest.approx(upper_q, abs=1e-15)
                assert s[x, y + n] == pytest.approx(-model.b[x, y] + upper_p, rel=1e-12)
                assert s[x + n, y] == pytest.approx(model.a[x, y] - upper_q, rel=1e-12)
                assert s[x + n, y + n] == pytest.approx(-upper_p, rel=1e-12)

    def test_single_site_oscillator_kernel(self):
        lattice = build_lattice(1)
        omega = 1.7
        model = HarmonicModel(lattice=lattice, a=np.array([[omega**2]]),
                              b=np.array([[1.0]]), m=np.zeros((1, 2)))
        kernel = build_kernel(model)
        np.testing.assert_allclose(kernel.real, [[0.0, -1.0], [omega**2, 0.0]],
                                   atol=1e-15)

    def test_kernel_is_real_and_matches_complex_assembly(self):
        rng = np.random.default_rng(59)
        n = 40
        m = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
        models = (
            HarmonicModel(lattice=build_lattice(n), a=0.5 * np.eye(n), b=np.eye(n), m=m),
            damped_chain(12, eta=3.0, gamma=0.2),
        )
        for model in models:
            n = model.n_sites
            kernel = build_kernel(model)
            assert kernel.dtype == np.float64
            mq, mp = model.m[:, :n], model.m[:, n:]
            complex_s = np.zeros((2 * n, 2 * n), dtype=complex)
            complex_s[:n, n:] = -model.b
            complex_s[n:, :n] = model.a
            d_plus_f = -0.5j * (mq.conj().T @ mq).T + 0.5j * (mq.conj().T @ mq).T
            e_plus_g = -0.5j * (mp.conj().T @ mq).T + 0.5j * (mq.conj().T @ mp)
            upper = np.hstack([d_plus_f, e_plus_g])
            complex_s[:n, :] += upper
            complex_s[n:, :] -= upper
            assert np.abs(kernel - complex_s).max() <= 1e-15 * np.abs(complex_s).max()


class TestHarmonicCommutatorNorms:
    def test_canonical_structure_at_dt_zero(self):
        rng = np.random.default_rng(55)
        model = closed_model(rng, 3)
        kernel = build_kernel(model)
        _, values = commutator_norms(kernel, 0.0, 2)[-1]
        np.testing.assert_allclose(values, np.abs(symplectic_form(3)), atol=1e-15)

    def test_single_site_oscillator_rotation(self):
        lattice = build_lattice(1)
        model = HarmonicModel(lattice=lattice, a=np.array([[1.0]]),
                              b=np.array([[1.0]]), m=np.zeros((1, 2)))
        kernel = build_kernel(model)
        for dt in (0.0, 0.3, 1.0, 2.5):
            _, values = commutator_norms(kernel, dt, 2)[-1]
            assert values[0, 0] == pytest.approx(abs(np.sin(dt)), abs=1e-12)
            assert values[0, 1] == pytest.approx(abs(np.cos(dt)), abs=1e-12)

    def test_closed_system_symplecticity(self):
        rng = np.random.default_rng(56)
        for n in (4, 16):
            model = closed_model(rng, n)
            kernel = build_kernel(model)
            sigma = symplectic_form(n)
            for dt in (0.1, 1.0):
                e = matrix_exp(kernel * dt)
                defect = np.abs(e @ sigma @ e.T - sigma).max()
                assert defect < 1e-9

    def test_stepped_grid_matches_per_point_exponentials(self):
        rng = np.random.default_rng(58)
        for model in (damped_chain(12, eta=3.0, gamma=0.2), closed_model(rng, 12)):
            kernel = build_kernel(model)
            norms = commutator_norms(kernel, 2.0, 101)
            assert [dt for dt, _ in norms] == np.linspace(0.0, 2.0, 101).tolist()
            for dt, values in norms:
                direct = np.abs(matrix_exp(kernel * dt) @ symplectic_form(12))
                assert np.abs(values - direct).max() <= 1e-12 * direct.max()

    def test_decoupled_model_has_no_off_diagonal_spread(self):
        # diagonal A and B: sites never talk, so QQ and PP norms stay
        # off-diagonally zero and QP/PQ stay diagonal
        n = 5
        lattice = build_lattice(n)
        model = HarmonicModel(lattice=lattice, a=1.3 * np.eye(n), b=np.eye(n),
                              m=np.zeros((n, 2 * n)))
        kernel = build_kernel(model)
        off = ~np.eye(n, dtype=bool)
        for dt in (0.0, 0.7, 2.0):
            _, values = commutator_norms(kernel, dt, 2)[-1]
            assert np.abs(values[:n, :n][off]).max() == 0.0
            assert np.abs(values[n:, n:][off]).max() == 0.0
            assert np.abs(values[:n, n:][off]).max() == 0.0

    def test_symplectic_defect_helper(self):
        rng = np.random.default_rng(57)
        closed = closed_model(rng, 6)
        kernel = build_kernel(closed)
        damped = build_kernel(damped_chain(6, eta=3.0, gamma=0.5))
        for points in (2, 101):
            closed_defects = [symplectic_defect(product)
                              for _, product in stepped_products(kernel, 1.5, points)]
            damped_defects = [symplectic_defect(product)
                              for _, product in stepped_products(damped, 1.5, points)]
            assert max(closed_defects) < 1e-11
            assert max(damped_defects) > 1e-3
            assert closed_defects[0] == damped_defects[0] == 0.0  # P_0 = sigma

    def test_negative_dt_rejected(self):
        kernel = build_kernel(damped_chain(2, 2.0, 0.1))
        with pytest.raises(ValueError):
            next(stepped_products(kernel, -0.1, 2))

    def test_overflow_reported(self):
        # inverted oscillator: S has real eigenvalues +-1e4, so the
        # exponential grows hyperbolically and overflows
        lattice = build_lattice(1)
        model = HarmonicModel(lattice=lattice, a=np.array([[1.0e4]]),
                              b=np.array([[-1.0e4]]), m=np.zeros((1, 2)))
        kernel = build_kernel(model)
        with pytest.raises(OverflowError):
            next(stepped_products(kernel, 100.0, 2))

    def test_overflow_while_stepping_reported(self):
        # S = [[0, 1], [1, 0]] and h = 100: e^{S h} is finite, e^{8 S h} is not
        lattice = build_lattice(1)
        model = HarmonicModel(lattice=lattice, a=np.array([[1.0]]),
                              b=np.array([[-1.0]]), m=np.zeros((1, 2)))
        kernel = build_kernel(model)
        with pytest.raises(OverflowError, match="dt = "):
            commutator_norms(kernel, 1000.0, 11)


class TestC0Fit:
    def test_zero_model(self):
        lattice = build_lattice(3)
        model = HarmonicModel(lattice=lattice, a=np.zeros((3, 3)),
                              b=np.zeros((3, 3)), m=np.zeros((3, 6)))
        assert c0_fit(model, 2.0) == 0.0

    def test_nearest_neighbour_chain(self):
        n, g, eta = 6, 0.4, 2.0
        lattice = build_lattice(n)
        a = np.diag(np.full(n, 1.1))
        a += g * (np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1))
        model = HarmonicModel(lattice=lattice, a=a, b=np.zeros((n, n)),
                              m=np.zeros((n, 2 * n)))
        assert c0_fit(model, eta) == pytest.approx(max(1.1, g * 2.0**eta))

    def test_exact_power_law_saturates_at_one(self):
        lattice = build_lattice(7)
        a = (1.0 + lattice.dist) ** (-1.4)
        model = HarmonicModel(lattice=lattice, a=a, b=np.zeros((7, 7)),
                              m=np.zeros((7, 14)))
        assert c0_fit(model, 1.4) == pytest.approx(1.0, rel=1e-13)

    def test_m_halves_enter_the_fit(self):
        n = 3
        lattice = build_lattice(n)
        m = np.zeros((n, 2 * n), dtype=complex)
        m[0, n + 2] = 0.5  # momentum half, sites 0 and 2 at distance 2
        model = HarmonicModel(lattice=lattice, a=np.zeros((n, n)),
                              b=np.zeros((n, n)), m=m)
        assert c0_fit(model, 1.0) == pytest.approx(0.5 * 3.0)


class TestTheorem4Bound:
    def test_dt_zero_quarter(self):
        assert theorem4_bound(0.7, 1.0, 1.0, 0.0, 1.0) == pytest.approx(0.25)

    def test_decoupled_system_is_constant_in_dt(self):
        values = [theorem4_bound(0.0, 2.0, 1.5, dt, 2.0) for dt in (0.0, 1.0, 5.0)]
        assert values[0] == values[1] == values[2]
        assert values[0] == pytest.approx(1.0 / (2.0 * 2.0 * 3.0**1.5))

    def test_log_derivative_growth_rate(self):
        from liebrob.harmonic import growth_rate

        c0, p0 = 0.8, 1.9
        rate = growth_rate(c0, p0)
        assert rate == 2.0 * p0 * (c0 + p0 * c0 * c0)
        b1 = theorem4_bound(c0, p0, 2.0, 1.0, 1.0)
        b2 = theorem4_bound(c0, p0, 2.0, 1.5, 1.0)
        assert (np.log(b2) - np.log(b1)) / 0.5 == pytest.approx(rate, rel=1e-12)

    def test_monotone_in_c0(self):
        values = [theorem4_bound(c0, 1.5, 2.0, 1.0, 1.0) for c0 in (0.2, 0.5, 1.0)]
        assert values[0] < values[1] < values[2]

    def test_same_site_rejected(self):
        with pytest.raises(ValueError):
            theorem4_bound(1.0, 1.0, 1.0, 1.0, 0.0)

    def test_grid_matches_pointwise_calls(self):
        dts = np.linspace(0.0, 2.0, 5)
        distances = np.array([1.0, np.sqrt(2.0), 2.0, 3.5])
        grid = theorem4_bound(0.8, 1.9, 2.7, dts[:, None], distances)
        assert grid.shape == (5, 4)
        np.testing.assert_array_equal(
            grid, [[theorem4_bound(0.8, 1.9, 2.7, dt, d) for d in distances]
                   for dt in dts])
        assert isinstance(theorem4_bound(0.8, 1.9, 2.7, 1.0, 1.0), float)

    def test_overflow_is_infinite(self):
        values = theorem4_bound(1.0, 1.0, 2.0, [1.0, 400.0], [1.0, 2.0])
        assert np.isfinite(values[0]) and values[1] == np.inf
        # a denominator beyond the float range is vacuous too, not a 0 bound
        values = theorem4_bound(1.0, 1.0, 40.0, 1.0, [1.0, 1e10])
        assert 0.0 < values[0] < np.inf and values[1] == np.inf
        with pytest.raises(ValueError):
            theorem4_bound(1.0, 1.0, 1.0, [1.0, -1.0], 1.0)
        with pytest.raises(ValueError):
            theorem4_bound(1.0, 1.0, 1.0, 1.0, [1.0, 0.0])


class TestSoundnessSweep:
    def test_damped_chain_respects_bound(self):
        n, eta, gamma = 12, 3.0, 0.15
        model = damped_chain(n, eta, gamma)
        kernel = build_kernel(model)
        p0 = assumption_constants(model.lattice, eta).p0
        c0 = c0_fit(model, eta)
        off = ~np.eye(n, dtype=bool)
        dist = model.lattice.dist
        for dt, values in commutator_norms(kernel, 2.0, 9):
            rhs = np.exp(2 * p0 * (c0 + p0 * c0 * c0) * dt) / (
                2.0 * p0 * (1.0 + dist) ** eta
            )
            for block in (values[:n, :n], values[:n, n:], values[n:, :n], values[n:, n:]):
                assert np.all(block[off] <= rhs[off] * (1.0 + 1e-9))
