import itertools
from pathlib import Path

import numpy as np
import pytest

import liebrob.harmonic
from liebrob import (
    HarmonicModel,
    assumption_constants,
    build_j_matrix,
    build_kernel,
    build_lattice,
    c0_fit,
    matrix_exp,
    stepped_products,
    symplectic_defect,
    symplectic_form,
    theorem4_bound,
)
from liebrob.config import load_config

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

    def test_infinite_entry_of_a_rejected(self):
        # inf - inf is a NaN defect, which no tolerance comparison lets through
        lattice = build_lattice(2)
        with pytest.raises(ValueError, match="symmetric"):
            HarmonicModel(lattice=lattice, a=np.array([[np.inf, 0.0], [0.0, 1.0]]),
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
        for points in (2, 5):  # a t = 0 grid yields sigma at every point
            products = list(stepped_products(kernel, 0.0, points))
            assert [dt for dt, _ in products] == [0.0] * points
            for _, product in products:
                np.testing.assert_array_equal(product, symplectic_form(3))

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
            # P_1, taken as a signed column permutation of E, equals E sigma
            # exactly (array_equal counts -0.0 equal to 0.0)
            (_, first), (_, second) = itertools.islice(stepped_products(kernel, 2.0, 101), 2)
            np.testing.assert_array_equal(first, symplectic_form(12))
            assert np.array_equal(second, matrix_exp(kernel * 0.02) @ symplectic_form(12))
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
        def oracle(product):
            sigma = symplectic_form(len(product) // 2)
            return np.abs(product @ sigma @ product.T - sigma).max()

        def check(product):
            defect = symplectic_defect(product)
            scale = max(1.0, np.abs(product).max() ** 2)
            assert abs(defect - oracle(product)) <= 1e-14 * scale
            return defect

        rng = np.random.default_rng(57)
        closed = closed_model(rng, 6)
        kernel = build_kernel(closed)
        damped = build_kernel(damped_chain(6, eta=3.0, gamma=0.5))
        for points in (2, 101):
            closed_defects = [check(product)
                              for _, product in stepped_products(kernel, 1.5, points)]
            damped_defects = [check(product)
                              for _, product in stepped_products(damped, 1.5, points)]
            assert max(closed_defects) < 1e-11
            assert max(damped_defects) > 1e-3
            assert closed_defects[0] == damped_defects[0] == 0.0  # P_0 = sigma
        for n in (1, 3, 16):  # random, so not symplectic
            for _ in range(4):
                assert check(rng.standard_normal((2 * n, 2 * n))) > 0.0

    def test_negative_dt_rejected(self):
        kernel = build_kernel(damped_chain(2, 2.0, 0.1))
        for t in (-0.1, np.nan, np.inf):  # refused before the step's exponential
            with pytest.raises(ValueError, match="t must be nonnegative"):
                next(stepped_products(kernel, t, 2))

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


def eigh_exp(m):
    """e^M of a real symmetric M from its eigendecomposition: the oracle."""
    w, v = np.linalg.eigh(m)
    return (v * np.exp(w)) @ v.T


class TestMatrixExpScaling:
    """The Pade exponential at every degree and through its squarings."""

    @pytest.fixture
    def pade_calls(self, monkeypatch):
        calls = []  # (degree, 1-norm of the scaled matrix) per approximant
        pade = liebrob.harmonic._pade

        def recording(a, powers, degree):
            calls.append((degree, np.linalg.norm(a, 1)))
            return pade(a, powers, degree)

        monkeypatch.setattr(liebrob.harmonic, "_pade", recording)
        return calls

    @pytest.mark.parametrize("norm, degree, squarings", [
        (0.01, 3, 0), (0.2, 5, 0), (0.9, 7, 0), (2.0, 9, 0), (5.0, 13, 0),
        (40.0, 13, 3), (300.0, 13, 6),
    ])
    def test_symmetric_matches_eigh_at_each_degree(self, pade_calls, norm, degree,
                                                   squarings):
        # symmetric, nonnegative, equal column sums: |M^k|_1 = |M|_1^k, so the
        # degree and the squarings follow the 1-norm
        rng = np.random.default_rng(60)
        m = sum(w * (np.eye(24)[p] + np.eye(24)[p].T)
                for w, p in zip(rng.uniform(0.5, 1.0, 4), (rng.permutation(24) for _ in range(4))))
        m *= norm / np.linalg.norm(m, 1)
        oracle = eigh_exp(m)
        got = matrix_exp(m)
        assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert pade_calls == [(degree, pytest.approx(norm / 2**squarings, rel=1e-15))]

    @pytest.mark.parametrize("dt, squarings", [(1.0, 5), (2.0, 6)])
    def test_theorem3_exponent_of_a_benchmark_model(self, pade_calls, dt, squarings):
        # kappa J dt of the spin_static5 workload: 1-norm 107 at dt = 1, 214 at 2
        root = Path(__file__).resolve().parents[1]
        config = load_config(root / "perfbench" / "golden" / "spin_static5" / "config.json")
        jm = build_j_matrix(config.spin_model, config.time.t)
        m = jm.kappa * jm.matrix * dt
        oracle = eigh_exp(m)
        assert np.abs(matrix_exp(m) - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert [degree for degree, _ in pade_calls] == [13]
        assert np.linalg.norm(m, 1) / pade_calls[0][1] == pytest.approx(2.0**squarings)

    @pytest.mark.parametrize("gamma, a, b", [(0.1, 3.0, 5.0), (0.1, 10.0, 20.0),
                                             (1.0, 3.0, 5.0), (1.0, 10.0, 20.0)])
    def test_damped_chain_semigroup(self, pade_calls, gamma, a, b):
        # S is far from normal; e^{S (a + b)} = e^{S a} e^{S b} holds exactly
        kernel = build_kernel(damped_chain(30, eta=3.0, gamma=gamma))
        together = matrix_exp(kernel * (a + b))
        split = matrix_exp(kernel * a) @ matrix_exp(kernel * b)
        assert np.abs(together - split).max() <= 1e-13 * np.abs(together).max()
        assert pade_calls[0][1] < np.linalg.norm(kernel * (a + b), 1)  # it squared

    @pytest.mark.parametrize("t, squarings", [(0.1, 0), (1.0, 0), (3.0, 0), (100.0, 5)])
    def test_far_from_normal_kernel_is_not_over_scaled(self, pade_calls, t, squarings):
        # A = 1e10, B = 1e-10: unit frequency, but |S t|_1 = 1e10 t. S^2 = -1, so
        # e^{S t} = cos t + S sin t; squarings from |S t|_1 would take 38 at t = 100
        n = 3
        model = HarmonicModel(lattice=build_lattice(n), a=1e10 * np.eye(n),
                              b=1e-10 * np.eye(n), m=np.zeros((n, 2 * n)))
        kernel = build_kernel(model)
        exact = np.cos(t) * np.eye(2 * n) + np.sin(t) * kernel
        got = matrix_exp(kernel * t)
        np.testing.assert_allclose(got, exact, rtol=1e-13, atol=0.0)
        assert np.linalg.norm(kernel * t, 1) / pade_calls[0][1] == 2.0**squarings

    def test_huge_nilpotent_is_exact(self, pade_calls):
        # A^2 = 0, so e^A = 1 + A; from |A|_1 it would take 1018 squarings
        got = matrix_exp(np.array([[0.0, 1e307], [0.0, 0.0]]))
        np.testing.assert_array_equal(got, [[1.0, 1e307], [0.0, 1.0]])
        assert pade_calls == [(3, 1e307)]


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

    def test_only_nonzero_entries_count(self):
        # (1 + 9)^400 leaves the float range, which matters only on a coupled pair
        a = 1.3 * np.eye(10)
        model = HarmonicModel(lattice=build_lattice(10), a=a, b=np.eye(10),
                              m=np.zeros((10, 20)))
        assert c0_fit(model, 400.0) == 1.3
        a[0, 9] = a[9, 0] = 1e-90
        model = HarmonicModel(lattice=build_lattice(10), a=a, b=np.eye(10),
                              m=np.zeros((10, 20)))
        with pytest.raises(ValueError, match=r"c0 is inf at eta = 400\.0"):
            c0_fit(model, 400.0)


class TestTheorem4Bound:
    def test_dt_zero_quarter(self):
        assert theorem4_bound(0.7, 1.0, 1.0, 0.0, 1.0) == pytest.approx(0.25)

    def test_decoupled_system_is_constant_in_dt(self):
        values = [theorem4_bound(0.0, 2.0, 1.5, dt, 2.0) for dt in (0.0, 1.0, 5.0)]
        assert values[0] == values[1] == values[2]
        assert values[0] == pytest.approx(1.0 / (2.0 * 2.0 * 3.0**1.5))

    def test_log_derivative_growth_rate(self):
        from liebrob.bounds import growth_rate

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
        for bad_dt, bad_d in ((-1.0, 0.0), (np.nan, np.nan)):
            with pytest.raises(ValueError):
                theorem4_bound(1.0, 1.0, 1.0, [1.0, bad_dt], 1.0)
            with pytest.raises(ValueError):
                theorem4_bound(1.0, 1.0, 1.0, 1.0, [1.0, bad_d])


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
