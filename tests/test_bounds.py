import itertools
import math

import numpy as np
import pytest

from liebrob import (
    GKSLModel,
    HamiltonianTerm,
    JMatrix,
    LindbladTerm,
    assumption_constants,
    build_j_matrix,
    build_lattice,
    certify,
    lambda0_fit,
    lightcone_arrivals,
    matrix_exp,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
    theorem3_matrix,
)
from liebrob.operators import PAULI_X, PAULI_Y, PAULI_Z

from _helpers import c2_path_sum, c3_path_sum, random_matrix


def xy_dephasing_model(n_sites=5, gamma=0.5):
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


class TestLambda0Fit:
    def test_no_multi_site_terms(self):
        lattice = build_lattice(3)
        model = GKSLModel(
            lattice=lattice,
            lindblad_terms=(LindbladTerm(support=(0,), matrix=PAULI_Z, rate=1.0),),
        )
        lambda0 = lambda0_fit(model, 1.0)
        assert lambda0 == 0.0 and isinstance(lambda0, float)

    def test_two_site_single_pair_term(self):
        # ||sx sx|| = 1, so the certified term bound is 2; at distance 1 and
        # eta = 1 the fit gives (1 + 1) * 2 = 4
        lattice = build_lattice(2)
        model = GKSLModel(
            lattice=lattice,
            hamiltonian_terms=(
                HamiltonianTerm(support=(0, 1), matrix=np.kron(PAULI_X, PAULI_X)),
            ),
        )
        assert lambda0_fit(model, 1.0) == pytest.approx(4.0)

    def test_five_chain_brute_force_oracle(self):
        model = xy_dephasing_model()
        lattice = model.lattice
        eta = 2.0
        lambda0 = lambda0_fit(model, eta)
        # independent double loop over pairs, summing certified term bounds
        best = 0.0
        for x in range(5):
            for y in range(5):
                if x == y:
                    continue
                total = 0.0
                for term in model.hamiltonian_terms:
                    if x in term.support and y in term.support:
                        total += 2.0 * np.linalg.svd(term.matrix, compute_uv=False)[0]
                best = max(best, total * (1.0 + lattice.dist[x, y]) ** eta)
        assert lambda0 == pytest.approx(best, rel=1e-12)
        assert lambda0 == pytest.approx(16.0, rel=1e-12)

    def test_fit_satisfies_power_law_inequality(self):
        model = xy_dephasing_model(n_sites=4, gamma=0.2)
        eta = 1.5
        lambda0 = lambda0_fit(model, eta)
        lattice = model.lattice
        attained = 0.0
        for x, y in itertools.permutations(range(4), 2):
            total = 0.0
            for term in model.hamiltonian_terms:
                if x in term.support and y in term.support:
                    total += 2.0 * np.linalg.svd(term.matrix, compute_uv=False)[0]
            envelope = lambda0 / (1.0 + lattice.dist[x, y]) ** eta
            assert total <= envelope * (1.0 + 1e-12)
            attained = max(attained, total / envelope)
        assert attained == pytest.approx(1.0, rel=1e-12)


class TestTheorem1Bound:
    # theorem1_bound(lambda0, p0, k_norm, o_norm, size_x, size_y, eta, dt, d_xy):
    # C = k_norm o_norm |X||Y| / p0 and v = lambda0 p0

    def test_zero_at_dt_zero(self):
        assert theorem1_bound(4.0, 2.0, 2.0, 1.0, 1, 1, 1.0, 0.0, 3.0) == 0.0

    def test_frozen_arithmetic(self):
        # C = v = eta = 1: (e - 1) / 2
        assert theorem1_bound(1.0, 1.0, 1.0, 1.0, 1, 1, 1.0, 1.0, 1.0) == pytest.approx(
            0.8591409142295226, rel=1e-15
        )

    def test_distance_scaling_quarters(self):
        args = (1.3, 1.0, 2.0, 1.0, 1, 1, 2.0, 0.7)  # C = 2, v = 1.3, eta = 2
        near = theorem1_bound(*args, 1.0)
        far = theorem1_bound(*args, 3.0)  # doubles 1 + d
        assert far == pytest.approx(near / 4.0, rel=1e-12)

    def test_monotonicity(self):
        args = (2.0, 1.0, 1.0, 1.0, 1, 1, 1.5)  # C = 1, v = 2, eta = 1.5
        dts = [theorem1_bound(*args, dt, 1.0) for dt in (0.1, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(dts, dts[1:]))
        ds = [theorem1_bound(*args, 1.0, d) for d in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_touching_supports_rejected(self):
        with pytest.raises(ValueError):
            theorem1_bound(4.0, 2.0, 2.0, 1.0, 1, 1, 1.0, 1.0, 0.0)

    def test_commutator_params_formula(self):
        # ||O_X|| = 3 gives k_norm = 6; C = 6 * 2 * 2 * 1 / 4 = 6, v = 5 * 4 = 20
        value = theorem1_bound(lambda0=5.0, p0=4.0, k_norm=6.0, o_norm=2.0, size_x=2,
                               size_y=1, eta=2.0, dt=0.1, d_xy=2.0)
        assert value == pytest.approx(6.0 * math.expm1(2.0) / 9.0, rel=1e-15)

    def test_equals_theorem2_at_unit_rescaling(self):
        # Theorem 1 is Theorem 2 at N = 1, p1 = p0, bit for bit, also where
        # e^{v dt} or [1 + d]^eta overflows
        rng = np.random.default_rng(13)
        dts = np.concatenate([rng.uniform(0.0, 5.0, 40), [0.0, 1e6]])
        distances = np.concatenate([rng.uniform(0.1, 10.0, 30), [1e300]])
        for _ in range(25):
            lambda0, p0, k_norm, o_norm = rng.uniform(0.1, 5.0, 4)
            size_x, size_y = rng.integers(1, 4, 2)
            eta = float(rng.uniform(1.1, 40.0))
            args = (k_norm, o_norm, int(size_x), int(size_y), eta, dts[:, None],
                    distances)
            one = theorem1_bound(lambda0, p0, *args)
            two = theorem2_bound(lambda0, p0, 1.0, *args)
            assert np.array_equal(one, two)
            assert np.isinf(one[-1]).all() and np.isinf(one[:, -1]).all()


class TestTheorem2Bound:
    def test_zero_at_dt_zero(self):
        assert theorem2_bound(4.0, 4.0, 2.0, 2.0, 1.0, 1, 1, 1.0, 0.0, 1.0) == 0.0

    def test_two_site_lattice_matches_size_independent_variant(self):
        # on a 2-site chain the rescaling factor equals 2^eta exactly, so the
        # stated bound and the size-independent variant coincide
        consts = assumption_constants(build_lattice(2), 1.0)
        eta, nl, p1 = consts.eta, consts.n_lambda, consts.p1
        stated = theorem2_bound(4.0, p1, nl, 2.0, 1.0, 1, 1, eta, 0.8, 1.0)
        substituted = theorem2_bound(4.0, p1, 2.0**eta, 2.0, 1.0, 1, 1, eta, 0.8, 1.0)
        assert stated == pytest.approx(substituted, rel=1e-13)

    def test_finite_below_lattice_dimension(self):
        consts = assumption_constants(build_lattice(16), 0.5)
        eta, nl = consts.eta, consts.n_lambda
        value = theorem2_bound(3.0, consts.p1, nl, 2.0, 1.0, 1, 1, eta, 1.0, 2.0)
        assert np.isfinite(value) and value > 0

    def test_monotone_in_dt_and_distance(self):
        args = dict(lambda0=3.0, p1=4.0, n_lambda=1.5, k_norm=2.0, o_norm=1.0,
                    size_x=1, size_y=1, eta=1.5)
        dts = [theorem2_bound(**args, dt=dt, d_xy=1.0) for dt in (0.1, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(dts, dts[1:]))
        ds = [theorem2_bound(**args, dt=1.0, d_xy=d) for d in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_substitution_never_increases(self):
        # N (e^{u/N} - 1) is non-increasing in N, so replacing the rescaling
        # factor by its upper bound 2^eta can only tighten the RHS
        rng = np.random.default_rng(44)
        for _ in range(50):
            eta = float(rng.uniform(0.4, 3.0))
            n_small = float(rng.uniform(0.2, 2.0**eta))
            args = dict(lambda0=float(rng.uniform(0.5, 5.0)),
                        p1=float(rng.uniform(1.0, 6.0)),
                        k_norm=2.0, o_norm=1.0, size_x=1, size_y=1, eta=eta,
                        dt=float(rng.uniform(0.1, 2.0)), d_xy=1.0)
            stated = theorem2_bound(n_lambda=n_small, **args)
            substituted = theorem2_bound(n_lambda=2.0**eta, **args)
            assert substituted <= stated * (1.0 + 1e-12)


class TestArrayGrids:
    """Every RHS evaluates elementwise on a broadcast (dt, distance) grid."""

    DTS = np.linspace(0.0, 3.0, 7)
    DISTANCES = np.array([0.5, 1.0, 2.0, math.sqrt(5.0)])

    def test_theorem1_grid_matches_pointwise_calls(self):
        args = (2.3, 1.0, 1.7, 1.0, 1, 1, 1.37)  # C = 1.7, v = 2.3, eta = 1.37
        grid = theorem1_bound(*args, self.DTS[:, None], self.DISTANCES)
        assert grid.shape == (7, 4)
        np.testing.assert_array_equal(
            grid, [[theorem1_bound(*args, dt, d) for d in self.DISTANCES]
                   for dt in self.DTS])

    def test_theorem2_grid_matches_pointwise_calls(self):
        args = (3.0, 4.0, 1.5, 2.0, 1.0, 1, 2, 1.37)
        grid = theorem2_bound(*args, self.DTS[:, None], self.DISTANCES)
        np.testing.assert_array_equal(
            grid, [[theorem2_bound(*args, dt, d) for d in self.DISTANCES]
                   for dt in self.DTS])

    def test_theorem3_grid_matches_pointwise_calls(self):
        jm = build_j_matrix(xy_dephasing_model(n_sites=4), 1.0)
        stacked = theorem3_matrix(jm, self.DTS)
        assert stacked.shape == (7, 4, 4)
        for dt, e in zip(self.DTS, stacked):
            np.testing.assert_array_equal(e, theorem3_matrix(jm, dt))
            np.testing.assert_array_equal(e, matrix_exp(jm.kappa * jm.matrix * dt))
        np.testing.assert_array_equal(theorem3_bound(stacked, 2.0, 1.0, 0, 3),
                                      2.0 * stacked[:, 0, 3])

    def test_scalar_arguments_give_scalars(self):
        jm = JMatrix(matrix=np.eye(2), kappa=0.0, onsite_excluded=False)
        for value in (theorem1_bound(1.0, 1.0, 1.0, 1.0, 1, 1, 1.0, 0.5, 1.0),
                      theorem2_bound(4.0, 4.0, 2.0, 2.0, 1.0, 1, 1, 1.0, 0.5, 1.0),
                      theorem3_bound(theorem3_matrix(jm, 0.5), 1.0, 1.0, 0, 1)):
            assert isinstance(value, float) and np.ndim(value) == 0

    def test_overflow_is_infinite_even_under_a_zero_prefactor(self):
        for c in (0.0, 1.0):
            values = theorem1_bound(1.0, 1.0, c, 1.0, 1, 1, 1.0, [1.0, 800.0], 1.0)
            assert values[0] == pytest.approx(c * math.expm1(1.0) / 2.0, rel=1e-15)
            assert values[1] == math.inf
            values = theorem2_bound(1.0, 1.0, 1.0, c, 1.0, 1, 1, 1.0, [1.0, 800.0], 1.0)
            assert np.isfinite(values[0]) and values[1] == math.inf
        jm = JMatrix(matrix=np.array([[1.0, 1.0], [1.0, 1.0]]), kappa=1.0,
                     onsite_excluded=False)
        stacked = theorem3_matrix(jm, [1.0, 400.0])
        assert np.all(np.isfinite(stacked[0])) and np.all(stacked[1] == math.inf)
        np.testing.assert_array_equal(theorem3_bound(stacked, 0.0, 1.0, 0, 1),
                                      [0.0, math.inf])

    def test_overflowing_distance_factor_is_vacuous(self):
        # [1 + d]^eta beyond the float range would round the bound down to 0,
        # a false violation for any positive LHS
        values = theorem1_bound(1.0, 1.0, 1.0, 1.0, 1, 1, 40.0, 1.0, [1.0, 1e10])
        assert 0.0 < values[0] < math.inf and values[1] == math.inf
        values = theorem2_bound(1.0, 1.0, 1.0, 1.0, 1.0, 1, 1, 40.0, 1.0, [1.0, 1e10])
        assert 0.0 < values[0] < math.inf and values[1] == math.inf

    def test_negative_dt_anywhere_rejected(self):
        args = (1.0, 1.0, 1.0, 1.0, 1, 1, 1.0)
        jm = JMatrix(matrix=np.eye(2), kappa=0.0, onsite_excluded=False)
        with pytest.raises(ValueError, match="nonnegative"):
            theorem1_bound(*args, [0.0, -1e-3], 1.0)
        with pytest.raises(ValueError, match="disjoint"):
            theorem1_bound(*args, 1.0, [1.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            theorem2_bound(4.0, 4.0, 2.0, 2.0, 1.0, 1, 1, 1.0, [0.5, -0.5], 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            theorem3_matrix(jm, [0.5, -0.5])


class TestJMatrix:
    def test_no_pair_terms_gives_identity(self):
        lattice = build_lattice(3)
        model = GKSLModel(
            lattice=lattice,
            lindblad_terms=(LindbladTerm(support=(1,), matrix=PAULI_Z, rate=0.5),),
        )
        jm = build_j_matrix(model, 1.0)
        np.testing.assert_array_equal(jm.matrix, np.eye(3))
        assert jm.kappa == 0.0
        assert jm.onsite_excluded

    def test_uniform_pair_chain(self):
        lattice = build_lattice(2)
        model = GKSLModel(
            lattice=lattice,
            hamiltonian_terms=(
                HamiltonianTerm(support=(0, 1),
                                matrix=0.35 * np.kron(PAULI_X, PAULI_X)),
            ),
        )
        jm = build_j_matrix(model, 1.0)
        np.testing.assert_allclose(jm.matrix, [[1.0, 0.7], [0.7, 1.0]])
        assert jm.kappa == pytest.approx(0.7)
        assert not jm.onsite_excluded

    def test_five_chain_inverse_square_row_sum(self):
        model = xy_dephasing_model()
        jm = build_j_matrix(model, 2.0)
        # certified pair bound is 4/d^2; middle-site row sum 4(1+1+1/4+1/4) = 10
        assert jm.kappa == pytest.approx(10.0, rel=1e-12)
        assert jm.onsite_excluded
        np.testing.assert_array_equal(np.diag(jm.matrix), np.ones(5))
        np.testing.assert_allclose(jm.matrix, jm.matrix.T)

    def test_three_site_terms_rejected(self):
        lattice = build_lattice(3)
        model = GKSLModel(
            lattice=lattice,
            hamiltonian_terms=(
                HamiltonianTerm(
                    support=(0, 1, 2),
                    matrix=np.kron(PAULI_Z, np.kron(PAULI_Z, PAULI_Z)),
                ),
            ),
        )
        with pytest.raises(ValueError, match="pairwise"):
            build_j_matrix(model, 1.0)


class TestTheorem3Bound:
    def test_zero_at_dt_zero(self):
        jm = JMatrix(matrix=np.array([[1.0, 0.4], [0.4, 1.0]]), kappa=0.4,
                     onsite_excluded=False)
        assert theorem3_bound(theorem3_matrix(jm, 0.0), 2.0, 1.0, 0, 1) == 0.0

    def test_two_site_closed_form(self):
        # exp(kappa J dt) with kappa = a has off-diagonal e^{a dt} sinh(a^2 dt)
        a, dt = 0.9, 1.3
        jm = JMatrix(matrix=np.array([[1.0, a], [a, 1.0]]), kappa=a,
                     onsite_excluded=False)
        value = theorem3_bound(theorem3_matrix(jm, dt), 1.0, 1.0, 0, 1)
        assert value == pytest.approx(np.exp(a * dt) * np.sinh(a * a * dt),
                                      rel=1e-10)

    def test_entries_nonnegative_and_nondecreasing(self):
        rng = np.random.default_rng(45)
        j = np.abs(rng.standard_normal((4, 4)))
        j = 0.5 * (j + j.T)
        np.fill_diagonal(j, 1.0)
        kappa = float((j - np.eye(4)).sum(axis=1).max())
        jm = JMatrix(matrix=j, kappa=kappa, onsite_excluded=False)
        previous = np.zeros((4, 4))
        for dt in (0.0, 0.2, 0.5, 1.0):
            current = theorem3_matrix(jm, dt)
            assert np.all(current >= -1e-15)
            off = ~np.eye(4, dtype=bool)
            assert np.all(current[off] >= previous[off] - 1e-12)
            previous = current

    def test_same_site_rejected(self):
        jm = JMatrix(matrix=np.eye(2), kappa=0.0, onsite_excluded=False)
        with pytest.raises(ValueError):
            theorem3_bound(theorem3_matrix(jm, 0.5), 1.0, 1.0, 1, 1)


class TestMatrixExp:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matrix_exp(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(out, np.diag([np.e, np.exp(-2.0)]), rtol=1e-14)

    def taylor_oracle(self, m, terms=30):
        out = np.eye(m.shape[0], dtype=complex)
        power = np.eye(m.shape[0], dtype=complex)
        for k in range(1, terms + 1):
            power = power @ m / k
            out = out + power
        return out

    def test_matches_truncated_taylor_with_remainder(self):
        # for ||M|| <= 1, thirty Taylor terms leave a remainder below 1e-33
        rng = np.random.default_rng(46)
        for _ in range(10):
            m = random_matrix(rng, 8)
            m = m / np.linalg.svd(m, compute_uv=False)[0]
            oracle = self.taylor_oracle(m)
            got = matrix_exp(m)
            rel = np.abs(got - oracle).max() / np.abs(oracle).max()
            assert rel < 1e-12

    def test_semigroup_on_commuting_pair(self):
        rng = np.random.default_rng(47)
        m = random_matrix(rng, 6)
        m = m / np.linalg.svd(m, compute_uv=False)[0]
        s, t = 0.6, 1.1
        together = matrix_exp((s + t) * m)
        split = matrix_exp(s * m) @ matrix_exp(t * m)
        assert np.abs(together - split).max() < 1e-10

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            matrix_exp(np.diag([1.0e5, 0.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            matrix_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def random_j_matrix(rng, n, low=0.3, high=1.2):
    j = rng.uniform(low, high, size=(n, n))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 1.0)
    kappa = float((j - np.eye(n)).sum(axis=1).max())
    return j, kappa


def enumerate_pair_paths(j, i, k, length):
    """First-principles coefficient: sum over chains of overlapping pair supports.

    Z_1 must intersect {i}, each Z_m+1 must intersect Z_m, and the last
    support must contain k; the weight of {a, b} is J[a, b].
    """
    n = j.shape[0]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    total = 0.0
    for chain in itertools.product(pairs, repeat=length):
        if i not in chain[0]:
            continue
        if k not in chain[-1]:
            continue
        if any(not (set(chain[m]) & set(chain[m + 1])) for m in range(length - 1)):
            continue
        weight = 1.0
        for a, b in chain:
            weight *= j[a, b]
        total += weight
    return total


class TestPathSums:
    def test_two_site_analytic_c2(self):
        # single coupled pair: the three-sum expansion evaluates to 2 a^2
        a = 0.7
        j = np.array([[1.0, a], [a, 1.0]])
        assert c2_path_sum(j, 0, 1) == pytest.approx(2.0 * a * a, rel=1e-14)

    def test_expansions_dominate_enumeration(self):
        # the closed-form expansions over-count some coincident-support chains,
        # so they upper-bound the first-principles enumeration
        rng = np.random.default_rng(48)
        for n in (3, 4):
            j, _ = random_j_matrix(rng, n)
            for i, k in itertools.permutations(range(n), 2):
                enum2 = enumerate_pair_paths(j, i, k, 2)
                enum3 = enumerate_pair_paths(j, i, k, 3)
                assert enum2 <= c2_path_sum(j, i, k) * (1.0 + 1e-12)
                assert enum3 <= c3_path_sum(j, i, k) * (1.0 + 1e-12)

    def test_coefficients_below_kappa_matrix_powers(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            j, kappa = random_j_matrix(rng, n)
            assert kappa >= 1.0  # the power-series argument needs kappa >= 1
            j2 = j @ j
            j3 = j2 @ j
            for i, k in itertools.permutations(range(n), 2):
                assert c2_path_sum(j, i, k) <= kappa**2 * j2[i, k] * (1 + 1e-12)
                assert c3_path_sum(j, i, k) <= kappa**3 * j3[i, k] * (1 + 1e-12)


class TestCertify:
    def test_three_qubit_end_to_end_has_no_violations(self):
        from liebrob import commutator_norm_curves
        from liebrob.operators import local_operator

        model = xy_dephasing_model(n_sites=3, gamma=0.5)
        lattice = model.lattice
        eta = 2.0
        t = 1.5
        lambda0 = lambda0_fit(model, eta)
        p0 = assumption_constants(lattice, eta).p0
        curve = commutator_norm_curves(
            model, [(local_operator(PAULI_Z, (0,)), local_operator(PAULI_Z, (2,)))],
            t, 11,
        )[0]
        rhs = theorem1_bound(lambda0, p0, 2.0, 1.0, 1, 1, eta,
                             t - np.linspace(0.0, t, 11), 2.0)
        slack, violated = certify(curve, rhs)
        assert not violated.any()
        assert slack.min() > 1.0

    def test_zero_lhs_gives_infinite_slack(self):
        slack, violated = certify(np.zeros(3), np.ones(3))
        assert np.all(slack == math.inf) and not violated.any()

    def test_equal_curves_have_unit_slack(self):
        slack, violated = certify([2.0, 2.0], [2.0, 2.0])
        assert np.all(slack == 1.0) and not violated.any()

    def test_violation_threshold(self):
        _, violated = certify([1.0 + 2e-9], [1.0])
        assert violated[0]
        _, violated = certify([1.0 + 5e-10], [1.0])
        assert not violated[0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            certify([1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            certify(np.ones((2, 3)), np.ones(3))


class TestLightconeArrivals:
    def test_all_below_threshold(self):
        assert lightcone_arrivals([0.0, 1.0], {1.0: [0.0, 0.1]}, 0.5) == []

    def test_linear_field(self):
        grid = np.linspace(0.0, 1.0, 5)
        curves = {d: list(grid) for d in (1.0, 2.0, 3.0)}
        arrivals = lightcone_arrivals(grid, curves, 0.5)
        assert arrivals == [(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)]

    def test_bracketing_interpolation(self):
        arrivals = lightcone_arrivals([0.0, 1.0, 2.0], {1.0: [0.0, 0.2, 1.0]}, 0.6)
        assert arrivals == [(1.0, 1.5)]

    def test_immediate_crossing_uses_first_point(self):
        arrivals = lightcone_arrivals([0.0, 1.0], {1.0: [0.7, 0.9]}, 0.5)
        assert arrivals == [(1.0, 0.0)]

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            lightcone_arrivals([0.0], {1.0: [0.0]}, 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lightcone_arrivals([0.0, 1.0], {1.0: [0.0]}, 0.5)
