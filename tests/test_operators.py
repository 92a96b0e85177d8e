import numpy as np
import pytest
from scipy.stats import unitary_group

from liebrob import (
    GKSLModel,
    HamiltonianTerm,
    LindbladTerm,
    TimeProfile,
    build_lattice,
)
from liebrob.bounds import _term_norm_bound
from liebrob.operators import (
    PAULI_X,
    PAULI_Z,
    act,
    embed,
    local_operator,
    named_operator,
    operator_norm,
    support_distance,
    unvec,
    vec,
)

from _helpers import (
    SuperoperatorNormBound,
    apply_adjoint_term,
    generator,
    random_channel_superop,
    random_hermitian,
    random_matrix,
    schatten_norm,
    superop_norm_1to1_estimate,
    superop_norm_inf_estimate,
)


def test_vec_column_stacking_identity():
    rng = np.random.default_rng(11)
    x, y, z = (random_matrix(rng, 4) for _ in range(3))
    np.testing.assert_allclose(vec(x @ y @ z), np.kron(z.T, x) @ vec(y))
    np.testing.assert_allclose(unvec(vec(y)), y)


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        lat = build_lattice(2)
        out = embed(np.eye(2, dtype=complex), (0,), lat)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, np.eye(4))

    def test_pauli_x_on_first_site(self):
        lat = build_lattice(2)
        out = embed(PAULI_X, (0,), lat)
        np.testing.assert_allclose(out, np.kron(PAULI_X, np.eye(2)))

    def test_pauli_x_on_second_site(self):
        lat = build_lattice(2)
        out = embed(PAULI_X, (1,), lat)
        np.testing.assert_allclose(out, np.kron(np.eye(2), PAULI_X))

    def test_product_of_embeddings_matches_kron(self):
        rng = np.random.default_rng(5)
        lat = build_lattice(2)
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 2)
        product = embed(a, (0,), lat) @ embed(b, (1,), lat)
        joint = embed(np.kron(a, b), (0, 1), lat)
        np.testing.assert_allclose(product, joint, atol=1e-12)

    def test_non_adjacent_pair_against_manual_kron(self):
        rng = np.random.default_rng(6)
        lat = build_lattice(3)
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 2)
        joint = embed(np.kron(a, b), (0, 2), lat)
        manual = np.kron(np.kron(a, np.eye(2)), b)
        np.testing.assert_allclose(joint, manual, atol=1e-12)

    def test_support_order_sets_factor_assignment(self):
        rng = np.random.default_rng(7)
        lat = build_lattice(2)
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 2)
        swapped = embed(np.kron(a, b), (1, 0), lat)
        np.testing.assert_allclose(swapped, np.kron(b, a), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        lat = build_lattice(3)
        with pytest.raises(ValueError):
            embed(np.eye(2, dtype=complex), (0, 1), lat)

    def test_support_out_of_range_rejected(self):
        lat = build_lattice(2)
        with pytest.raises(ValueError):
            embed(PAULI_X, (5,), lat)

    def test_qutrit_embedding(self):
        rng = np.random.default_rng(8)
        lat = build_lattice(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = embed(a, (1,), lat, dim_per_site=3)
        np.testing.assert_allclose(out, np.kron(np.eye(3), a), atol=1e-12)
        assert out.shape == (9, 9)


class TestAct:
    """act(matrix, support, block) against the product with the embedding."""

    @pytest.mark.parametrize("dim_per_site, n_sites, support", [
        (2, 4, (1, 2)),     # two adjacent sites
        (2, 4, (2, 1)),     # unsorted
        (2, 4, (3, 0)),     # unsorted and non-adjacent
        (2, 4, (3, 0, 2)),  # three sites
        (3, 3, (2, 0)),     # qutrits
        (3, 3, (1,)),
    ])
    @pytest.mark.parametrize("columns", [1, 5, "transposed"])
    def test_matches_embedded_product(self, dim_per_site, n_sites, support, columns):
        rng = np.random.default_rng(12)
        dim = dim_per_site**n_sites
        local = random_matrix(rng, dim_per_site ** len(support))
        if columns == "transposed":  # a square block that is not C-contiguous
            block = random_matrix(rng, dim).T
        else:
            block = rng.standard_normal((dim, columns)) + 1j * rng.standard_normal(
                (dim, columns))
        out = act(local, support, block, n_sites, dim_per_site)
        assert out.shape == block.shape
        expected = embed(local, support, build_lattice(n_sites), dim_per_site) @ block
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_non_adjacent_unsorted_pair_against_manual_kron(self):
        # a on site 3 and b on site 0 of 4: the full matrix is b x I x I x a
        rng = np.random.default_rng(13)
        a, b = random_matrix(rng, 2), random_matrix(rng, 2)
        block = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        manual = np.kron(np.kron(b, np.eye(4)), a)
        np.testing.assert_allclose(act(np.kron(a, b), (3, 0), block, 4, 2),
                                   manual @ block, rtol=0, atol=1e-12)

    def test_pauli_z_action_is_exact(self):
        # one nonzero per row: the same bits as the dense product
        rng = np.random.default_rng(14)
        block = random_matrix(rng, 32)
        full = embed(PAULI_Z, (2,), build_lattice(5))
        np.testing.assert_array_equal(act(PAULI_Z, (2,), block, 5, 2), full @ block)
        np.testing.assert_array_equal(act(PAULI_Z.T, (2,), block.T, 5, 2).T,
                                      block @ full)


class TestSchattenNorm:
    def test_pauli_x_infinity(self):
        assert schatten_norm(PAULI_X, np.inf) == 1.0

    def test_pauli_x_trace_norm(self):
        assert schatten_norm(PAULI_X, 1) == pytest.approx(2.0)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            schatten_norm(PAULI_X, 0.5)

    @pytest.mark.parametrize("p", [1, 2, 3.5, np.inf])
    def test_unitary_invariance(self, p):
        rng = np.random.default_rng(12)
        a = random_matrix(rng, 4)
        u = unitary_group.rvs(4, random_state=101)
        v = unitary_group.rvs(4, random_state=102)
        assert schatten_norm(u @ a @ v.conj().T, p) == pytest.approx(
            schatten_norm(a, p), rel=1e-11
        )

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_submultiplicativity(self, p):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = random_matrix(rng, 4)
            b = random_matrix(rng, 4)
            assert schatten_norm(a @ b, p) <= (
                schatten_norm(a, p) * schatten_norm(b, p) * (1.0 + 1e-12)
            )


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(7, dtype=complex)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, -1.0]).astype(complex)) == 3.0

    def test_hermitian_matches_eigensolver(self):
        rng = np.random.default_rng(14)
        m = random_matrix(rng, 16)
        h = 0.5 * (m + m.conj().T)
        assert operator_norm(h) == pytest.approx(
            np.abs(np.linalg.eigvalsh(h)).max(), rel=1e-12
        )


class TestSupportDistance:
    def test_far_pair_on_chain(self):
        lat = build_lattice(5)
        assert support_distance((0,), (4,), lat) == 4.0

    def test_equal_sets(self):
        lat = build_lattice(5)
        assert support_distance((1, 2), (1, 2), lat) == 0.0

    def test_min_over_pairs(self):
        lat = build_lattice(5)
        assert support_distance((0, 1), (3, 4), lat) == 2.0

    def test_empty_rejected(self):
        lat = build_lattice(3)
        with pytest.raises(ValueError):
            support_distance((), (0,), lat)


def term_model(n_sites, h=None, lindblads=(), profile=TimeProfile()):
    """One Hamiltonian term and Lindblad terms, all on every site of a chain."""
    support = tuple(range(n_sites))
    return GKSLModel(
        lattice=build_lattice(n_sites),
        hamiltonian_terms=() if h is None else (HamiltonianTerm(support, h, profile),),
        lindblad_terms=tuple(LindbladTerm(support, l, gamma, profile)
                             for l, gamma in lindblads),
    )


def support_bound(model):
    """The summed certified norm bounds of a term_model's terms over [0, 1]."""
    return sum(_term_norm_bound(term, term.profile.sup_abs_on(0.0, 1.0))
               for term in model.hamiltonian_terms + model.lindblad_terms)


class TestAdjointTermNormUpper:
    """The certified inf->inf bound of a local adjoint-generator term.

    ``bounds._term_norm_bound`` gives it per term, and a support set sums
    them: 2 ||H|| sup|f| + sum_v 2 gamma_v sup|f| ||L_v||^2 by the triangle
    inequality.
    """

    def test_pure_dephasing(self):
        bound = support_bound(term_model(1, lindblads=[(PAULI_Z, 1.0)]))
        assert bound == pytest.approx(2.0)
        # the bound is attained on pauli_x: ||sz sx sz - sx|| = 2
        action = apply_adjoint_term(None, [(PAULI_Z, 1.0)], PAULI_X)
        assert operator_norm(action) == pytest.approx(2.0)

    def test_hamiltonian_only(self):
        assert support_bound(term_model(1, h=PAULI_Z)) == pytest.approx(2.0)

    def test_empty_term(self):
        assert support_bound(term_model(1)) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            term_model(1, lindblads=[(PAULI_Z, -0.1)])

    def test_certified_above_sampled_ratios(self):
        rng = np.random.default_rng(17)
        h = random_hermitian(rng, 4)  # a model's Hamiltonian terms are Hermitian
        lindblads = [(random_matrix(rng, 4), 0.3), (random_matrix(rng, 4), 0.8)]
        bound = support_bound(term_model(2, h, lindblads))
        for _ in range(1000):
            a = random_matrix(rng, 4)
            if rng.random() < 0.5:
                a = a + a.conj().T
            ratio = operator_norm(apply_adjoint_term(h, lindblads, a)) / operator_norm(a)
            assert ratio <= bound * (1.0 + 1e-10)

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_estimated_lower_norm_below_certified_bound(self, n_sites):
        # the estimator's lower value is attained by some input, so it can
        # never exceed a sound upper bound on the same term
        rng = np.random.default_rng(22 + n_sites)
        dim = 2**n_sites
        for trial in range(4):
            h = random_hermitian(rng, dim)
            lindblads = [(random_matrix(rng, dim), float(rng.uniform(0.05, 1.0)))
                         for _ in range(2)]
            amplitude = float(rng.uniform(0.3, 2.0))
            model = term_model(n_sites, h, lindblads, TimeProfile(amplitude=amplitude))
            bound = support_bound(model)
            est = superop_norm_inf_estimate(generator(model, adjoint=True).toarray(),
                                            restarts=4, seed=trial)
            assert 0.0 < est.lower <= bound * (1.0 + 1e-12)


class TestSuperopNormEstimate:
    def test_identity_superoperator(self):
        # the relaxation-based upper is sqrt(d) even though the true norm is 1
        est = superop_norm_1to1_estimate(np.eye(16, dtype=complex), restarts=4)
        assert est.lower == pytest.approx(1.0, abs=1e-9)
        assert est.upper == pytest.approx(2.0, rel=1e-12)

    def test_channel_lower_converges_to_one(self):
        rng = np.random.default_rng(18)
        superop, _ = random_channel_superop(rng, 3)
        est = superop_norm_1to1_estimate(superop, restarts=8, seed=3)
        assert est.lower == pytest.approx(1.0, abs=2e-3)
        assert est.lower <= est.upper

    def test_duality_with_adjoint(self):
        rng = np.random.default_rng(19)
        superop, _ = random_channel_superop(rng, 3)
        direct = superop_norm_1to1_estimate(superop, restarts=6, seed=5)
        dual = superop_norm_inf_estimate(superop.conj().T, restarts=6, seed=5)
        assert dual.lower == pytest.approx(direct.lower, abs=1e-3)

    def test_upper_bounds_trace_norm_growth(self):
        rng = np.random.default_rng(20)
        t = random_matrix(rng, 16)  # acts on 4x4 operators
        est = superop_norm_1to1_estimate(t, restarts=4)
        for _ in range(20):
            a = random_matrix(rng, 4)
            grown = schatten_norm(unvec(t @ vec(a)), 1)
            assert grown <= est.upper * schatten_norm(a, 1) * (1.0 + 1e-10)

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(21)
        for seed in range(5):
            t = random_matrix(rng, 9)
            est = superop_norm_1to1_estimate(t, restarts=3, seed=seed)
            assert est.lower <= est.upper

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            superop_norm_1to1_estimate(np.eye(32**2, dtype=complex))

    def test_bound_invariant_enforced(self):
        with pytest.raises(ValueError):
            SuperoperatorNormBound(lower=2.0, upper=1.0)


def test_named_operator_lookup():
    np.testing.assert_allclose(named_operator("pauli_x"), PAULI_X)
    raising = named_operator("raising")
    ket0 = np.array([1.0, 0.0])
    np.testing.assert_allclose(raising @ ket0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        named_operator("hadamard")


def test_local_operator_validation():
    with pytest.raises(ValueError):
        local_operator(np.eye(3), (0,))
    op = local_operator(np.kron(PAULI_X, PAULI_X), (0, 1))
    assert op.support == (0, 1)
    assert op.matrix.shape == (4, 4)
