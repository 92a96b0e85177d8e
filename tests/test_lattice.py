import itertools

import numpy as np
import pytest

from liebrob import (
    assumption_constants,
    build_lattice,
    extensivity_sup,
    n_lambda,
    p0_constant,
)


def brute_force_p0(lattice, eta):
    """Direct double loop over pairs with an inner summation over z."""
    n = lattice.n_sites
    d = lattice.dist
    best = 0.0
    for x in range(n):
        for y in range(n):
            total = sum(
                1.0 / ((1.0 + d[x, z]) ** eta * (1.0 + d[z, y]) ** eta)
                for z in range(n)
            )
            best = max(best, total * (1.0 + d[x, y]) ** eta)
    return best


class TestBuildLattice:
    def test_two_site_chain(self):
        lat = build_lattice(2)
        assert lat.dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_grid_opposite_corners_manhattan(self):
        lat = build_lattice((2, 2), metric="manhattan")
        assert lat.dist[0, 3] == 2.0

    def test_chain_path_length(self):
        lat = build_lattice(5)
        assert lat.dist[0, 4] == 4.0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            build_lattice((0,))
        with pytest.raises(ValueError):
            build_lattice(())
        with pytest.raises(ValueError):
            build_lattice((3, 0, 2))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            build_lattice(4, metric="chebyshev")

    def test_symmetry_and_diagonal(self):
        lat = build_lattice((3, 4), metric="euclidean")
        np.testing.assert_allclose(lat.dist, lat.dist.T)
        assert np.all(np.diag(lat.dist) == 0.0)
        off = lat.dist[~np.eye(lat.n_sites, dtype=bool)]
        assert np.all(off > 0.0)

    @pytest.mark.parametrize(
        "sides,metric",
        [((8,), "graph"), ((3, 4), "manhattan"), ((3, 3), "euclidean"),
         ((2, 2, 2), "euclidean")],
    )
    def test_triangle_inequality_exhaustive(self, sides, metric):
        lat = build_lattice(sides, metric=metric)
        d = lat.dist
        n = lat.n_sites
        for x, y, z in itertools.product(range(n), repeat=3):
            assert d[x, y] <= d[x, z] + d[z, y] + 1e-12


class TestP0Constant:
    def test_single_site(self):
        assert p0_constant(build_lattice(1), 1.3) == 1.0

    def test_two_site_chain_eta_one(self):
        # x != y: sum is 1/2 + 1/2 = 1 against [1+d]^eta = 2
        assert p0_constant(build_lattice(2), 1.0) == 2.0

    def test_eight_site_chain_eta_two_oracle(self):
        lat = build_lattice(8)
        value = p0_constant(lat, 2.0)
        assert value == pytest.approx(brute_force_p0(lat, 2.0), rel=1e-13)
        assert value == pytest.approx(3.5873469387755104, rel=1e-13)

    def test_inequality_holds_with_equality_attained(self):
        lat = build_lattice((3, 3))
        eta = 1.7
        p0 = p0_constant(lat, eta)
        k = (1.0 + lat.dist) ** (-eta)
        lhs = k @ k
        rhs = p0 * k
        assert np.all(lhs <= rhs * (1.0 + 1e-12))
        assert np.isclose((lhs / k).max(), p0, rtol=1e-13)

    def test_nonincreasing_in_eta(self):
        lat = build_lattice(12)
        values = [p0_constant(lat, eta) for eta in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            p0_constant(build_lattice(3), 0.0)


class TestExtensivitySup:
    def test_single_site(self):
        assert extensivity_sup(build_lattice(1), 2.0) == 1.0

    def test_two_site_chain(self):
        assert extensivity_sup(build_lattice(2), 1.0) == 1.5

    def test_hundred_site_chain_eta_two(self):
        lat = build_lattice(100)
        value = extensivity_sup(lat, 2.0)
        oracle = max(
            sum(1.0 / (1.0 + lat.dist[x, y]) ** 2 for y in range(100))
            for x in range(100)
        )
        assert value == pytest.approx(oracle, rel=1e-13)
        # two-sided zeta comparison: the sup stays below 1 + pi^2/3
        assert value < 1.0 + np.pi**2 / 3.0

    def test_growing_chain_trend(self):
        values = [extensivity_sup(build_lattice(n), 1.0) for n in (2, 4, 8, 16, 32)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_eta(self):
        lat = build_lattice((4, 4))
        values = [extensivity_sup(lat, eta) for eta in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestNLambda:
    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_two_site_chain_saturates_bound(self, eta):
        # single off-site term 2^-eta, so the rescaling factor is exactly 2^eta
        assert n_lambda(build_lattice(2), eta) == pytest.approx(2.0**eta, rel=1e-13)

    def test_three_site_chain_eta_one(self):
        # off-site row sums: middle site 1/2 + 1/2 = 1 (the sup), ends 1/2 + 1/3
        lat = build_lattice(3)
        oracle = 1.0 / max(
            sum(1.0 / (1.0 + lat.dist[x, y]) for y in range(3) if y != x)
            for x in range(3)
        )
        assert oracle == 1.0
        assert n_lambda(lat, 1.0) == pytest.approx(oracle, rel=1e-13)

    def test_single_site_rejected(self):
        with pytest.raises(ValueError):
            n_lambda(build_lattice(1), 1.0)

    def test_finite_when_the_kernel_underflows(self):
        # eta = 800 on a 5-site chain: 1 + sum_{y != x} k(x, y) rounds to 1,
        # but the off-site sum itself peaks at 2 * 2^-800 on an interior site
        value = n_lambda(build_lattice(5), 800.0)
        assert value == pytest.approx(2.0**800 / 2.0, rel=1e-12)

    def test_never_exceeds_two_to_eta(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            if rng.random() < 0.5:
                sides = (int(rng.integers(2, 21)),)
            else:
                sides = tuple(int(s) for s in rng.integers(2, 6, size=2))
            metric = rng.choice(["graph", "manhattan", "euclidean"])
            eta = float(rng.uniform(0.3, 4.0))
            lat = build_lattice(sides, metric=str(metric))
            assert n_lambda(lat, eta) <= 2.0**eta * (1.0 + 1e-12)


class TestP1Constant:
    def test_two_site_chain_eta_one(self):
        assert assumption_constants(build_lattice(2), 1.0).p1 == 4.0

    def test_product_identity(self):
        lat = build_lattice((3, 3))
        eta = 1.4
        p1 = assumption_constants(lat, eta).p1
        assert p1 == n_lambda(lat, eta) * p0_constant(lat, eta)

    def test_finite_below_lattice_dimension(self):
        # eta < D = 1: the extensivity criterion degrades but p1 stays finite
        value = assumption_constants(build_lattice(16), 0.5).p1
        assert np.isfinite(value) and value > 0

    def test_diagonal_pair_specialization(self):
        lat = build_lattice(6)
        eta = 1.0
        p1 = assumption_constants(lat, eta).p1
        nl = n_lambda(lat, eta)
        for x in range(6):
            constraint = nl * sum(
                1.0 / (1.0 + lat.dist[x, z]) ** (2 * eta) for z in range(6)
            )
            assert constraint <= p1 * (1.0 + 1e-12)


class TestAssumptionConstants:
    def test_bundle_matches_pieces(self):
        lat = build_lattice(7)
        consts = assumption_constants(lat, 2.0)
        assert consts.p0 == p0_constant(lat, 2.0)
        assert consts.extensivity_sup == extensivity_sup(lat, 2.0)
        assert consts.n_lambda == n_lambda(lat, 2.0)
        assert consts.p1 == consts.n_lambda * consts.p0
        assert consts.p0 >= 1.0

    def test_non_finite_constant_names_itself_and_eta(self):
        # the kernel underflows to 0 off the diagonal, so p0's (k @ k) / k is 0/0
        with pytest.raises(ValueError, match=r"p0 is nan at eta = 800\.0"):
            assumption_constants(build_lattice(5), 800.0)

    def test_single_site_has_no_rescaling(self):
        consts = assumption_constants(build_lattice(1), 1.0)
        assert consts.p0 == 1.0
        assert consts.n_lambda is None
        assert consts.p1 is None
