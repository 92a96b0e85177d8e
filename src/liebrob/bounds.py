"""The fitted constants, every theorem's right-hand side, and certification.

Constants are certified upper bounds, so an RHS can only be loose. lambda0
is the power-law envelope of one pair-norm matrix T (term-norm bounds at
their sup over the run's [0, t]), J is I + T, and c0 is the envelope of the
harmonic couplings. Theorem 1 is Theorem 2 at N = 1, p1 = p0, one formula and
one overflow rule; Theorem 3 reads every pair from one :func:`theorem3_matrix`
stack over the run's dt grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .harmonic import HarmonicModel
from .lattice import _check_constant, _check_eta
from .lindblad import GKSLModel, HamiltonianTerm, LindbladTerm
from .operators import operator_norm

VIOLATION_TOLERANCE = 1e-9  # multiplicative; separates violations from float noise


def _term_norm_bound(term: HamiltonianTerm | LindbladTerm, sup: float) -> float:
    """Certified inf->inf norm bound of one generator term whose |profile| <= sup.

    Triangle inequality: 2 ||H|| sup for i[H, .], and 2 gamma sup ||L||^2
    for gamma (L^dag . L - {L^dag L, .}/2). A norm beyond the float range
    gives +inf, not an OverflowError.
    """
    norm = operator_norm(term.matrix)
    if isinstance(term, LindbladTerm):
        return 2.0 * term.rate * sup * (norm * norm)
    return 2.0 * norm * sup


def _pair_norms(model: GKSLModel, t: float) -> np.ndarray:
    """T[x, y], x != y: summed norm bounds over [0, t] of the terms on both x and y."""
    pair = np.zeros((model.lattice.n_sites,) * 2)
    for term in model.hamiltonian_terms + model.lindblad_terms:
        bound = _term_norm_bound(term, term.profile.sup_abs_on(0.0, t))
        for x, y in itertools.permutations(term.support, 2):
            pair[x, y] += bound
    return pair


def _envelope(name: str, matrix: np.ndarray, dist: np.ndarray, eta: float) -> float:
    """Minimal c with |X_xy| <= c / [1 + d_xy]^eta: max |X_xy| (1 + d_xy)^eta.

    Only the nonzero entries count, so 0 if there are none. A c outside the
    float range raises ValueError naming ``name`` and eta.
    """
    nonzero = matrix != 0
    with np.errstate(over="ignore"):  # beyond the float range: refused below
        weighted = np.abs(matrix[nonzero]) * (1.0 + dist[nonzero]) ** eta
    c = float(weighted.max(initial=0.0))
    _check_constant(name, c, eta)
    return c


def lambda0_fit(model: GKSLModel, eta: float, t: float) -> float:
    """Minimal lambda0 with T_xy <= lambda0 / [1 + d(x,y)]^eta on the window [0, t]."""
    return _envelope("lambda0", _pair_norms(model, t), model.lattice.dist,
                     _check_eta(eta))


def c0_fit(model: HarmonicModel, eta: float) -> float:
    """Minimal c0 with every |A|, |B|, |M| entry below c0 / [1 + d]^eta.

    Both halves of M are measured against the distance between the Lindblad
    site (its row) and the coordinate site (its column mod n).
    """
    eta = _check_eta(eta)
    n = model.n_sites
    return max(_envelope("c0", block, model.lattice.dist, eta)
               for block in (model.a, model.b, model.m[:, :n], model.m[:, n:]))


def _check_dt(dt) -> np.ndarray:
    """dt as a float array; ValueError unless all of it is nonnegative (not NaN)."""
    dt = np.asarray(dt, dtype=float)
    if not np.all(dt >= 0):
        raise ValueError(f"dt must be nonnegative, got {float(dt.min())}")
    return dt


def _check_distance(d_xy, requirement: str) -> np.ndarray:
    """d_xy as a float array; ValueError(requirement) unless all of it is positive."""
    d_xy = np.asarray(d_xy, dtype=float)
    if not np.all(d_xy > 0):
        raise ValueError(requirement)
    return d_xy


def _vacuous_on_overflow(value, *parts):
    """value, with +inf wherever one of its parts left the float range.

    An infinite RHS is a vacuous bound, never violated. It is taken even
    under a zero prefactor, and where a denominator such as [1 + d]^eta
    overflows, which would otherwise round the bound down to 0. Scalar inputs
    give a scalar.
    """
    overflow = False
    for part in parts:
        overflow = overflow | np.isinf(part)
    return np.where(overflow, math.inf, value)[()]


def theorem2_bound(lambda0: float, p1: float, n_lambda: float, k_norm: float,
                   o_norm: float, size_x: int, size_y: int, eta: float, dt, d_xy):
    """Rescaled-time bound, valid for every eta > 0, elementwise over dt and d_xy.

    C1 (e^{v1 dt / N} - 1) / [1 + d(X,Y)]^eta with C1 = ||K|| ||O|| |X||Y| N / p1
    and v1 = lambda0 p1; N is the lattice rescaling factor. dt and d_xy
    broadcast; an exponential or a distance factor beyond the float range
    gives +inf.
    """
    dt = _check_dt(dt)
    d_xy = _check_distance(d_xy, "the bound requires disjoint supports (d(X,Y) > 0)")
    c1 = k_norm * o_norm * size_x * size_y * n_lambda / p1
    v1 = lambda0 * p1
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.expm1(v1 * dt / n_lambda)
        falloff = np.power(1.0 + d_xy, eta)
        return _vacuous_on_overflow(c1 * growth / falloff, growth, falloff)


def theorem1_bound(lambda0: float, p0: float, k_norm: float, o_norm: float,
                   size_x: int, size_y: int, eta: float, dt, d_xy):
    """Power-law bound C (e^{v dt} - 1) / [1 + d(X,Y)]^eta, for eta above the dimension.

    C = ||K|| ||O|| |X||Y| / p0 and v = lambda0 p0: Theorem 2's RHS at N = 1,
    p1 = p0, so both share one formula and one overflow rule. Every per-pair
    argument broadcasts: (pairs, 1) columns over a dt grid give (pairs, points).
    """
    return theorem2_bound(lambda0, p0, 1.0, k_norm, o_norm, size_x, size_y, eta, dt,
                          d_xy)


@dataclass(frozen=True, eq=False)
class JMatrix:
    """Pairwise term-norm matrix with unit diagonal, and its row-sum constant.

    ``kappa`` is the maximal off-diagonal row sum. The power-series argument
    behind the matrix-exponential bound degenerates for kappa < 1, which
    callers should surface.
    """

    matrix: np.ndarray
    kappa: float
    onsite_excluded: bool


def build_j_matrix(model: GKSLModel, t: float) -> JMatrix | None:
    """J = I + T, with T the pair-norm matrix over the window [0, t].

    Single-site terms are permitted in the model but excluded from J (the
    matrix-exponential bound covers pairwise generators only); their presence
    is recorded in ``onsite_excluded``. A model with a term on three or more
    sites has no J matrix: None.
    """
    sizes = {len(term.support) for term in model.hamiltonian_terms + model.lindblad_terms}
    if max(sizes, default=0) > 2:
        return None
    pair = _pair_norms(model, t)
    return JMatrix(matrix=np.eye(len(pair)) + pair, kappa=float(pair.sum(axis=1).max()),
                   onsite_excluded=1 in sizes)


def theorem3_matrix(jm: JMatrix, dt) -> np.ndarray:
    """exp(kappa J dt) for each dt, stacked along dt's shape.

    Entries are nonnegative and nondecreasing in dt. A dt whose exponential
    leaves the float range gives a matrix of +inf. The exponential is scipy's
    expm, not :func:`matrix_exp`: the benchmark's golden rhs3 holds its rounding.
    """
    import scipy.linalg  # here, not at module level: harmonic runs need no scipy

    dt = _check_dt(dt)
    with np.errstate(over="ignore", invalid="ignore"):
        e = scipy.linalg.expm(jm.kappa * jm.matrix * dt[..., None, None])
    overflow = ~np.isfinite(e).all(axis=(-2, -1))
    return np.where(overflow[..., None, None], math.inf, e)  # vacuous, never violated


def theorem3_bound(stacked: np.ndarray, k_norm, o_norm, i, j):
    """||K|| ||O|| [exp(kappa J dt)]_{i,j} for single sites i != j, per dt.

    ``stacked`` is :func:`theorem3_matrix` over the dt grid. i and j may be
    index arrays of the pairs' sites, with the norms as (pairs, 1) columns:
    the result is then (pairs, points). Every pair must have i != j.
    """
    if np.any(np.asarray(i) == np.asarray(j)):
        raise ValueError("the matrix-exponential bound requires i != j")
    e = np.moveaxis(stacked, (-2, -1), (0, 1))[i, j]
    with np.errstate(over="ignore", invalid="ignore"):
        return _vacuous_on_overflow(k_norm * o_norm * e, e)


def growth_rate(c0: float, p0: float) -> float:
    """The harmonic bound's exponential rate 2 p0 (c0 + p0 c0^2)."""
    return 2.0 * p0 * (c0 + p0 * c0 * c0)


def theorem4_bound(c0: float, p0: float, eta: float, dt, d_xy):
    """e^{rate dt} / (2 p0 [1 + d]^eta) with rate = growth_rate(c0, p0), for d > 0.

    Elementwise over broadcast dt and d_xy; +inf wherever the exponential or
    the denominator leaves the float range.
    """
    dt = _check_dt(dt)
    d_xy = _check_distance(d_xy, "the harmonic bound requires distinct sites (d > 0)")
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.exp(growth_rate(c0, p0) * dt)
        denominator = 2.0 * p0 * np.power(1.0 + d_xy, eta)
        return _vacuous_on_overflow(growth / denominator, growth, denominator)


def certify(lhs, rhs):
    """Pointwise comparison of aligned LHS and RHS arrays: (slack, violated).

    Slack is rhs/lhs, infinite where the LHS vanishes; a point is a violation
    iff lhs > rhs * (1 + VIOLATION_TOLERANCE).
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if lhs.shape != rhs.shape:
        raise ValueError(f"shape mismatch: lhs {lhs.shape} vs rhs {rhs.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = np.where(lhs == 0.0, math.inf, rhs / lhs)
    return slack, lhs > rhs * (1.0 + VIOLATION_TOLERANCE)


def lightcone_arrivals(dt_grid, distances, field, epsilon: float):
    """First threshold crossings of per-distance curves on a shared dt grid.

    ``field[k, j]`` is the curve of ``distances[j]`` at ``dt_grid[k]``. For
    each distance, in the given order, the arrival is the first grid dt whose
    value reaches ``epsilon``, linearly interpolated between the bracketing
    grid points; distances whose curve never reaches the threshold are
    omitted. An arrival inside the first grid interval is read off a line
    drawn from the first grid point, dt = 0 in both engines' runs, which the
    grid does not resolve: a curve that is concave there arrives earlier than
    reported, a convex one later.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    dt_grid = [float(x) for x in dt_grid]
    field = np.asarray(field, dtype=float)
    if field.shape != (len(dt_grid), len(distances)):
        raise ValueError("the field's shape does not match the dt grid and distances")
    arrivals = []
    for distance, values in zip(distances, field.T.tolist()):
        hit = next((k for k, v in enumerate(values) if v >= epsilon), None)
        if hit is None:
            continue
        if hit == 0:
            arrival = dt_grid[0]
        else:
            v0, v1 = values[hit - 1], values[hit]
            t0, t1 = dt_grid[hit - 1], dt_grid[hit]
            arrival = t0 + (epsilon - v0) * (t1 - t0) / (v1 - v0)
        arrivals.append((float(distance), float(arrival)))
    return arrivals
