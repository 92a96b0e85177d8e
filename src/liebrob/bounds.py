"""Bound constants, right-hand sides and certification for the spin theorems.

All constants entering a right-hand side are certified upper bounds (triangle
inequality on term norms), so certified RHS values can only be loose, never
optimistic. Reported slack quantifies the looseness. The power-law bound
(Theorem 1) is its rescaled-time variant (Theorem 2) at N = 1, p1 = p0, so
the two share one formula, one signature and one overflow rule. The
matrix-exponential bound (Theorem 3) reads every pair from one
:func:`theorem3_matrix` stack over the run's dt grid.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lattice import _check_eta
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


def _support_norm_bounds(model: GKSLModel) -> dict[tuple[int, ...], float]:
    """Certified sup-over-time norm upper bound per distinct support set."""
    bounds: dict[tuple[int, ...], float] = defaultdict(float)
    for term in model.hamiltonian_terms + model.lindblad_terms:
        key = tuple(sorted(term.support))
        bounds[key] += _term_norm_bound(term, term.profile.sup_abs)
    return dict(bounds)


def lambda0_fit(model: GKSLModel, eta: float) -> float:
    """Minimal lambda0 of the power-law envelope, by direct summation over pairs.

    The summed certified term-norm bounds between distinct sites x, y stay
    below lambda0 / [1 + d(x,y)]^eta.
    """
    eta = _check_eta(eta)
    totals: dict[tuple[int, int], float] = defaultdict(float)
    for support, bound in _support_norm_bounds(model).items():
        if len(support) < 2 or bound == 0.0:
            continue
        for x, y in itertools.combinations(support, 2):
            totals[(x, y)] += bound
    if not totals:
        return 0.0
    dist = model.lattice.dist
    lam = max((1.0 + dist[x, y]) ** eta * total for (x, y), total in totals.items())
    return float(lam)


def _check_dt(dt) -> np.ndarray:
    """dt as a float array; ValueError if any entry is negative."""
    dt = np.asarray(dt, dtype=float)
    if np.any(dt < 0):
        raise ValueError(f"dt must be nonnegative, got {float(dt.min())}")
    return dt


def _check_distance(d_xy, requirement: str) -> np.ndarray:
    """d_xy as a float array; ValueError(requirement) unless all of it is positive."""
    d_xy = np.asarray(d_xy, dtype=float)
    if np.any(d_xy <= 0):
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
    p1 = p0, so both share one formula and one overflow rule.
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
    """J matrix of a pairwise model over the window [0, t].

    Single-site terms are permitted in the model but excluded from J (the
    matrix-exponential bound covers pairwise generators only); their presence
    is recorded in ``onsite_excluded``. A model with a term on three or more
    sites has no J matrix: None.
    """
    n = model.lattice.n_sites
    j = np.eye(n)
    onsite = False
    for term in model.hamiltonian_terms + model.lindblad_terms:
        support = tuple(sorted(term.support))
        if len(support) == 1:
            onsite = True
            continue
        if len(support) > 2:
            return None
        bound = _term_norm_bound(term, term.profile.sup_abs_on(0.0, t))
        j[support[0], support[1]] += bound
        j[support[1], support[0]] += bound
    off = j - np.eye(n)
    kappa = float(off.sum(axis=1).max()) if n > 1 else 0.0
    return JMatrix(matrix=j, kappa=kappa, onsite_excluded=onsite)


def theorem3_matrix(jm: JMatrix, dt) -> np.ndarray:
    """exp(kappa J dt) for each dt, stacked along dt's shape.

    Entries are nonnegative and nondecreasing in dt. A dt whose exponential
    leaves the float range gives a matrix of +inf.
    """
    dt = _check_dt(dt)
    with np.errstate(over="ignore", invalid="ignore"):
        e = scipy.linalg.expm(jm.kappa * jm.matrix * dt[..., None, None])
    overflow = ~np.isfinite(e).all(axis=(-2, -1))
    return np.where(overflow[..., None, None], math.inf, e)  # vacuous, never violated


def theorem3_bound(stacked: np.ndarray, k_norm: float, o_norm: float, i: int, j: int):
    """||K|| ||O|| [exp(kappa J dt)]_{i,j} for single sites i != j, per dt.

    ``stacked`` is :func:`theorem3_matrix` over the dt grid.
    """
    if i == j:
        raise ValueError("the matrix-exponential bound requires i != j")
    e = stacked[..., i, j]
    with np.errstate(invalid="ignore"):
        return _vacuous_on_overflow(k_norm * o_norm * e, e)


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with Pade approximation.

    Thin wrapper over scipy's implementation with explicit finiteness checks;
    overflow for extreme norms raises instead of returning inf entries.
    """
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix_exp requires finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        e = scipy.linalg.expm(m)
    if not np.all(np.isfinite(e)):
        raise OverflowError("matrix exponential overflowed for this norm")
    return e


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


def lightcone_arrivals(dt_grid, curves, epsilon: float):
    """First threshold crossings of per-distance curves on a shared dt grid.

    For each distance, the arrival is the first grid dt whose value reaches
    ``epsilon``, linearly interpolated between the bracketing grid points;
    distances whose curve never reaches the threshold are omitted.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    dt_grid = [float(x) for x in dt_grid]
    arrivals = []
    for distance in sorted(curves):
        values = list(curves[distance])
        if len(values) != len(dt_grid):
            raise ValueError("curve length does not match the dt grid")
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
