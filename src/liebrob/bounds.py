"""Bound constants, right-hand sides and certification for the spin theorems.

All constants entering a right-hand side are certified upper bounds (triangle
inequality on term norms), so certified RHS values can only be loose, never
optimistic. Reported slack quantifies the looseness.
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


@dataclass(frozen=True)
class PowerLawCert:
    """Fitted power-law envelope of the interaction strengths.

    ``lambda0`` is minimal such that the summed certified term-norm upper
    bounds between any two distinct sites x, y stay below
    lambda0 / [1 + d(x,y)]^eta.
    """

    lambda0: float
    eta: float
    basis: str = "certified_upper"


def _term_norm_bound(term: HamiltonianTerm | LindbladTerm, sup: float) -> float:
    """Certified inf->inf norm bound of one generator term whose |profile| <= sup.

    Triangle inequality: 2 ||H|| sup for i[H, .], and 2 gamma sup ||L||^2
    for gamma (L^dag . L - {L^dag L, .}/2).
    """
    if isinstance(term, LindbladTerm):
        return 2.0 * term.rate * sup * operator_norm(term.matrix) ** 2
    return 2.0 * operator_norm(term.matrix) * sup


def _support_norm_bounds(model: GKSLModel) -> dict[tuple[int, ...], float]:
    """Certified sup-over-time norm upper bound per distinct support set."""
    bounds: dict[tuple[int, ...], float] = defaultdict(float)
    for term in model.hamiltonian_terms + model.lindblad_terms:
        key = tuple(sorted(term.support))
        bounds[key] += _term_norm_bound(term, term.profile.sup_abs)
    return dict(bounds)


def lambda0_fit(model: GKSLModel, eta: float) -> PowerLawCert:
    """Minimal lambda0 over all distinct site pairs, by direct summation."""
    eta = _check_eta(eta)
    totals: dict[tuple[int, int], float] = defaultdict(float)
    for support, bound in _support_norm_bounds(model).items():
        if len(support) < 2 or bound == 0.0:
            continue
        for x, y in itertools.combinations(support, 2):
            totals[(x, y)] += bound
    if not totals:
        return PowerLawCert(lambda0=0.0, eta=eta)
    dist = model.lattice.dist
    lam = max((1.0 + dist[x, y]) ** eta * total for (x, y), total in totals.items())
    return PowerLawCert(lambda0=float(lam), eta=eta)


@dataclass(frozen=True)
class Theorem1Params:
    """Prefactor and velocity of the power-law bound."""

    c: float
    v: float
    eta: float


def commutator_theorem1_params(o_x_norm: float, o_y_norm: float, size_x: int,
                               size_y: int, p0: float, lambda0: float,
                               eta: float) -> Theorem1Params:
    """Parameters for the commutator form: C = 2 ||O_X|| ||O_Y|| |X||Y| / p0."""
    c = 2.0 * o_x_norm * o_y_norm * size_x * size_y / p0
    return Theorem1Params(c=c, v=lambda0 * p0, eta=eta)


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


_DISJOINT = "the bound requires disjoint supports (d(X,Y) > 0)"


def theorem1_bound(params: Theorem1Params, dt, d_xy):
    """C (e^{v dt} - 1) / [1 + d(X,Y)]^eta, elementwise over broadcast dt, d_xy.

    +inf wherever the exponential or the distance factor leaves the float range.
    """
    dt = _check_dt(dt)
    d_xy = _check_distance(d_xy, _DISJOINT)
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.expm1(params.v * dt)
        falloff = np.power(1.0 + d_xy, params.eta)
        return _vacuous_on_overflow(params.c * growth / falloff, growth, falloff)


def theorem2_bound(lambda0: float, p1: float, n_lambda: float, k_norm: float,
                   o_norm: float, size_x: int, size_y: int, eta: float, dt, d_xy):
    """Rescaled-time bound, valid for every eta > 0; elementwise like Theorem 1.

    C1 (e^{v1 dt / N} - 1) / [1 + d]^eta with C1 = ||K|| ||O|| |X||Y| N / p1
    and v1 = lambda0 p1; N is the lattice rescaling factor. An exponential or
    a distance factor beyond the float range gives +inf.
    """
    dt = _check_dt(dt)
    d_xy = _check_distance(d_xy, _DISJOINT)
    c1 = k_norm * o_norm * size_x * size_y * n_lambda / p1
    v1 = lambda0 * p1
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.expm1(v1 * dt / n_lambda)
        falloff = np.power(1.0 + d_xy, eta)
        return _vacuous_on_overflow(c1 * growth / falloff, growth, falloff)


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


def build_j_matrix(model: GKSLModel, t: float) -> JMatrix:
    """J matrix of a pairwise model over the window [0, t].

    Single-site terms are permitted in the model but excluded from J (the
    matrix-exponential bound covers pairwise generators only); their presence
    is recorded in ``onsite_excluded``. Models with terms on three or more
    sites are rejected.
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
            raise ValueError(
                f"J matrix requires pairwise terms; got support {support}"
            )
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


def theorem3_bound(jm: JMatrix, k_norm: float, o_norm: float, dt, i: int, j: int):
    """||K|| ||O|| [exp(kappa J dt)]_{i,j} for single sites i != j, per dt."""
    if i == j:
        raise ValueError("the matrix-exponential bound requires i != j")
    e = theorem3_matrix(jm, dt)[..., i, j]
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
