"""Bound constants, right-hand sides and certification for the spin theorems.

All constants entering a right-hand side are certified upper bounds (triangle
inequality on term norms), so certified RHS values can only be loose, never
optimistic. Reported slack quantifies the looseness.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .lattice import Lattice, _check_eta
from .lindblad import GKSLModel
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


def _support_norm_bounds(model: GKSLModel) -> dict[tuple[int, ...], float]:
    """Certified sup-over-time norm upper bound per distinct support set."""
    bounds: dict[tuple[int, ...], float] = defaultdict(float)
    for term in model.hamiltonian_terms:
        key = tuple(sorted(term.support))
        bounds[key] += 2.0 * operator_norm(term.matrix) * term.profile.sup_abs
    for term in model.lindblad_terms:
        key = tuple(sorted(term.support))
        bounds[key] += (
            2.0 * term.rate * term.profile.sup_abs * operator_norm(term.matrix) ** 2
        )
    return dict(bounds)


def lambda0_fit(model: GKSLModel, eta: float, lattice: Lattice | None = None) -> PowerLawCert:
    """Minimal lambda0 over all distinct site pairs, by direct summation."""
    eta = _check_eta(eta)
    lat = lattice if lattice is not None else model.lattice
    totals: dict[tuple[int, int], float] = defaultdict(float)
    for support, bound in _support_norm_bounds(model).items():
        if len(support) < 2 or bound == 0.0:
            continue
        for x, y in itertools.combinations(support, 2):
            totals[(x, y)] += bound
    if not totals:
        return PowerLawCert(lambda0=0.0, eta=eta)
    lam = max(
        (1.0 + lat.dist[x, y]) ** eta * total for (x, y), total in totals.items()
    )
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


def theorem1_bound(params: Theorem1Params, dt: float, d_xy: float) -> float:
    """C (e^{v dt} - 1) / [1 + d(X,Y)]^eta; +inf beyond the float range."""
    if dt < 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if d_xy <= 0:
        raise ValueError("the bound requires disjoint supports (d(X,Y) > 0)")
    try:
        growth = math.expm1(params.v * dt)
    except OverflowError:
        return math.inf  # vacuous, never violated
    return params.c * growth / (1.0 + d_xy) ** params.eta


def theorem2_bound(lambda0: float, p1: float, n_lambda: float, k_norm: float,
                   o_norm: float, size_x: int, size_y: int, eta: float,
                   dt: float, d_xy: float) -> float:
    """Rescaled-time bound, valid for every eta > 0.

    C1 (e^{v1 dt / N} - 1) / [1 + d]^eta with C1 = ||K|| ||O|| |X||Y| N / p1
    and v1 = lambda0 p1; N is the lattice rescaling factor. An exponential
    beyond the float range gives +inf.
    """
    if dt < 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if d_xy <= 0:
        raise ValueError("the bound requires disjoint supports (d(X,Y) > 0)")
    c1 = k_norm * o_norm * size_x * size_y * n_lambda / p1
    v1 = lambda0 * p1
    try:
        growth = math.expm1(v1 * dt / n_lambda)
    except OverflowError:
        return math.inf  # vacuous, never violated
    return c1 * growth / (1.0 + d_xy) ** eta


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

    @property
    def n_sites(self) -> int:
        return self.matrix.shape[0]


def build_j_matrix(model: GKSLModel, r: float = 0.0, t: float = 0.0) -> JMatrix:
    """J matrix of a pairwise model over the window [r, t].

    Single-site terms are permitted in the model but excluded from J (the
    matrix-exponential bound covers pairwise generators only); their presence
    is recorded in ``onsite_excluded``. Models with terms on three or more
    sites are rejected.
    """
    n = model.lattice.n_sites
    j = np.eye(n)
    onsite = False
    for term in model.hamiltonian_terms:
        support = tuple(sorted(term.support))
        if len(support) == 1:
            onsite = True
            continue
        if len(support) > 2:
            raise ValueError(
                f"J matrix requires pairwise terms; got support {support}"
            )
        bound = 2.0 * operator_norm(term.matrix) * term.profile.sup_abs_on(r, t)
        j[support[0], support[1]] += bound
        j[support[1], support[0]] += bound
    for term in model.lindblad_terms:
        support = tuple(sorted(term.support))
        if len(support) == 1:
            onsite = True
            continue
        if len(support) > 2:
            raise ValueError(
                f"J matrix requires pairwise terms; got support {support}"
            )
        bound = (
            2.0 * term.rate * term.profile.sup_abs_on(r, t)
            * operator_norm(term.matrix) ** 2
        )
        j[support[0], support[1]] += bound
        j[support[1], support[0]] += bound
    off = j - np.eye(n)
    kappa = float(off.sum(axis=1).max()) if n > 1 else 0.0
    return JMatrix(matrix=j, kappa=kappa, onsite_excluded=onsite)


def theorem3_matrix(jm: JMatrix, dt: float) -> np.ndarray:
    """exp(kappa J dt); entries are nonnegative and nondecreasing in dt.

    An exponential beyond the float range gives a matrix of +inf.
    """
    if dt < 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    try:
        return matrix_exp(jm.kappa * jm.matrix * dt)
    except OverflowError:
        return np.full(jm.matrix.shape, math.inf)  # vacuous, never violated


def theorem3_bound(jm: JMatrix, k_norm: float, o_norm: float, dt: float,
                   i: int, j: int) -> float:
    """||K|| ||O|| [exp(kappa J dt)]_{i,j} for single sites i != j."""
    if i == j:
        raise ValueError("the matrix-exponential bound requires i != j")
    e = theorem3_matrix(jm, dt)
    return float(k_norm * o_norm * e[i, j].real)


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


@dataclass(frozen=True)
class BoundRow:
    """One (pair, grid point) record of the certification report."""

    x_sites: tuple[int, ...]
    y_sites: tuple[int, ...]
    distance: float
    t: float
    r: float
    lhs: float
    rhs1: float | None
    rhs2: float | None
    rhs3: float | None
    slack1: float | None
    slack2: float | None
    slack3: float | None
    flags: tuple[str, ...]


@dataclass
class BoundReport:
    """Certification rows plus the light-cone arrival table."""

    rows: list[BoundRow] = field(default_factory=list)
    lightcone: list[tuple[float, float]] = field(default_factory=list)

    CSV_COLUMNS = ("X", "Y", "d", "t", "r", "lhs", "rhs1", "rhs2", "rhs3",
                   "slack1", "slack2", "slack3", "flags")

    def violation_counts(self) -> dict[str, int]:
        counts = {"thm1": 0, "thm2": 0, "thm3": 0}
        for row in self.rows:
            for name in counts:
                if name in row.flags:
                    counts[name] += 1
        return counts

    def max_finite_slack(self) -> dict[str, float | None]:
        out: dict[str, float | None] = {}
        for name, attr in (("thm1", "slack1"), ("thm2", "slack2"), ("thm3", "slack3")):
            finite = [getattr(r, attr) for r in self.rows
                      if getattr(r, attr) is not None and math.isfinite(getattr(r, attr))]
            out[name] = max(finite) if finite else None
        return out

    def min_slack(self) -> dict[str, float | None]:
        out: dict[str, float | None] = {}
        for name, attr in (("thm1", "slack1"), ("thm2", "slack2"), ("thm3", "slack3")):
            present = [getattr(r, attr) for r in self.rows if getattr(r, attr) is not None]
            out[name] = min(present) if present else None
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([
                    ";".join(str(s) for s in row.x_sites),
                    ";".join(str(s) for s in row.y_sites),
                    repr(row.distance),
                    repr(row.t),
                    repr(row.r),
                    repr(row.lhs),
                    *(("" if v is None else repr(v))
                      for v in (row.rhs1, row.rhs2, row.rhs3,
                                row.slack1, row.slack2, row.slack3)),
                    "|".join(row.flags),
                ])
