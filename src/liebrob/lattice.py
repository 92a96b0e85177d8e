"""Finite lattices, their decay constants, and the shared site and grid checks.

:func:`assumption_constants` is the one source of the constants of the kernel
1 / [1 + d]^eta (p0, the extensivity sup, n_lambda and p1): it builds the
dense kernel once and reads all four from it. They are minimal over the
finite lattice, computed by direct summation, and reported at full double
precision. Callers that certify inequalities against them should apply a tiny
multiplicative safety factor to absorb summation rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

METRICS = ("graph", "manhattan", "euclidean")


@dataclass(frozen=True, eq=False)
class Lattice:
    """Finite site set 0..N-1 with a precomputed symmetric distance matrix."""

    sides: tuple[int, ...]
    dist: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.dist.shape[0]

    @property
    def ndim(self) -> int:
        return len(self.sides)

    def check_sites(self, support) -> None:
        """ValueError unless every site of ``support`` is one of 0..N-1."""
        if any(s < 0 or s >= self.n_sites for s in support):
            raise ValueError(f"support {support} out of range for {self.n_sites} sites")


def build_lattice(sides, metric: str = "graph") -> Lattice:
    """Build a chain (single side length) or a D-dimensional grid.

    Sites are indexed in row-major order over the grid coordinates. On these
    grids the graph metric (shortest path over nearest-neighbour edges)
    coincides with the Manhattan metric; ``euclidean`` uses unit spacing.
    """
    if isinstance(sides, (int, np.integer)):
        sides = (int(sides),)
    sides = tuple(int(s) for s in sides)
    if not sides or any(s < 1 for s in sides):
        raise ValueError(f"all side lengths must be >= 1, got {sides!r}")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    coords = np.array(list(itertools.product(*(range(s) for s in sides))), dtype=float)
    delta = np.abs(coords[:, None, :] - coords[None, :, :])
    if metric == "euclidean":
        dist = np.sqrt((delta**2).sum(axis=2))
    else:
        dist = delta.sum(axis=2)
    return Lattice(sides=sides, dist=dist)


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not eta > 0:
        raise ValueError(f"decay exponent eta must be positive, got {eta}")
    return eta


def _check_grid(t: float, points: int) -> None:
    """ValueError unless linspace(0, t, points) is a grid: finite t >= 0, points >= 2."""
    if not 0 <= t < math.inf:  # NaN fails both comparisons
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    if points < 2:
        raise ValueError(f"the grid needs at least 2 points, got {points}")


def _check_constant(name: str, value: float, eta: float) -> None:
    """ValueError naming ``name`` and eta unless the decay constant is finite."""
    if not math.isfinite(value):
        raise ValueError(f"the decay constant {name} is {value} at eta = {eta!r}: the"
                         " kernel 1/[1 + d]^eta leaves the float range; lower eta")


@dataclass(frozen=True)
class AssumptionConstants:
    """Decay-assumption constants of a lattice at a fixed exponent.

    ``n_lambda`` and ``p1`` are None on single-site lattices, where the
    off-site supremum is an empty sum.
    """

    eta: float
    p0: float
    extensivity_sup: float
    n_lambda: float | None
    p1: float | None


def assumption_constants(lattice: Lattice, eta: float) -> AssumptionConstants:
    """The decay constants of the kernel k(x, y) = 1 / [1 + d(x, y)]^eta, from one k.

    ``p0`` is minimal with sum_z k(x,z) k(z,y) <= p0 k(x,y) over all pairs,
    x = y included (the safest reading, which only tightens the constant).
    ``extensivity_sup`` is sup_x sum_y k(x, y), whose y = x term is 1.
    ``n_lambda`` is 1 / sup_x sum_{y != x} k(x, y), and ``p1``, the minimal
    constant of the rescaled kernel inequality, is n_lambda * p0. A p0 or
    n_lambda outside the float range raises ValueError naming the constant
    and eta.
    """
    eta = _check_eta(eta)
    k = (1.0 + lattice.dist) ** (-eta)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where k underflows
        p0 = float(((k @ k) / k).max())
    _check_constant("p0", p0, eta)
    ext = float(k.sum(axis=1).max())
    nl = p1 = None
    if lattice.n_sites >= 2:
        # summed off the diagonal: 1 + sum - 1 would round a tiny sum to 0
        np.fill_diagonal(k, 0.0)
        with np.errstate(divide="ignore"):  # a sum that underflows to 0 gives inf
            nl = float(1.0 / k.sum(axis=1).max())
        _check_constant("n_lambda", nl, eta)
        p1 = nl * p0
    return AssumptionConstants(eta=eta, p0=p0, extensivity_sup=ext, n_lambda=nl, p1=p1)
