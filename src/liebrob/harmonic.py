"""Exact Gaussian dynamics of open harmonic lattices and their locality bound.

The Heisenberg equations of motion of the canonical coordinate vector
R = (Q_1..Q_n, P_1..P_n) close on a real 2n x 2n kernel matrix S, so all
coordinate commutators follow from a matrix exponential:
[R_k(s), R_l] is the scalar i (e^{S dt} sigma)_{k,l} times the identity.

On a uniform grid dt_k = k h the products P_k = e^{S dt_k} sigma are stepped,
P_{k+1} = E P_k with E = e^{S h}, so a run takes one exponential and one
pass: :func:`stepped_products` yields each P_k once, and every consumer (the
commutator norms |P_k|, the symplectic defect) reads it there. Because
sigma^2 = -1, E_k = e^{S dt_k} = -P_k sigma, and the symplectic defect
E_k sigma E_k^T - sigma equals P_k sigma P_k^T - sigma: it needs no further
exponential either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _check_distance, _check_dt, _vacuous_on_overflow, matrix_exp
from .lattice import Lattice, _check_eta

SYMMETRY_TOL = 1e-12


def symplectic_form(n_sites: int) -> np.ndarray:
    """sigma with [Q_x, P_y] = i delta_{xy} under (Q..., P...) ordering."""
    n = n_sites
    sigma = np.zeros((2 * n, 2 * n))
    sigma[:n, n:] = np.eye(n)
    sigma[n:, :n] = -np.eye(n)
    return sigma


@dataclass(frozen=True, eq=False)
class HarmonicModel:
    """Quadratic Hamiltonian blocks (A, B) and linear Lindblad coefficients M.

    A couples positions, B momenta; row v of the n x 2n matrix M holds the
    coefficients of the single Lindblad operator attached to site v,
    L_v = sum_j M[v, j] R_j. Time-independent only.
    """

    lattice: Lattice
    a: np.ndarray
    b: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        n = self.lattice.n_sites
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "m", np.asarray(self.m, dtype=complex))
        if self.a.shape != (n, n) or self.b.shape != (n, n):
            raise ValueError(f"A and B must be {n}x{n}")
        if self.m.shape != (n, 2 * n):
            raise ValueError(f"M must be {n}x{2 * n}")
        if np.abs(self.a - self.a.T).max() > SYMMETRY_TOL:
            raise ValueError("A must be symmetric")
        if np.abs(self.b - self.b.T).max() > SYMMETRY_TOL:
            raise ValueError("B must be symmetric")

    @property
    def n_sites(self) -> int:
        return self.lattice.n_sites


def build_kernel(model: HarmonicModel) -> np.ndarray:
    """The real 2n x 2n generator S of the coordinate equations of motion.

    With Y = M_Q^dag M_P, S = [[0, -B - Im Y], [A, Im Y]]: the bilinears of M
    contribute F = -D, so nothing to the Q columns, and E + G = -Im Y, with
    opposite signs in the upper and lower block rows. S is real.
    """
    n = model.n_sites
    im_y = (model.m[:, :n].conj().T @ model.m[:, n:]).imag
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = -model.b - im_y
    s[n:, :n] = model.a
    s[n:, n:] = im_y
    return s


def stepped_products(s: np.ndarray, t: float, points: int):
    """Yield (dt_k, e^{S dt_k} sigma) on the grid linspace(0, t, points).

    ``s`` is the 2n x 2n kernel S of :func:`build_kernel`; the products start
    from sigma = symplectic_form(n). One exponential E = e^{S h},
    h = t / (points - 1), then P_{k+1} = E P_k.
    The step comes from t and points, never from differences of grid values.
    |P_k| is the matrix of coordinate commutator norms at dt_k: [R_k(s), R_l]
    = sum_m [e^{S dt}]_{k,m} i sigma_{m,l} 1 is a scalar multiple of the
    identity. A product that leaves the float range raises OverflowError.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if points < 2:
        raise ValueError(f"the grid needs at least 2 points, got {points}")
    step = matrix_exp(s * (t / (points - 1)))
    product = symplectic_form(len(s) // 2)
    for dt in np.linspace(0.0, t, points).tolist():
        if dt > 0.0:
            with np.errstate(over="ignore", invalid="ignore"):
                product = step @ product
            if not np.all(np.isfinite(product)):
                raise OverflowError(f"e^(S dt) overflowed at dt = {dt!r}")
        yield dt, product


def symplectic_defect(product: np.ndarray) -> float:
    """max |e^{S dt} sigma e^{S dt}^T - sigma| for P = e^{S dt} sigma; 0 if closed.

    Hamiltonian kernels generate symplectic flows, so this is a consistency
    check for M = 0 models. n is half the order of the 2n x 2n product; the
    check is P sigma P^T - sigma, with P sigma = [-P[:, n:] | P[:, :n]].
    """
    n = len(product) // 2
    p_sigma = np.hstack([-product[:, n:], product[:, :n]])
    with np.errstate(over="ignore", invalid="ignore"):  # beyond the float range: inf
        return float(np.abs(p_sigma @ product.T - symplectic_form(n)).max())


def c0_fit(model: HarmonicModel, eta: float) -> float:
    """Minimal c0 with every |A|, |B|, |M| entry below c0 / [1 + d]^eta.

    Both halves of M are measured against the distance between the Lindblad
    site (its row) and the coordinate site (its column mod n).
    """
    eta = _check_eta(eta)
    n = model.n_sites
    weight = (1.0 + model.lattice.dist) ** eta
    c0 = max(
        (np.abs(model.a) * weight).max(),
        (np.abs(model.b) * weight).max(),
        (np.abs(model.m[:, :n]) * weight).max(),
        (np.abs(model.m[:, n:]) * weight).max(),
    )
    return float(c0)


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
