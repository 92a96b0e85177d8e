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
exponential either. The bound's constant c0 and its RHS live in
:mod:`liebrob.bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lattice import Lattice, _check_grid

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
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN defect is refused
            defect_a, defect_b = (np.abs(x - x.T).max() for x in (self.a, self.b))
        if not defect_a <= SYMMETRY_TOL:
            raise ValueError("A must be symmetric")
        if not defect_b <= SYMMETRY_TOL:
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


def stepped_products(s: np.ndarray, t: float, points: int):
    """Yield (dt_k, e^{S dt_k} sigma) on the grid linspace(0, t, points).

    ``s`` is the 2n x 2n kernel S of :func:`build_kernel`; the products start
    from sigma = symplectic_form(n). One exponential E = e^{S h},
    h = t / (points - 1), then P_{k+1} = E P_k.
    The step comes from t and points, never from differences of grid values.
    |P_k| is the matrix of coordinate commutator norms at dt_k: [R_k(s), R_l]
    = sum_m [e^{S dt}]_{k,m} i sigma_{m,l} 1 is a scalar multiple of the
    identity. A bad grid raises ValueError, an overflowing product OverflowError.
    """
    _check_grid(t, points)
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
