"""Exact Gaussian dynamics of open harmonic lattices and their locality bound.

The Heisenberg equations of motion of the canonical coordinate vector
R = (Q_1..Q_n, P_1..P_n) close on a real 2n x 2n kernel matrix S, so all
coordinate commutators follow from a matrix exponential:
[R_k(s), R_l] is the scalar i (e^{S dt} sigma)_{k,l} times the identity.

On a uniform grid dt_k = k h the products P_k = e^{S dt_k} sigma are stepped,
P_{k+1} = E P_k with E = e^{S h}, so a run takes one exponential and one
pass: :func:`stepped_products` yields each P_k once, and every consumer (the
commutator norms |P_k|, the symplectic defect) reads it there. A grid point
costs one 2n x 2n product, the first one a signed column permutation of E
(P_1 = E sigma), plus, for the defect of a closed model, one 2n x n x 2n
product. Because sigma^2 = -1, E_k = e^{S dt_k} = -P_k sigma, and the
symplectic defect E_k sigma E_k^T - sigma equals P_k sigma P_k^T - sigma: it
needs no further exponential either. That one exponential is
:func:`matrix_exp`, an in-package scaling-and-squaring Pade method, so the
module needs numpy only.
The bound's constant c0 and its RHS live in :mod:`liebrob.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, _check_grid

SYMMETRY_TOL = 1e-12

# Pade degree m and theta_m, the largest bound on A's size (its 1-norm, or
# matrix_exp's eta) at which the [m/m] Pade approximant of e^A meets a
# backward error of 2^-53 (Higham, SIAM J. Matrix Anal. Appl. 26 (2005),
# Table 2.3), with the coefficients b_0..b_m of its
# numerator, p_m(A) = sum_k b_k A^k; the denominator is p_m(-A).
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0,
                               1512.0, 56.0, 1.0)),
    9: (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                              30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (5.371920351148152e0, (64764752532480000.0, 32382376266240000.0,
                               7771770303897600.0, 1187353796428800.0, 129060195264000.0,
                               10559470521600.0, 670442572800.0, 33522128640.0,
                               1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
}


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
    opposite signs in the upper and lower block rows. S is real. A kernel
    beyond the float range raises ValueError.
    """
    n = model.n_sites
    s = np.zeros((2 * n, 2 * n))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is refused below
        im_y = (model.m[:, :n].conj().T @ model.m[:, n:]).imag
        s[:n, n:] = -model.b - im_y
    s[n:, :n] = model.a
    s[n:, n:] = im_y
    if not np.isfinite(s).all():
        raise ValueError("the harmonic kernel S has non-finite entries: a, b or m"
                         " is too large")
    return s


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade approximant.

    Higham (2005) with the degree and squaring rule of Al-Mohy & Higham
    (SIAM J. Matrix Anal. Appl. 31 (2009) 970): eta is the least of |A|_1,
    max(d_2, d_4) and, past degree 5, max(d_4, d_6), where d_k = |A^k|_1^(1/k)
    comes from the powers the approximant uses anyway. Each bounds the Pade
    backward error as |A|_1 does in the 2005 rule, but tends to the spectral
    radius, so a far-from-normal A is not over-scaled. The degree is the
    lowest m in 3, 5, 7, 9 with eta <= theta_m, else 13 on A / 2^s for the
    least s >= 0 with eta / 2^s < theta_13, then s squarings. The 2009 rule's
    extra squarings from powers of |A| (its ell) are not taken. A non-finite
    entry raises ValueError; a result beyond the float range OverflowError.
    """
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix_exp requires finite entries")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is refused below
        powers = _extend([m @ m], 2)
        eta = min(np.linalg.norm(m, 1), _bound(powers, 0))
        if eta > _PADE[5][0]:
            _extend(powers, 3)
            eta = min(eta, _bound(powers, 1))
        degree = next((d for d, (theta, _) in _PADE.items() if eta <= theta), 13)
        squarings = max(0, math.frexp(eta / _PADE[13][0])[1])
        if squarings:
            m = m * 0.5**squarings
            powers = _extend([m @ m], 3)
        e = _pade(m, powers, degree)
        for _ in range(squarings):
            e = e @ e
    if not np.all(np.isfinite(e)):
        raise OverflowError("matrix exponential overflowed for this norm")
    return e


def _extend(powers: list, count: int) -> list:
    """Extend [A^2, ...] in place to [A^2, A^4, ..., A^(2 count)]."""
    while len(powers) < count:
        powers.append(powers[-1] @ powers[0])
    return powers


def _bound(powers, j: int) -> float:
    """max(d_2j+2, d_2j+4) for powers = [A^2, A^4, ...], d_k = |A^k|_1^(1/k).

    A power beyond the float range bounds nothing: inf.
    """
    d = [np.linalg.norm(powers[i], 1) ** (1.0 / (2 * i + 2)) for i in (j, j + 1)]
    return float(max(d)) if np.all(np.isfinite(d)) else math.inf


def _pade(a: np.ndarray, powers: list, degree: int) -> np.ndarray:
    """The [m/m] Pade approximant of e^A, q_m(A)^-1 p_m(A) = (V - U)^-1 (V + U).

    ``powers`` holds A^2, A^4, ... and is extended as the degree needs; U
    holds the odd powers of A, V the even ones, each sum formed in place.
    Degree 13 takes A^2, A^4 and A^6 only, and six products in all, as
    Higham (2005) does. ``powers`` is emptied before the solve, which holds
    two more matrices, so the caller's list frees its arrays too.
    """
    # b_0 taken into [1/2, 1) by a power of 2, which moves no rounding: b_1 A
    # then overflows no sooner than A, as for a huge nilpotent A, e^A = I + A
    scale = 0.5 ** math.frexp(_PADE[degree][1][0])[1]
    b = [c * scale for c in _PADE[degree][1]]
    _extend(powers, 3 if degree == 13 else degree // 2)
    if degree == 13:
        u = powers[2] @ _poly((0.0, *b[9::2]), powers)
        u += _poly(b[1:8:2], powers)
        v = powers[2] @ _poly((0.0, *b[8::2]), powers)
        v += _poly(b[0:7:2], powers)
    else:
        u, v = _poly(b[1::2], powers), _poly(b[0::2], powers)
    u = a @ u
    powers.clear()
    p = v + u
    v -= u
    del u
    return np.linalg.solve(v, p)


def _poly(coeffs, powers) -> np.ndarray:
    """coeffs[0] I + sum_k coeffs[k] powers[k - 1], summed in place."""
    out = coeffs[1] * powers[0]
    for c, power in zip(coeffs[2:], powers[1:]):
        out += c * power
    out.flat[:: len(out) + 1] += coeffs[0]
    return out


def stepped_products(s: np.ndarray, t: float, points: int):
    """Yield (dt_k, e^{S dt_k} sigma) on the grid linspace(0, t, points).

    ``s`` is the 2n x 2n kernel S of :func:`build_kernel`; the products start
    from sigma = symplectic_form(n). One exponential E = e^{S h},
    h = t / (points - 1), after which S is no longer held; then P_1 = E sigma
    = [-E[:, n:] | E[:, :n]], a signed column permutation of E equal to the
    product, and P_{k+1} = E P_k, one 2n x 2n product per further point.
    The step comes from t and points, never from differences of grid values;
    every dt_k = 0 point, all of a t = 0 grid, yields sigma.
    |P_k| is the matrix of coordinate commutator norms at dt_k: [R_k(s), R_l]
    = sum_m [e^{S dt}]_{k,m} i sigma_{m,l} 1 is a scalar multiple of the
    identity. A bad grid raises ValueError, an overflowing product OverflowError.
    """
    _check_grid(t, points)
    step = matrix_exp(s * (t / (points - 1)))
    del s
    n = len(step) // 2
    product, stepped = symplectic_form(n), False
    for dt in np.linspace(0.0, t, points).tolist():
        if dt > 0.0 and not stepped:  # E sigma; E is finite, matrix_exp checked it
            product, stepped = np.hstack([-step[:, n:], step[:, :n]]), True
        elif dt > 0.0:
            with np.errstate(over="ignore", invalid="ignore"):
                product = step @ product
            if not np.all(np.isfinite(product)):
                raise OverflowError(f"e^(S dt) overflowed at dt = {dt!r}")
        yield dt, product


def symplectic_defect(product: np.ndarray) -> float:
    """max |e^{S dt} sigma e^{S dt}^T - sigma| for P = e^{S dt} sigma.

    It is 0 for an exactly symplectic P. Hamiltonian kernels generate
    symplectic flows, so this is a consistency check for M = 0 models. n is
    half the order of the 2n x 2n product. With X = P[:, :n] P[:, n:]^T, one
    2n x n x 2n product, P sigma P^T = X - X^T, so the defect
    D = X - X^T - sigma is antisymmetric and its largest entry lies in one of
    three n x n blocks: QQ, PP, and QP, where sigma's identity is subtracted
    on the diagonal. A defect beyond the float range is inf or NaN.
    """
    n = len(product) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        x = product[:, :n] @ product[:, n:].T
        qq, pp = x[:n, :n], x[n:, n:]
        qp = x[:n, n:] - x[n:, :n].T
        qp.flat[:: n + 1] -= 1.0
        # np.max, not max: a NaN block maximum must not be dropped
        return float(np.max([np.abs(qp).max(), np.abs(qq - qq.T).max(),
                             np.abs(pp - pp.T).max()]))
