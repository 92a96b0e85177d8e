"""Shared test utilities: random models, states and channels, and test oracles.

The oracles (Schatten norms, the two-sided super-operator norm estimates and
the dense GKSL engine) check the certified quantities and the sparse engine
of the package; the package itself never calls them. The package builds and
runs only the adjoint (Heisenberg-picture) side; ``evolve`` and ``generator``
reach its sweep and generator directly, and give the forward (Schrodinger)
side from the dense oracle sweep and from the Hilbert-Schmidt adjoint of the
package's generator.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm, svdvals

from liebrob import (
    GKSLModel,
    HamiltonianTerm,
    JMatrix,
    LindbladTerm,
    TimeProfile,
    build_lattice,
    stepped_products,
)
from liebrob.lindblad import _assemble, _stepped_blocks, _superop_pieces
from liebrob.operators import embed, unvec, vec

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_density_matrix(rng, dim):
    m = random_matrix(rng, dim)
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_profile(rng):
    return TimeProfile(
        kind="sinusoidal",
        amplitude=float(rng.uniform(0.2, 1.5)),
        omega=float(rng.uniform(0.5, 4.0)),
        phase=float(rng.uniform(0.0, 2.0 * np.pi)),
    )


def random_model(rng, n_sites=3, time_dependent=False, dissipation=True,
                 coupling_scale=0.7):
    """Random nearest-neighbour GKSL model on a qubit chain."""
    lattice = build_lattice(n_sites)
    h_terms = []
    for i in range(n_sites - 1):
        profile = random_profile(rng) if time_dependent else TimeProfile()
        h_terms.append(HamiltonianTerm(
            support=(i, i + 1),
            matrix=coupling_scale * random_hermitian(rng, 4),
            profile=profile,
        ))
    for i in range(n_sites):
        h_terms.append(HamiltonianTerm(
            support=(i,), matrix=coupling_scale * random_hermitian(rng, 2)
        ))
    l_terms = []
    if dissipation:
        for i in range(n_sites):
            profile = random_profile(rng) if time_dependent else TimeProfile()
            l_terms.append(LindbladTerm(
                support=(i,),
                matrix=random_matrix(rng, 2),
                rate=float(rng.uniform(0.05, 0.5)),
                profile=profile,
            ))
    return GKSLModel(lattice=lattice, hamiltonian_terms=tuple(h_terms),
                     lindblad_terms=tuple(l_terms))


def random_channel_superop(rng, dim, env_dim=None):
    """Column-stacked superoperator of a random channel (Stinespring dilation)."""
    env_dim = env_dim or dim
    g = rng.standard_normal((dim * env_dim, dim)) + 1j * rng.standard_normal(
        (dim * env_dim, dim))
    isometry, _ = np.linalg.qr(g)
    kraus = [isometry[e::env_dim, :] for e in range(env_dim)]
    total = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in kraus:
        total += np.kron(k.conj(), k)
    return total, kraus


def apply_adjoint_term(h, lindblads, a):
    """Direct formula for a local adjoint-generator term acting on a matrix."""
    out = np.zeros_like(a, dtype=complex)
    if h is not None:
        out += 1j * (h @ a - a @ h)
    for l, gamma in lindblads:
        ldl = l.conj().T @ l
        out += gamma * (l.conj().T @ a @ l - 0.5 * (ldl @ a + a @ ldl))
    return out


def schatten_norm(a, p) -> float:
    """Schatten p-norm [Tr (A^dag A)^{p/2}]^{1/p}; p = inf is the operator norm."""
    m = np.asarray(a, dtype=complex)
    if not (p == np.inf or math.isinf(p)):
        p = float(p)
        if p < 1:
            raise ValueError(f"Schatten norms require p >= 1, got {p}")
    s = svdvals(m)
    if s.size == 0:
        return 0.0
    if p == np.inf or math.isinf(p):
        return float(s[0])
    return float((s**p).sum() ** (1.0 / p))


@dataclass(frozen=True)
class SuperoperatorNormBound:
    """Two-sided sandwich for an induced super-operator norm."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def superop_norm_1to1_estimate(t_matrix, restarts: int = 16, seed: int = 0,
                               tol: float = 1e-3, max_iter: int = 200,
                               ) -> SuperoperatorNormBound:
    """Estimate the induced 1->1 norm of a super-operator matrix.

    The lower estimate maximizes ||T(|psi><phi|)||_1 over rank-one inputs
    (the extreme points of the trace-norm unit ball) with random restarts and
    alternating vector updates; each update maximizes the current dual
    linearization, so the ascent is monotone. The upper bound is the norm
    relaxation sqrt(dim) * ||T||_{2->2}. Estimation only; never used for
    bound constants.
    """
    t = np.asarray(t_matrix.matrix if hasattr(t_matrix, "matrix") else t_matrix,
                   dtype=complex)
    d = math.isqrt(t.shape[0])
    if d * d != t.shape[0] or t.shape[0] != t.shape[1]:
        raise ValueError(f"super-operator matrix must be d^2 x d^2, got {t.shape}")
    if d > 16:
        raise ValueError(f"norm estimation supported only up to dimension 16, got {d}")
    upper = float(math.sqrt(d) * svdvals(t)[0])
    t_adj = t.conj().T
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(max(1, restarts)):
        psi = _random_unit(rng, d)
        phi = _random_unit(rng, d)
        val_prev = -np.inf
        for _ in range(max_iter):
            y = unvec(t @ vec(np.outer(psi, phi.conj())), d)
            u, s, vh = np.linalg.svd(y)
            w = u @ vh
            z = unvec(t_adj @ vec(w), d)
            zphi = z @ phi
            if np.linalg.norm(zphi) > 0:
                psi = zphi / np.linalg.norm(zphi)
            y = unvec(t @ vec(np.outer(psi, phi.conj())), d)
            u, s, vh = np.linalg.svd(y)
            val = float(s.sum())
            w = u @ vh
            z = unvec(t_adj @ vec(w), d)
            zpsi = z.conj().T @ psi
            if np.linalg.norm(zpsi) > 0:
                phi = zpsi / np.linalg.norm(zpsi)
            if val - val_prev <= tol * max(1.0, abs(val)):
                val_prev = val
                break
            val_prev = val
        best = max(best, val_prev)
    return SuperoperatorNormBound(lower=min(best, upper), upper=upper)


def superop_norm_inf_estimate(t_matrix, **kwargs) -> SuperoperatorNormBound:
    """Estimate the inf->inf norm via duality with the 1->1 norm of the adjoint."""
    t = np.asarray(t_matrix.matrix if hasattr(t_matrix, "matrix") else t_matrix,
                   dtype=complex)
    return superop_norm_1to1_estimate(t.conj().T, **kwargs)


def commutator_norms(kernel, t, points):
    """(dt, |e^{S dt} sigma|) on the grid linspace(0, t, points), as a list.

    Entry (k, l) of the matrix is ||[R_k(s), R_l]|| at dt = t - s.
    """
    return [(dt, np.abs(product)) for dt, product in stepped_products(kernel, t, points)]


def evolve(model, mat, lo, hi, adjoint, steps=64):
    """mat carried across [lo, hi]: backward by the package's sweep if ``adjoint``,
    forward by the dense oracle sweep otherwise. A (k, D, D) stack of matrices
    shares one sweep."""
    mats = np.asarray(mat)
    block = vec(mats) if mats.ndim == 2 else np.stack([vec(m) for m in mats], axis=1)
    if adjoint:
        *_, last = _stepped_blocks(model, block, lo, hi, 2, steps)
    else:
        *_, last = dense_stepped_blocks(model, block, lo, hi, 2, False, steps)
    d = model.hilbert_dim
    return unvec(last, d) if mats.ndim == 2 else np.stack([unvec(c, d) for c in last.T])


def generator(model, time=0.0, adjoint=False):
    """The package's CSR adjoint generator at ``time``; its Hilbert-Schmidt
    adjoint, the forward generator, unless ``adjoint``. On column-stacked
    vectors the Hilbert-Schmidt adjoint is the conjugate transpose."""
    adj = _assemble(_superop_pieces(model), time)
    return adj if adjoint else adj.conj().T.tocsr()


def dense_superop_pieces(model, adjoint: bool):
    """Dense superoperator matrices summed per time profile: (matrix, profile).

    Each term's rate is folded into its matrix, so terms that share a
    profile share one D^2 x D^2 piece.
    """
    d = model.hilbert_dim
    eye = np.eye(d, dtype=complex)
    sums = {}

    def add(profile, matrix: np.ndarray) -> None:
        if profile in sums:
            sums[profile] += matrix
        else:
            sums[profile] = matrix

    for term in model.hamiltonian_terms:
        h = embed(term.matrix, term.support, model.lattice, model.dim_per_site)
        comm = np.kron(eye, h) - np.kron(h.T, eye)  # vec(H rho - rho H)
        add(term.profile, (1.0j if adjoint else -1.0j) * comm)
    for term in model.lindblad_terms:
        l = embed(term.matrix, term.support, model.lattice, model.dim_per_site)
        ldl = l.conj().T @ l
        anti = 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
        jump = np.kron(l.T, l.conj().T) if adjoint else np.kron(l.conj(), l)
        add(term.profile, term.rate * (jump - anti))
    return [(matrix, profile) for profile, matrix in sums.items()]


def dense_assemble(pieces, dim: int, time: float) -> np.ndarray:
    total = np.zeros((dim * dim, dim * dim), dtype=complex)
    for matrix, profile in pieces:
        c = profile.value(time)
        if c != 0.0:
            total += c * matrix
    return total


def dense_stepped_blocks(model, block: np.ndarray, lo: float, hi: float,
                         points: int, adjoint: bool, substeps: int):
    """Dense-exponential oracle of the spin sweep, same grid and midpoints.

    A time-independent model takes one exponential e^{h L}; a time-dependent
    one takes ``substeps`` midpoint exponentials per interval.
    """
    if points < 2:
        raise ValueError(f"the grid needs at least 2 points, got {points}")
    d = model.hilbert_dim
    h = (hi - lo) / (points - 1)
    time_dependent = model.is_time_dependent
    if time_dependent:
        pieces = dense_superop_pieces(model, adjoint=adjoint)
        sub = h / substeps
    else:
        # the pieces are dropped before the exponential, which needs their memory
        step = expm(h * dense_assemble(dense_superop_pieces(model, adjoint=adjoint),
                                       d, 0.0))
    yield block
    for j in range(points - 1):
        if time_dependent:
            k = points - 2 - j if adjoint else j  # the interval [lo + k h, lo + (k+1) h]
            for m in range(substeps - 1, -1, -1) if adjoint else range(substeps):
                midpoint = lo + (k * substeps + m + 0.5) * sub
                block = expm(sub * dense_assemble(pieces, d, midpoint)) @ block
        else:
            block = step @ block
        yield block


def dense_commutator_norms(model, o_x, o_y, t: float, points: int, substeps: int):
    """||[tau(r, t) O_Y, O_X]|| on linspace(0, t, points) by the dense oracle sweep."""
    d = model.hilbert_dim
    x = embed(o_x.matrix, o_x.support, model.lattice, model.dim_per_site)
    y = embed(o_y.matrix, o_y.support, model.lattice, model.dim_per_site)
    blocks = dense_stepped_blocks(model, vec(y), 0.0, t, points, adjoint=True,
                                  substeps=substeps)
    values = [svdvals(unvec(b, d) @ x - x @ unvec(b, d))[0] for b in blocks]
    return np.array(values[::-1])


def c2_path_sum(j_matrix, i: int, k: int) -> float:
    """Second power-series coefficient via the explicit three-sum expansion.

    Direct nested loops over two-edge paths from i to k: intermediate paths,
    plus the two families where one edge connects i and k directly.
    """
    j = np.asarray(j_matrix.matrix if isinstance(j_matrix, JMatrix) else j_matrix)
    n = j.shape[0]
    total = sum(j[i, m] * j[m, k] for m in range(n) if m not in (i, k))
    total += sum(j[i, m] * j[i, k] for m in range(n) if m != i)
    total += sum(j[i, k] * j[m, k] for m in range(n) if m != k)
    return float(total)


def c3_path_sum(j_matrix, i: int, k: int) -> float:
    """Third power-series coefficient via the explicit seven-sum expansion."""
    j = np.asarray(j_matrix.matrix if isinstance(j_matrix, JMatrix) else j_matrix)
    n = j.shape[0]
    idx = range(n)
    s1 = sum(j[i, a] * j[a, b] * j[b, k]
             for a in idx if a != i for b in idx if b not in (a, k))
    s2 = sum(j[i, a] * j[i, b] * j[i, k]
             for a in idx if a != i for b in idx if b != i)
    s3 = sum(j[i, a] * j[i, k] * j[b, k]
             for a in idx if a != i for b in idx if b != k)
    s4 = sum(j[i, k] * j[a, k] * j[b, k]
             for a in idx if a != k for b in idx if b != k)
    s5 = sum(j[i, a] * j[i, b] * j[b, k]
             for a in idx if a != i for b in idx if b not in (i, k))
    s6 = sum(j[i, a] * j[b, a] * j[a, k]
             for a in idx if a not in (i, k) for b in idx if b != a)
    s7 = sum(j[i, a] * j[a, k] * j[b, k]
             for a in idx if a not in (i, k) for b in idx if b != a)
    return float(s1 + s2 + s3 + s4 + s5 + s6 + s7)


def spin_report_oracle(config, rhs1_scale=1.0):
    """The spin certification as a scalar loop over pairs and grid points.

    One ``math.expm1`` per point for Theorems 1 and 2 (an overflow is +inf),
    one matrix exponential per dt for Theorem 3, and the certification rule
    written out per point. ``rhs1_scale`` multiplies the Theorem-1 RHS.
    Returns the report rows (site tuples, floats, None for a blank cell, the
    flags string) and the summary's counts, slack extremes and overflow count.
    """
    import math

    from liebrob import (
        assumption_constants,
        build_j_matrix,
        commutator_norm_curves,
        lambda0_fit,
        matrix_exp,
        operator_norm,
        support_distance,
    )
    from liebrob.bounds import VIOLATION_TOLERANCE
    from liebrob.runner import SAFETY

    def vacuous_on_overflow(fn):
        try:
            return fn()
        except OverflowError:
            return math.inf

    model, lattice, eta, t = config.spin_model, config.lattice, config.eta, config.time.t
    consts = assumption_constants(lattice, eta)
    p0 = consts.p0 * SAFETY
    p1 = consts.p1 * SAFETY
    n_lam = consts.n_lambda * SAFETY
    lambda0 = lambda0_fit(model, eta) * SAFETY
    jm = build_j_matrix(model, t)
    ops = [(ox, oy) for ox, oy, _ in config.pairs]
    curves = commutator_norm_curves(model, ops, t, config.time.points)

    names = ("thm1", "thm2", "thm3")
    rows = []
    counts = dict.fromkeys(names, 0)
    slacks = {name: [] for name in names}
    overflow = 0
    for (ox, oy), curve in zip(ops, curves):
        d = support_distance(ox.support, oy.support, lattice)
        k_norm = 2.0 * operator_norm(ox.matrix)
        o_norm = operator_norm(oy.matrix)
        sizes = len(ox.support) * len(oy.support)
        for r, lhs in zip(config.time.grid().tolist(), curve.tolist()):
            dt = t - r
            rhs = {
                "thm1": rhs1_scale * vacuous_on_overflow(
                    lambda: k_norm * o_norm * sizes / p0
                    * math.expm1(lambda0 * p0 * dt) / (1.0 + d) ** eta),
                "thm2": vacuous_on_overflow(
                    lambda: k_norm * o_norm * sizes * n_lam / p1
                    * math.expm1(lambda0 * p1 * dt / n_lam) / (1.0 + d) ** eta),
                "thm3": None,
            }
            if sizes == 1:
                rhs["thm3"] = vacuous_on_overflow(
                    lambda: k_norm * o_norm * matrix_exp(jm.kappa * jm.matrix * dt)[
                        ox.support[0], oy.support[0]])
            slack, flags = {name: None for name in names}, []
            for name, value in rhs.items():
                if value is None:
                    continue
                overflow += value == math.inf
                slack[name] = math.inf if lhs == 0.0 else value / lhs
                if math.isfinite(slack[name]):
                    slacks[name].append(slack[name])
                if lhs > value * (1.0 + VIOLATION_TOLERANCE):
                    flags.append(name)
                    counts[name] += 1
            rows.append([ox.support, oy.support, d, t, r, lhs,
                         *rhs.values(), *slack.values(), "|".join(flags)])
    summary = {
        "violations": counts,
        "max_slack": {name: max(v, default=None) for name, v in slacks.items()},
        "min_slack": {name: min(v, default=None) for name, v in slacks.items()},
        "rhs_overflow": overflow,
    }
    return rows, summary
