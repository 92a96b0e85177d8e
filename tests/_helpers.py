"""Shared test utilities: random models, states, and channels."""

from pathlib import Path

import numpy as np

from liebrob import (
    GKSLModel,
    HamiltonianTerm,
    JMatrix,
    LindbladTerm,
    TimeProfile,
    build_lattice,
)

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
    lambda0 = lambda0_fit(model, eta).lambda0 * SAFETY
    jm = build_j_matrix(model, 0.0, t)
    ops = [(config.observables[x], config.observables[y]) for x, y in config.pairs]
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
        for r, lhs in curve:
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
