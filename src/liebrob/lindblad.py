"""GKSL adjoint generators as sparse superoperators, and their propagation.

Every bound the certifier checks is a statement about an evolved observable,
so the package builds only the Hilbert-Schmidt adjoint of the generator,
A O + O A^dag + sum gamma L^dag O L with A = iH - sum gamma L^dag L / 2, and
propagates observables backward under it (Heisenberg picture). Every time
profile is one raised sinusoid, a constant being the one held at its crest.
The CSR pieces, one per profile, share one sparsity pattern; the per-term
form survives only as the test oracle. All propagation is one stepped sweep
over a uniform grid: one action of the exponential per grid interval of a
time-independent model (no profile with omega != 0), one per midpoint
substep of a time-dependent one, each by the in-package Taylor kernel of
Al-Mohy & Higham (2011), Algorithm 3.2. The kernel never forms an
exponential; it picks its degree and scaling from the exact 1-norm of the
step's generator and works to a double-precision backward-error target, with
no a-posteriori certificate.

:func:`commutator_norm_curves` is the entry point. After the grid and O_X
checks, the memory guard is the one size rule: it refuses a sweep that would
not fit in free memory, counting the pieces, the O_Y columns and the sweep's
blocks, before any D x D array is built. Then the pieces are built and each
distinct O_Y is embedded; no O_X is. Which pairs to run is the caller's.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from .lattice import Lattice, _check_grid
from .operators import act, embed, local_operator, operator_norm, unvec, vec


_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TimeProfile:
    """Scalar modulation of a generator term: one formula for every profile.

    The raised sinusoid  amplitude * (1 + sin(omega*t + phase)) / 2  stays
    within [0, amplitude], so it is a valid rate modulation whenever
    amplitude >= 0. The default is a constant: at omega = 0 and phase = pi/2
    the sinusoid is held at its crest, and the value is exactly ``amplitude``.
    The sup over a window is in closed form.
    """

    amplitude: float = 1.0
    omega: float = 0.0
    phase: float = math.pi / 2

    def value(self, t: float) -> float:
        return 0.5 * self.amplitude * (1.0 + math.sin(self.omega * t + self.phase))

    def sup_abs_on(self, lo: float, hi: float) -> float:
        """sup of |value| over the time window [lo, hi], in closed form."""
        smax = _sin_max(self.omega * lo + self.phase, self.omega * hi + self.phase)
        # 1 + sin >= 0, so the crest, not the trough, sets the sup of |value|
        return abs(0.5 * self.amplitude * (1.0 + smax))


def _sin_max(a: float, b: float) -> float:
    """Maximum of sin over the phase interval [min(a,b), max(a,b)]."""
    lo, hi = (a, b) if a <= b else (b, a)
    # a full period, or a crest at pi/2 + 2*pi*k inside the interval
    if (hi - lo >= _TWO_PI
            or math.ceil((lo - math.pi / 2) / _TWO_PI) <= (hi - math.pi / 2) / _TWO_PI):
        return 1.0
    return max(math.sin(lo), math.sin(hi))


@dataclass(frozen=True, eq=False)
class HamiltonianTerm:
    support: tuple[int, ...]
    matrix: np.ndarray
    profile: TimeProfile = TimeProfile()


@dataclass(frozen=True, eq=False)
class LindbladTerm:
    support: tuple[int, ...]
    matrix: np.ndarray
    rate: float
    profile: TimeProfile = TimeProfile()


HERMITICITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GKSLModel:
    """Hamiltonian and Lindblad terms with supports, rates and time profiles.

    Every term must pass :func:`local_operator` and :meth:`Lattice.check_sites`;
    the model keeps the checked matrix and support of each.
    """

    lattice: Lattice
    dim_per_site: int = 2
    hamiltonian_terms: tuple[HamiltonianTerm, ...] = ()
    lindblad_terms: tuple[LindbladTerm, ...] = ()

    def __post_init__(self):
        for name in ("hamiltonian_terms", "lindblad_terms"):
            checked = []
            for term in getattr(self, name):
                op = local_operator(term.matrix, term.support, self.dim_per_site)
                self.lattice.check_sites(op.support)
                checked.append(replace(term, matrix=op.matrix, support=op.support))
            object.__setattr__(self, name, tuple(checked))
        for term in self.hamiltonian_terms:
            with np.errstate(over="ignore", invalid="ignore"):  # a NaN defect is refused
                defect = np.abs(term.matrix - term.matrix.conj().T).max()
            if not defect <= HERMITICITY_TOL:
                raise ValueError(
                    f"Hamiltonian term on {term.support} is not Hermitian"
                    f" (defect {defect:.3e})"
                )
        for term in self.lindblad_terms:
            if term.rate < 0:
                raise ValueError(f"negative dissipation rate {term.rate}")
            if term.rate > 0 and term.profile.amplitude < 0:
                raise ValueError(
                    f"rate profile on {term.support} takes negative values"
                )

    @property
    def hilbert_dim(self) -> int:
        return self.dim_per_site**self.lattice.n_sites

    @property
    def is_time_dependent(self) -> bool:
        return any(t.profile.omega != 0
                   for t in self.hamiltonian_terms + self.lindblad_terms)


def _check_guard(model: GKSLModel, held_bytes: int) -> None:
    """Refuse a sweep whose estimated memory exceeds the free memory.

    The estimate uses the local term matrices only, before anything large is
    built: an embedded matrix with k nonzeros stores at most D k entries per
    Kronecker product with the identity, a jump L nnz(L)^2. An entry costs 16
    bytes per profile in the pieces' values and at most 96 in the build and
    the assembled generators; ``held_bytes`` is the caller's other arrays.
    """
    dim = model.hilbert_dim

    def nnz(local: np.ndarray) -> int:  # of the embedded matrix
        return np.count_nonzero(local) * (dim // len(local))

    entries = sum(2 * dim * nnz(term.matrix) for term in model.hamiltonian_terms)
    entries += sum(2 * dim * nnz(term.matrix.conj().T @ term.matrix) + nnz(term.matrix) ** 2
                   for term in model.lindblad_terms)
    profiles = len({term.profile for term in model.hamiltonian_terms + model.lindblad_terms})
    needed = min(entries, dim**4) * (16 * profiles + 96) + held_bytes
    available = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed > available:
        raise ValueError(f"the spin sweep needs an estimated {needed} bytes but only"
                         f" {available} bytes of memory are available")


@dataclass(frozen=True, eq=False)
class _Pieces:
    """Row p of ``data``: profile p's generator values on the shared ``pattern``."""

    profiles: tuple[TimeProfile, ...]
    data: np.ndarray  # (profiles, nnz)
    pattern: sp.csr_array

    def __len__(self) -> int:
        return len(self.profiles)


def _superop_pieces(model: GKSLModel, held_bytes: int = 0) -> _Pieces:
    """Sparse adjoint generators summed per time profile, on one shared CSR pattern.

    On a column-stacked O the generator is A O + O A^dag + sum_v gamma_v L_v^dag O L_v
    with A = iH - sum_v gamma_v L_v^dag L_v / 2, each rate folded into its term.
    Profile p's A_p is summed at D x D size, and its piece is G_p = I kron A_p
    + conj(A_p) kron I + sum_v gamma_v L_v^T kron L_v^dag. The pattern is that
    of sum_p |G_p|, which no cancellation thins. A non-finite generator is
    refused; ``held_bytes`` goes to the memory guard.
    """
    import scipy.sparse as sp  # here, not at module level: harmonic runs need no scipy

    _check_guard(model, held_bytes)
    d = model.hilbert_dim
    eye = sp.eye_array(d, dtype=complex, format="csr")
    effective, jumps = {}, {}  # per profile: A_p, and its sum of gamma L^T kron L^dag

    def embedded(term) -> sp.csr_array:
        return sp.csr_array(embed(term.matrix, term.support, model.lattice,
                                  model.dim_per_site))

    def add(sums, profile, matrix) -> None:
        sums[profile] = sums.get(profile, 0) + matrix

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is refused below
        for term in model.hamiltonian_terms:
            add(effective, term.profile, 1.0j * embedded(term))
        for term in model.lindblad_terms:
            l = embedded(term)
            add(effective, term.profile, -0.5 * term.rate * (l.conj().T @ l))
            add(jumps, term.profile, term.rate * sp.kron(l.T, l.conj().T, "csr"))
        pieces = [sp.kron(eye, a, "csr") + sp.kron(a.conj(), eye, "csr")
                  + jumps.get(profile, 0) for profile, a in effective.items()]
        pattern = sum((abs(piece) for piece in pieces), sp.csr_array((d * d, d * d)))
        rows, cols = pattern.nonzero()
        # empty index arrays, a zero generator's, give a coo_array, not an ndarray
        data = np.array([piece[rows, cols] if rows.size else rows for piece in pieces],
                        dtype=complex)
    if not np.isfinite(data).all():
        raise ValueError("the spin generator has non-finite entries")
    return _Pieces(tuple(effective), data.reshape(len(pieces), rows.size), pattern)


def _values(pieces: _Pieces, time: float) -> np.ndarray:
    """The generator's values at ``time``: one weighted sum of the pieces'."""
    return np.array([profile.value(time) for profile in pieces.profiles]) @ pieces.data


def _assemble(pieces: _Pieces, time: float) -> sp.csr_array:
    """The generator at ``time`` on the pieces' shared pattern."""
    pattern = pieces.pattern
    return type(pattern)((_values(pieces, time), pattern.indices, pattern.indptr),
                         shape=pattern.shape)


# theta_m for m = 1..30, 35, ..., 55: the largest 1-norm of A at which m Taylor
# terms of e^A meet a backward error of 2^-53 (Higham & Al-Mohy, Acta Numer. 19
# (2010), Table A.3; Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011), Table 3.1).
_TAYLOR_DEGREES = np.array([*range(1, 31), 35, 40, 45, 50, 55])
_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2,
    8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1,
    9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08,
    3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9,
])
_UNIT_ROUNDOFF = 2.0**-53
# The most Taylor sums one _expm_action takes. Each costs a few milliseconds on
# a 1024^2 generator, and a finite generator of huge 1-norm would otherwise ask
# for one sum per 9.9 units of it.
MAX_SCALING = 2**20


def _inf_norm(block: np.ndarray) -> float:
    return np.abs(block).reshape(len(block), -1).sum(axis=1).max()


def _expm_action(a: sp.csr_array, block: np.ndarray) -> np.ndarray:
    """e^a applied to a 1-D or 2-D block: Al-Mohy & Higham (2011), Algorithm 3.2.

    The trace shift mu = tr(a) / n acts as ``a @ b - mu * b``, so the diagonal
    entries the pattern does not store shift too. The 1-norm of a - mu I is
    exact: the column sums of |a| with each |a_jj| replaced by |a_jj - mu|.
    The degree m and the scaling s minimise m * ceil(norm / theta_m); each of
    the s Taylor sums stops early once two consecutive terms fall below the
    target relative to the sum. A step that needs more than MAX_SCALING sums
    raises ValueError.
    """
    n = a.shape[0]
    diagonal = a.diagonal()
    with np.errstate(over="ignore", invalid="ignore"):  # a huge norm is refused below
        mu = diagonal.sum() / n
        column_sums = np.bincount(a.indices, np.abs(a.data), minlength=n)
        norm = (column_sums - np.abs(diagonal) + np.abs(diagonal - mu)).max()
        scalings = np.ceil(norm / _THETA)
        best = np.argmin(_TAYLOR_DEGREES * scalings)
    if not scalings[best] <= MAX_SCALING:
        raise ValueError(f"a step's generator has 1-norm {norm:.6g}, which needs more"
                         f" than {MAX_SCALING} Taylor sums; lower the strengths or t")
    m, s = _TAYLOR_DEGREES[best], max(1, int(scalings[best]))
    eta = np.exp(mu / s)
    f = b = block.astype(complex)
    for _ in range(s):
        c1 = _inf_norm(b)
        for j in range(m):
            b = a @ b - mu * b
            b /= s * (j + 1)
            c2 = _inf_norm(b)
            f += b
            if c1 + c2 <= _UNIT_ROUNDOFF * _inf_norm(f):
                break
            c1 = c2
        f *= eta
        b = f
    return f


def _stepped_blocks(pieces: _Pieces, block: np.ndarray, lo: float, hi: float,
                    points: int, steps: int):
    """Yield the vectorized observables at the points of linspace(lo, hi, points).

    The sweep runs backward under the adjoint generator of ``pieces``, so the
    points come in descending order, the input block at hi first. Each step is
    one ``_expm_action`` (the Algorithm 3.2 Taylor kernel, its degree and
    scaling from the exact 1-norm, to a 2^-53 backward-error target and with
    no a-posteriori certificate) on a single matrix whose values are
    overwritten in place: ``steps`` midpoint steps per grid interval of width
    h = (hi - lo) / (points - 1), latest midpoint first. A time-independent
    model needs one step per interval. The caller has checked the grid.
    """
    sub = (hi - lo) / (points - 1) / steps
    a = _assemble(pieces, lo)
    yield block
    for k in range(points - 2, -1, -1):  # the interval [lo + k h, lo + (k+1) h]
        for m in range(steps - 1, -1, -1):
            a.data[:] = sub * _values(pieces, lo + (k * steps + m + 0.5) * sub)
            block = _expm_action(a, block)
        yield block


def commutator_norm_curves(model: GKSLModel, pairs, t: float, points: int,
                           substeps: int = 16):
    """Curves r -> ||[tau(r, t) O_Y, O_X]|| for several observable pairs.

    ``pairs`` is a sequence of (O_X, O_Y) local Operators. The grid and each
    O_X are checked first (:func:`_check_grid`, :func:`local_operator`,
    :meth:`Lattice.check_sites`); :func:`embed` checks each O_Y. The generator
    pieces are built next, behind the memory guard, whose estimate counts the
    O_Y columns, the sweep's blocks and the commutator's temporaries. Each
    distinct O_Y (support and matrix), in order of first appearance, is then
    embedded as a column of one backward sweep over the grid linspace(0, t,
    points); on time-dependent models each grid interval is subdivided into
    ``substeps`` midpoint actions. An O_X is never embedded: A O_X - O_X A is
    two :func:`act` contractions. Returns a (pairs, points) float array: row i
    is pair i's curve on the grid, in ascending r.
    """
    _check_grid(t, points)
    d, n, q = model.hilbert_dim, model.lattice.n_sites, model.dim_per_site

    def key(op) -> tuple:  # a distinct observable: its support and local matrix
        return op.support, op.matrix.tobytes()

    for x, _ in pairs:  # an O_Y is checked where it is embedded
        model.lattice.check_sites(local_operator(x.matrix, x.support, q).support)
    distinct_y = {key(y): y for _, y in pairs}  # in order of first appearance
    index = {k: j for j, k in enumerate(distinct_y)}  # the O_Y columns
    pair_columns = [(x, index[key(y)]) for x, y in pairs]
    # D x D arrays, as traced: per O_Y column the column and up to 7 sweep
    # blocks; the commutator's 3, and its SVD's workspace (1 more at D = 64)
    pieces = _superop_pieces(model, 16 * d * d * (8 * len(index) + 4))
    columns = np.stack([vec(embed(y.matrix, y.support, model.lattice, q))
                        for y in distinct_y.values()], axis=1)
    norms = np.empty((len(pairs), points))
    steps = substeps if model.is_time_dependent else 1
    for k, block in enumerate(_stepped_blocks(pieces, columns, 0.0, t, points, steps)):
        column = points - 1 - k  # the sweep runs backward from r = t
        for i, (x, j) in enumerate(pair_columns):
            m = unvec(block[:, j], d)
            norms[i, column] = operator_norm(act(x.matrix.T, x.support, m.T, n, q).T
                                             - act(x.matrix, x.support, m, n, q))
    return norms
