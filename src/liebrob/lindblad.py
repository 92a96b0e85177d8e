"""GKSL adjoint generators as sparse superoperators, and their propagation.

Every bound the certifier checks is a statement about an evolved observable,
so the package builds only the Hilbert-Schmidt adjoint of the generator,
A O + O A^dag + sum gamma L^dag O L with A = iH - sum gamma L^dag L / 2, and
propagates observables backward under it (Heisenberg picture). Its CSR
pieces, one per time profile, share one sparsity pattern; the per-term form
survives only as the test oracle. All propagation is one stepped sweep over a
uniform grid: one action of the exponential per grid interval of a
time-independent model, one per midpoint substep of a time-dependent one,
each by the in-package Taylor kernel of Al-Mohy & Higham (2011), Algorithm
3.2. The kernel never forms an exponential; it picks its degree and scaling
from the exact 1-norm of the step's generator and works to a
double-precision backward-error target, with no a-posteriori certificate.

:func:`commutator_norm_curves` is the entry point: it embeds the local
(O_X, O_Y) pairs it is given and refuses only a sweep that would not fit in
free memory. Which pairs to run and any dimension cap are the caller's.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import svdvals

from .lattice import Lattice
from .operators import embed, unvec, vec


_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TimeProfile:
    """Scalar modulation of a generator term.

    ``constant`` is the fixed value ``amplitude``. ``sinusoidal`` is the
    raised sinusoid  amplitude * (1 + sin(omega*t + phase)) / 2,  which stays
    within [0, amplitude] and is therefore a valid rate modulation whenever
    amplitude >= 0. Suprema are available in closed form for both kinds.
    """

    kind: str = "constant"
    amplitude: float = 1.0
    omega: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "sinusoidal"):
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def value(self, t: float) -> float:
        if self.kind == "constant":
            return self.amplitude
        return 0.5 * self.amplitude * (1.0 + math.sin(self.omega * t + self.phase))

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    @property
    def sup_abs(self) -> float:
        """sup over all times of |value(t)|."""
        return abs(self.amplitude)

    @property
    def min_value(self) -> float:
        """inf over all times of value(t)."""
        if self.kind == "constant":
            return self.amplitude
        return min(0.0, self.amplitude)

    def sup_abs_on(self, lo: float, hi: float) -> float:
        """sup of |value| over the time window [lo, hi], in closed form."""
        if self.kind == "constant":
            return abs(self.amplitude)
        if self.omega == 0.0:
            return abs(self.value(lo))
        smax = _sin_max(self.omega * lo + self.phase, self.omega * hi + self.phase)
        # 1 + sin >= 0, so the crest, not the trough, sets the sup of |value|
        return 0.5 * abs(self.amplitude * (1.0 + smax))


def _sin_max(a: float, b: float) -> float:
    """Maximum of sin over the phase interval [min(a,b), max(a,b)]."""
    lo, hi = (a, b) if a <= b else (b, a)
    # a full period, or a crest at pi/2 + 2*pi*k inside the interval
    if (hi - lo >= _TWO_PI
            or math.ceil((lo - math.pi / 2) / _TWO_PI) <= (hi - math.pi / 2) / _TWO_PI):
        return 1.0
    return max(math.sin(lo), math.sin(hi))


CONSTANT_ONE = TimeProfile()


@dataclass(frozen=True, eq=False)
class HamiltonianTerm:
    support: tuple[int, ...]
    matrix: np.ndarray
    profile: TimeProfile = CONSTANT_ONE


@dataclass(frozen=True, eq=False)
class LindbladTerm:
    support: tuple[int, ...]
    matrix: np.ndarray
    rate: float
    profile: TimeProfile = CONSTANT_ONE


HERMITICITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GKSLModel:
    """Hamiltonian and Lindblad terms with supports, rates and time profiles."""

    lattice: Lattice
    dim_per_site: int = 2
    hamiltonian_terms: tuple[HamiltonianTerm, ...] = ()
    lindblad_terms: tuple[LindbladTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "hamiltonian_terms", tuple(self.hamiltonian_terms))
        object.__setattr__(self, "lindblad_terms", tuple(self.lindblad_terms))
        n = self.lattice.n_sites
        d = self.dim_per_site
        for term in self.hamiltonian_terms + self.lindblad_terms:
            support = term.support
            if len(set(support)) != len(support):
                raise ValueError(f"term support {support} has repeated sites")
            if any(s < 0 or s >= n for s in support):
                raise ValueError(f"term support {support} out of range for {n} sites")
            expected = d ** len(support)
            if term.matrix.shape != (expected, expected):
                raise ValueError(
                    f"term matrix shape {term.matrix.shape} does not match"
                    f" dim_per_site^{len(support)} = {expected}"
                )
        for term in self.hamiltonian_terms:
            defect = np.abs(term.matrix - term.matrix.conj().T).max()
            if defect > HERMITICITY_TOL:
                raise ValueError(
                    f"Hamiltonian term on {term.support} is not Hermitian"
                    f" (defect {defect:.3e})"
                )
        for term in self.lindblad_terms:
            if term.rate < 0:
                raise ValueError(f"negative dissipation rate {term.rate}")
            if term.rate > 0 and term.profile.min_value < 0:
                raise ValueError(
                    f"rate profile on {term.support} takes negative values"
                )

    @property
    def hilbert_dim(self) -> int:
        return self.dim_per_site**self.lattice.n_sites

    @property
    def is_time_dependent(self) -> bool:
        return any(
            not t.profile.is_constant
            for t in self.hamiltonian_terms + self.lindblad_terms
        )


def _check_guard(model: GKSLModel, held_bytes: int) -> None:
    """Refuse a sweep whose estimated memory exceeds the free memory.

    The estimate uses the local term matrices only, before anything large is
    built: an embedded matrix with k nonzeros stores at most D k entries per
    Kronecker product with the identity, a jump L nnz(L)^2. An entry costs 16
    bytes per profile in the pieces' values and at most 96 in the build and
    the assembled generators; ``held_bytes`` is the sweep's blocks.
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
        data = np.array([piece[rows, cols] for piece in pieces], dtype=complex)
    if not np.isfinite(data).all():
        raise ValueError("the spin generator has non-finite entries")
    return _Pieces(tuple(effective), data.reshape(len(pieces), rows.size), pattern)


def _values(pieces: _Pieces, time: float) -> np.ndarray:
    """The generator's values at ``time``: one weighted sum of the pieces'."""
    return np.array([profile.value(time) for profile in pieces.profiles]) @ pieces.data


def _assemble(pieces: _Pieces, time: float) -> sp.csr_array:
    """The generator at ``time`` on the pieces' shared pattern."""
    pattern = pieces.pattern
    return sp.csr_array((_values(pieces, time), pattern.indices, pattern.indptr),
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


def _stepped_blocks(model: GKSLModel, block: np.ndarray, lo: float, hi: float,
                    points: int, substeps: int):
    """Yield the vectorized observables at the points of linspace(lo, hi, points).

    The sweep runs backward under the adjoint generator, so the points come
    in descending order, the input block at hi first. Each step is one
    ``_expm_action`` (the Algorithm 3.2 Taylor kernel, its degree and scaling
    from the exact 1-norm, to a 2^-53 backward-error target and with no
    a-posteriori certificate) on a single matrix whose values are overwritten
    in place: one step per grid interval of width h = (hi - lo) / (points - 1)
    on a time-independent model, ``substeps`` midpoint steps per interval on a
    time-dependent one, latest midpoint first.
    """
    if points < 2:
        raise ValueError(f"the grid needs at least 2 points, got {points}")
    time_dependent = model.is_time_dependent
    steps = substeps if time_dependent else 1
    # the kernel's blocks: the step's input and sum, a term and its temporaries
    pieces = _superop_pieces(model, held_bytes=8 * block.nbytes)
    sub = (hi - lo) / (points - 1) / steps
    a = _assemble(pieces, lo)
    a.data *= sub
    yield block
    for k in range(points - 2, -1, -1):  # the interval [lo + k h, lo + (k+1) h]
        for m in range(steps - 1, -1, -1):
            if time_dependent:
                a.data[:] = sub * _values(pieces, lo + (k * steps + m + 0.5) * sub)
            block = _expm_action(a, block)
        yield block


def commutator_norm_curves(model: GKSLModel, pairs, t: float, points: int,
                           substeps: int = 16):
    """Curves r -> ||[tau(r, t) O_Y, O_X]|| for several observable pairs.

    ``pairs`` is a sequence of (O_X, O_Y) local Operators, embedded here into
    the model's D x D Hilbert space. All pairs share one backward sweep over
    the grid linspace(0, t, points); on time-dependent models each grid
    interval is subdivided into ``substeps`` midpoint actions. Returns a
    (pairs, points) float array: row i is pair i's curve on the grid, in
    ascending r.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    d = model.hilbert_dim
    full = [[embed(op.matrix, op.support, model.lattice, model.dim_per_site) for op in pair]
            for pair in pairs]
    # Distinct O_Y columns evolve together through a single sweep.
    columns = {y.tobytes(): vec(y) for _, y in full}
    index = {key: i for i, key in enumerate(columns)}
    targets = [(x, index[y.tobytes()]) for x, y in full]
    norms = np.empty((len(pairs), points))
    blocks = _stepped_blocks(model, np.stack(list(columns.values()), axis=1), 0.0, t,
                             points, substeps)
    for k, block in enumerate(blocks):
        column = points - 1 - k  # the sweep runs backward from r = t
        for i, (x, j) in enumerate(targets):
            m = unvec(block[:, j], d)
            norms[i, column] = svdvals(m @ x - x @ m)[0]
    return norms
