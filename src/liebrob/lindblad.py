"""GKSL generators as dense superoperators, and exact propagation.

States evolve forward under the generator (Schrodinger picture); observables
evolve backward under its Hilbert-Schmidt adjoint (Heisenberg picture). All
propagation is one stepped sweep over a uniform grid: a time-independent
model takes a single exponential e^{h L} for the grid step h and applies it
once per interval; a time-dependent model takes a time-ordered product of
piecewise-constant midpoint exponentials per interval, so every step is
exactly a channel / adjoint channel. Single-interval evolution is the
two-point grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, svdvals

from .lattice import Lattice
from .operators import Operator, embed, unvec, vec


class EvolutionConvergenceWarning(UserWarning):
    """Step-doubling diagnostic exceeded its tolerance."""


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
        smin, smax = _sin_range(self.omega * lo + self.phase, self.omega * hi + self.phase)
        return 0.5 * max(abs(self.amplitude * (1.0 + smax)),
                         abs(self.amplitude * (1.0 + smin)))


def _sin_range(a: float, b: float) -> tuple[float, float]:
    """Range of sin over the phase interval [min(a,b), max(a,b)]."""
    lo, hi = (a, b) if a <= b else (b, a)
    if hi - lo >= _TWO_PI:
        return -1.0, 1.0
    smin = min(math.sin(lo), math.sin(hi))
    smax = max(math.sin(lo), math.sin(hi))
    # crest at pi/2 + 2*pi*k, trough at -pi/2 + 2*pi*k inside the interval
    if math.ceil((lo - math.pi / 2) / _TWO_PI) <= (hi - math.pi / 2) / _TWO_PI:
        smax = 1.0
    if math.ceil((lo + math.pi / 2) / _TWO_PI) <= (hi + math.pi / 2) / _TWO_PI:
        smin = -1.0
    return smin, smax


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
    guard_dim: int = 64

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


def _check_guard(model: GKSLModel) -> None:
    if model.hilbert_dim > model.guard_dim:
        raise ValueError(
            f"Hilbert dimension {model.hilbert_dim} exceeds the desk-scale guard"
            f" {model.guard_dim}; raise guard_dim to override"
        )


def _superop_pieces(model: GKSLModel, adjoint: bool):
    """Superoperator matrices summed per time profile: (matrix, profile).

    Each term's rate is folded into its matrix, so terms that share a
    profile share one D^2 x D^2 piece.
    """
    _check_guard(model)
    d = model.hilbert_dim
    eye = np.eye(d, dtype=complex)
    sums: dict[TimeProfile, np.ndarray] = {}

    def add(profile: TimeProfile, matrix: np.ndarray) -> None:
        if profile in sums:
            sums[profile] += matrix
        else:
            sums[profile] = matrix

    for term in model.hamiltonian_terms:
        h = embed(term.matrix, term.support, model.lattice, model.dim_per_site).matrix
        comm = np.kron(eye, h) - np.kron(h.T, eye)  # vec(H rho - rho H)
        add(term.profile, (1.0j if adjoint else -1.0j) * comm)
    for term in model.lindblad_terms:
        l = embed(term.matrix, term.support, model.lattice, model.dim_per_site).matrix
        ldl = l.conj().T @ l
        anti = 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
        jump = np.kron(l.T, l.conj().T) if adjoint else np.kron(l.conj(), l)
        add(term.profile, term.rate * (jump - anti))
    return [(matrix, profile) for profile, matrix in sums.items()]


def _assemble(pieces, dim: int, time: float) -> np.ndarray:
    total = np.zeros((dim * dim, dim * dim), dtype=complex)
    for matrix, profile in pieces:
        c = profile.value(time)
        if c != 0.0:
            total += c * matrix
    return total


def build_generator(model: GKSLModel, time: float = 0.0) -> np.ndarray:
    """Matrix of the GKSL generator at the given time (column stacking).

    Action on a vectorized state:  -i(H rho - rho H)
    + sum_v gamma_v [L rho L^dag - (L^dag L rho + rho L^dag L)/2].
    """
    return _assemble(_superop_pieces(model, adjoint=False), model.hilbert_dim, time)


def build_adjoint_generator(model: GKSLModel, time: float = 0.0) -> np.ndarray:
    """Hilbert-Schmidt adjoint of the generator; annihilates the identity."""
    return _assemble(_superop_pieces(model, adjoint=True), model.hilbert_dim, time)


def _stepped_blocks(model: GKSLModel, block: np.ndarray, lo: float, hi: float,
                    points: int, adjoint: bool, substeps: int):
    """Yield the vectorized block at each point of linspace(lo, hi, points).

    ``adjoint=True`` propagates observables backward from hi (points in
    descending order); ``adjoint=False`` propagates states forward from lo.
    The step h = (hi - lo) / (points - 1) comes from the endpoints and the
    point count, never from differences of grid values. A time-independent
    model takes one exponential e^{h L}; a time-dependent one takes
    ``substeps`` midpoint exponentials per interval, earliest midpoint
    applied last when going backward, so every step is exactly a channel.
    """
    if points < 2:
        raise ValueError(f"the grid needs at least 2 points, got {points}")
    d = model.hilbert_dim
    h = (hi - lo) / (points - 1)
    time_dependent = model.is_time_dependent
    if time_dependent:
        pieces = _superop_pieces(model, adjoint=adjoint)
        sub = h / substeps
    else:
        # the pieces are dropped before the exponential, which needs their memory
        step = expm(h * _assemble(_superop_pieces(model, adjoint=adjoint), d, 0.0))
    yield block
    for j in range(points - 1):
        if time_dependent:
            k = points - 2 - j if adjoint else j  # the interval [lo + k h, lo + (k+1) h]
            for m in range(substeps - 1, -1, -1) if adjoint else range(substeps):
                midpoint = lo + (k * substeps + m + 0.5) * sub
                block = expm(sub * _assemble(pieces, d, midpoint)) @ block
        else:
            block = step @ block
        yield block


def _two_point(model: GKSLModel, mat: np.ndarray, lo: float, hi: float, steps: int,
               adjoint: bool, check: bool, label: str) -> np.ndarray:
    """mat carried across [lo, hi] by the sweep on the two-point grid.

    With ``check`` on a time-dependent model the sweep is rerun at
    ``2*steps`` and a gap above 1e-8 warns.
    """
    def endpoint(n):
        *_, last = _stepped_blocks(model, vec(mat), lo, hi, 2, adjoint, n)
        return unvec(last, model.hilbert_dim)

    out = endpoint(steps)
    if check and model.is_time_dependent:
        defect = svdvals(endpoint(2 * steps) - out)[0]
        if defect > 1e-8:
            warnings.warn(
                f"{label}: results at {steps} and {2 * steps} steps differ by"
                f" {defect:.3e} > 1e-8; increase steps",
                EvolutionConvergenceWarning,
                stacklevel=3,
            )
    return out


def heisenberg_evolve(model: GKSLModel, observable, r: float, t: float,
                      steps: int = 64, check_convergence: bool = True):
    """Backward-evolve an observable: A(r) for A given at time t.

    Time-independent models use a single matrix exponential of the adjoint
    generator; time-dependent models use the backward time-ordered midpoint
    product, with a step-doubling convergence diagnostic that warns when the
    results at ``steps`` and ``2*steps`` differ by more than 1e-8.
    """
    if not 0 <= r <= t:
        raise ValueError(f"need 0 <= r <= t, got r={r}, t={t}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_guard(model)
    if isinstance(observable, Operator):
        mat = observable.matrix
    else:
        mat = np.asarray(observable, dtype=complex)
    if r == t:
        out = mat.copy()
    else:
        out = _two_point(model, mat, r, t, steps, adjoint=True,
                         check=check_convergence, label="heisenberg_evolve")
    if isinstance(observable, Operator):
        return Operator(matrix=out, support=observable.support,
                        dim_per_site=observable.dim_per_site,
                        embedded=observable.embedded)
    return out


STATE_TOL = 1e-10


def schrodinger_evolve(model: GKSLModel, rho, s: float, t: float,
                       steps: int = 64, check_convergence: bool = True) -> np.ndarray:
    """Forward-evolve a density matrix from time s to time t.

    The input must be Hermitian, unit trace and positive semidefinite to
    1e-10; the output is checked for trace and Hermiticity preservation and
    for eigenvalues above -1e-8.
    """
    if s > t:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_guard(model)
    rho = np.asarray(rho.matrix if isinstance(rho, Operator) else rho, dtype=complex)
    if np.abs(rho - rho.conj().T).max() > STATE_TOL:
        raise ValueError("input state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > STATE_TOL:
        raise ValueError("input state does not have unit trace")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -STATE_TOL:
        raise ValueError("input state is not positive semidefinite")
    if s == t:
        return rho.copy()
    out = _two_point(model, rho, s, t, steps, adjoint=False,
                     check=check_convergence, label="schrodinger_evolve")
    if abs(np.trace(out) - 1.0) > 1e-10:
        raise RuntimeError("propagation failed to preserve the trace")
    if np.abs(out - out.conj().T).max() > 1e-10:
        raise RuntimeError("propagation failed to preserve Hermiticity")
    if np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() < -1e-8:
        raise RuntimeError("propagation produced a significantly negative eigenvalue")
    return out


def _as_embedded(op: Operator, model: GKSLModel) -> Operator:
    if op.embedded:
        return op
    return embed(op.matrix, op.support, model.lattice, model.dim_per_site)


def commutator_norm_curves(model: GKSLModel, pairs, t: float, points: int,
                           substeps: int = 16):
    """Curves r -> ||[tau(r, t) O_Y, O_X]|| for several observable pairs.

    ``pairs`` is a sequence of (O_X, O_Y) Operators with disjoint supports.
    All pairs share one backward sweep over the grid linspace(0, t, points);
    on time-dependent models each grid interval is subdivided into
    ``substeps`` midpoint exponentials. Returns one list of (r, value) per
    pair, in ascending r.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    _check_guard(model)
    d = model.hilbert_dim
    pairs = [(_as_embedded(ox, model), _as_embedded(oy, model)) for ox, oy in pairs]
    for ox, oy in pairs:
        if set(ox.support) & set(oy.support):
            raise ValueError(
                f"supports {ox.support} and {oy.support} overlap; the bounds"
                " require disjoint supports"
            )

    # Distinct O_Y columns evolve together through a single sweep.
    y_keys = []
    y_index: dict = {}
    columns = []
    for _, oy in pairs:
        key = (oy.support, oy.matrix.tobytes())
        if key not in y_index:
            y_index[key] = len(columns)
            columns.append(vec(oy.matrix))
        y_keys.append(key)
    evolved = list(_stepped_blocks(model, np.stack(columns, axis=1), 0.0, t, points,
                                   adjoint=True, substeps=substeps))[::-1]

    rs = np.linspace(0.0, t, points).tolist()
    curves = []
    for (ox, _), key in zip(pairs, y_keys):
        col = y_index[key]
        xmat = ox.matrix
        curve = []
        for r, block in zip(rs, evolved):
            m = unvec(block[:, col], d)
            comm = m @ xmat - xmat @ m
            curve.append((r, float(svdvals(comm)[0])))
        curves.append(curve)
    return curves
