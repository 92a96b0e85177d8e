"""Operator algebra on spin lattices.

Named single-site operators, local operators with their supports (one rule,
:func:`local_operator`), the action of a local matrix on a lattice array (one
contraction over its support's site axes, on the identity the D x D
embedding), the operator norm of an array (dense SVD) and support distances.
The vectorization convention used throughout the package is column stacking,

    vec(X Y Z) = (Z^T kron X) vec(Y),

with tensor factors of embedded operators ordered by ascending global site
index.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
RAISING = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |1><0|
LOWERING = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|

NAMED_OPERATORS = {
    "pauli_x": PAULI_X,
    "pauli_y": PAULI_Y,
    "pauli_z": PAULI_Z,
    "raising": RAISING,
    "lowering": LOWERING,
    "identity": np.eye(2, dtype=complex),
}


def named_operator(name: str) -> np.ndarray:
    """Look up a single-site generator matrix by name (qubit dimension)."""
    try:
        return NAMED_OPERATORS[name].copy()
    except KeyError:
        raise ValueError(
            f"unknown operator name {name!r}; expected one of {sorted(NAMED_OPERATORS)}"
        ) from None


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(matrix).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    vector = np.asarray(vector)
    if dim is None:
        dim = math.isqrt(vector.size)
        if dim * dim != vector.size:
            raise ValueError(f"vector of size {vector.size} is not a square matrix")
    return vector.reshape((dim, dim), order="F")


@dataclass(frozen=True, eq=False)
class Operator:
    """A local matrix of dimension dim_per_site^|support| and its lattice support."""

    matrix: np.ndarray
    support: tuple[int, ...]


def local_operator(matrix, support, dim_per_site: int = 2) -> Operator:
    """Wrap a d^k x d^k matrix on k >= 1 distinct sites, else ValueError."""
    matrix = np.asarray(matrix, dtype=complex)
    support = tuple(support)
    try:
        support = tuple(map(operator.index, support))
    except TypeError:
        raise ValueError(f"support sites must be integers, got {support}") from None
    if not support:
        raise ValueError("support must be nonempty")
    if len(set(support)) != len(support):
        raise ValueError(f"support sites must be distinct, got {support}")
    expected = dim_per_site ** len(support)
    if matrix.shape != (expected, expected):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match dim_per_site^{len(support)}"
            f" = {expected}"
        )
    return Operator(matrix=matrix, support=support)


def embed(matrix, support, lattice: Lattice, dim_per_site: int = 2) -> np.ndarray:
    """The D x D matrix of a local operator, extended by identity off its support.

    Tensor factors of ``matrix`` correspond to the support sites in the order
    listed; the embedded matrix's factors follow ascending global site index,
    the single ordering convention shared by all modules. It is :func:`act` on
    the identity, after :func:`local_operator` and :meth:`Lattice.check_sites`.
    """
    op = local_operator(matrix, support, dim_per_site)
    lattice.check_sites(op.support)
    n = lattice.n_sites
    return act(op.matrix, op.support, np.eye(dim_per_site**n), n, dim_per_site)


def act(matrix, support, block, n_sites: int, dim_per_site: int) -> np.ndarray:
    """``embed(matrix, support) @ block`` by one contraction; inputs unchecked."""
    k, d = len(support), dim_per_site
    sites = np.reshape(block, (d,) * n_sites + (-1,))
    out = np.tensordot(np.reshape(matrix, [d] * 2 * k), sites, (range(k, 2 * k), support))
    return np.moveaxis(out, range(k), support).reshape(np.shape(block))


def operator_norm(matrix) -> float:
    """Largest singular value, by dense SVD."""
    s = np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def support_distance(x_sites, y_sites, lattice: Lattice) -> float:
    """min over x in X, y in Y of d(x, y); zero iff the supports meet."""
    x_sites = tuple(x_sites)
    y_sites = tuple(y_sites)
    if not x_sites or not y_sites:
        raise ValueError("support sets must be nonempty")
    return float(min(lattice.dist[x, y] for x in x_sites for y in y_sites))
