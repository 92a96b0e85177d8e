"""Exact open-system lattice dynamics with Lieb-Robinson bound certification.

Small spin lattices evolve through sparse CSR GKSL generators, one Taylor
action of the exponential per step; large harmonic lattices evolve exactly
through a 2n x 2n kernel matrix. Each takes one stepping pass per run. The
bounds modules fit the decay constants, evaluate every theorem's right-hand
side, and certify LHS <= RHS pointwise. The package exports only what the
certifier runs.
"""

from .bounds import (
    JMatrix,
    build_j_matrix,
    certify,
    lambda0_fit,
    lightcone_arrivals,
    matrix_exp,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
    theorem3_matrix,
)
from .harmonic import (
    HarmonicModel,
    build_kernel,
    c0_fit,
    stepped_products,
    symplectic_defect,
    symplectic_form,
    theorem4_bound,
)
from .lattice import (
    AssumptionConstants,
    Lattice,
    assumption_constants,
    build_lattice,
)
from .lindblad import (
    GKSLModel,
    HamiltonianTerm,
    LindbladTerm,
    TimeProfile,
    commutator_norm_curves,
)
from .operators import (
    Operator,
    embed,
    local_operator,
    named_operator,
    operator_norm,
    support_distance,
    unvec,
    vec,
)

__version__ = "0.1.0"
