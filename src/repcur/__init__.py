"""Exact construction and verification of current-algebra evaluation modules."""

from .rational import Q, parse_rat
from .linalg import Mat, rref, kernel_basis, SpanTracker, algebra_closure
from .poly import Poly, lagrange_interpolant
from .liealg import GL, SP, SO, FAMILIES, LieAlgebraSpec, build_lie_algebra
from .modules import (
    GModule,
    standard_module,
    tensor_module,
    build_irrep,
    isotypic_decompose,
    commutant_basis,
    commutant_dimension,
)
from .currents import (
    InvariantTensor,
    EvaluationModule,
    invariant_operator_matrix,
)
from .invariants import (
    Permutation,
    all_permutations,
    casimir_tensor,
    covers,
    theta_sigma,
    fft_tensors,
    schur_weyl_polys,
)
from .verify import CheckReport, run_acceptance_suite

__version__ = "0.1.0"
