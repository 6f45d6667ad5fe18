"""Exact geometric-commutator algebra with a structure function.

The extended bracket ``[a, b] = (ab - ba) + a[s, b] - b[s, a]`` of
differential operators, the covariant dynamics it generates, the classical
structural Poisson bracket analog, and a dense-matrix grid oracle that
re-verifies everything numerically.
"""

from .brackets import (
    BracketReport,
    HermitianSplitReport,
    JacobiResiduals,
    geomutator,
    hermitian_split_qcpb,
    jacobi_residuals,
    qcpb,
    sandwich,
    s_transform,
)
from .classical import (
    StructureMatrix,
    dynamics_rhs,
    geobracket_part,
    gpb,
    gspb,
)
from .errors import (
    DimensionMismatch,
    EvolutionDiverged,
    ExprSyntaxError,
    NonPeriodicCoefficient,
    NonPolynomialPhaseFunction,
    NonRealStructureFunction,
)
from .functions import (
    CoefFn,
    const,
    coord,
    cos_of,
    exponential,
    monomial,
    one,
    sin_of,
    zero,
)
from .grid import (
    ComparisonReport,
    EvolutionResult,
    GridOp,
    GridSpec,
    compare,
    derivative_matrix,
    discretize,
    eigenvalues,
    evolve,
    is_hermitian,
    matrix_bracket,
    sample,
)
from .operators import (
    DiffOp,
    commutator,
    compose,
    identity,
    momentum,
    mult,
    partial_d,
    position,
    scalar_op,
    zero_op,
)
from .parsing import lower, max_axis, parse, parse_function, parse_operator
from .quantum import (
    CCRTable,
    Hamiltonian,
    Params,
    covariant_rhs,
    gdynamics,
    gen_heisenberg_rhs,
    geomentum,
    geometric_ccr_suite,
    geomutator_ccr_part,
    harmonic_oscillator,
)
from .scalars import ComplexRational

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
