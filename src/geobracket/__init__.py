"""Exact geometric-commutator algebra with a structure function.

The extended bracket ``[a, b] = (ab - ba) + a[s, b] - b[s, a]`` of
differential operators, the covariant dynamics it generates, the classical
structural Poisson bracket analog, and a dense-matrix grid oracle that
re-verifies everything numerically.

numpy is loaded by ``geobracket.grid`` alone, on first use: by the
``grid-check`` or ``oscillator`` command, or by a grid name read from this
package (``GridSpec``, ``compare``, ``evolve`` and the others in
``_GRID_NAMES``).  The package serves those names through a module
``__getattr__`` that looks each one up in ``geobracket.grid`` on every
access and caches nothing here, so the exact engine starts without numpy
and a rebinding in ``grid`` (a tracer's, a test's) reaches every caller.
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

_GRID_NAMES = frozenset({
    "ComparisonReport",
    "EvolutionResult",
    "GridOp",
    "GridSpec",
    "compare",
    "derivative_matrix",
    "discretize",
    "eigenvalues",
    "evolve",
    "is_hermitian",
    "matrix_bracket",
    "sample",
})

__all__ = sorted(
    {name for name in dir() if not name.startswith("_")} | _GRID_NAMES | {"grid"}
)


def __getattr__(name):
    if name == "grid" or name in _GRID_NAMES:
        import importlib

        grid = importlib.import_module(f"{__name__}.grid")
        return grid if name == "grid" else getattr(grid, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_GRID_NAMES, "grid"})

__version__ = "0.1.0"
