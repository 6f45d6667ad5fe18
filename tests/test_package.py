"""The package surface: the exact engine runs without numpy, and the grid
oracle's names still resolve through ``geobracket`` to ``geobracket.grid``.

``geobracket`` serves the eleven grid names through a module ``__getattr__``
and ``cli`` imports ``grid`` inside ``grid-check`` and ``oscillator`` only,
so numpy is loaded by the oracle alone.
"""

import subprocess
import sys

import pytest

import geobracket
from geobracket import grid

# ``sorted(geobracket.__all__)`` when the package imported ``grid`` eagerly.
PACKAGE_API = [
    "BracketReport", "CCRTable", "CoefFn", "ComparisonReport", "ComplexRational",
    "DiffOp", "DimensionMismatch", "EvolutionDiverged", "EvolutionResult",
    "ExprSyntaxError", "GridSpec", "Hamiltonian", "HermitianSplitReport",
    "JacobiResiduals", "NonPeriodicCoefficient", "NonPolynomialPhaseFunction",
    "NonRealStructureFunction", "Params", "StructureMatrix", "brackets", "classical",
    "commutator", "compare", "compose", "const", "coord", "cos_of", "covariant_rhs",
    "derivative_matrix", "discretize", "dynamics_rhs", "eigenvalues", "errors",
    "evolve", "exponential", "functions", "gdynamics", "gen_heisenberg_rhs",
    "geobracket_part", "geomentum", "geometric_ccr_suite", "geomutator",
    "geomutator_ccr_part", "gpb", "grid", "gspb", "harmonic_oscillator",
    "hermitian_split_qcpb", "identity", "is_hermitian", "jacobi_residuals", "lower",
    "matrix_bracket", "max_axis", "momentum", "monomial", "mult", "one", "operators",
    "parse", "parse_function", "parse_operator", "parsing", "partial_d", "position",
    "qcpb", "quantum", "s_transform", "sample", "sandwich", "scalar_op", "scalars",
    "sin_of", "zero", "zero_op",
]

GRID_NAMES = [
    "ComparisonReport", "EvolutionResult", "GridSpec", "compare",
    "derivative_matrix", "discretize", "eigenvalues", "evolve", "is_hermitian",
    "matrix_bracket", "sample",
]

EXACT_COMMANDS = [
    ["bracket", "--s", "x1^2", "--a", "d1", "--b", "x1", "--kind", "qcpb"],
    ["bracket", "--s", "x1^2", "--a", "d1", "--b", "x1", "--kind", "qcpb", "--json"],
    ["classical", "--s", "x1*x2", "--f", "x1^2", "--g", "x2^2"],
    ["verify", "--seed", "7", "--trials", "2"],
]

BLOCK_NUMPY = 'import sys; sys.modules["numpy"] = None; '


def _python(code, *argv):
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, timeout=120
    )


def test_package_api_is_unchanged():
    assert sorted(geobracket.__all__) == PACKAGE_API


@pytest.mark.parametrize("name", GRID_NAMES)
def test_grid_names_resolve_to_the_grid_objects(name):
    assert getattr(geobracket, name) is getattr(grid, name)
    assert name in dir(geobracket)


def test_star_import_binds_the_grid_names():
    namespace = {}
    exec("from geobracket import *", namespace)
    for name in ("GridSpec", "compare", "evolve"):
        assert namespace[name] is getattr(grid, name)


def test_a_rebinding_in_grid_reaches_package_callers(monkeypatch):
    def traced_compare(*args, **kwargs):
        raise AssertionError("not called")

    assert geobracket.compare is grid.compare  # a cached copy would go stale here
    monkeypatch.setattr(grid, "compare", traced_compare)
    assert geobracket.compare is geobracket.grid.compare is traced_compare


def test_an_unknown_name_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        geobracket.nonexistent  # noqa: B018


def test_importing_the_package_and_cli_leaves_numpy_unloaded():
    result = _python(
        "import sys, geobracket, geobracket.cli; sys.exit('numpy' in sys.modules)"
    )
    assert result.returncode == 0, result.stderr.decode()


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_commands_run_with_numpy_blocked(argv):
    main = "from geobracket import cli; sys.exit(cli.main(sys.argv[1:]))"
    normal = _python("import sys; " + main, *argv)
    blocked = _python(BLOCK_NUMPY + main, *argv)
    assert normal.returncode == 0, normal.stderr.decode()
    assert blocked.returncode == 0, blocked.stderr.decode()
    assert blocked.stdout == normal.stdout
    assert blocked.stderr == normal.stderr == b""


def test_the_grid_module_is_an_attribute_after_a_bare_import():
    result = _python("import geobracket; geobracket.grid.GridSpec")
    assert result.returncode == 0, result.stderr.decode()


def test_blocking_numpy_blocks_the_grid_names():
    result = _python(BLOCK_NUMPY + "import geobracket; geobracket.GridSpec")
    assert result.returncode == 1
    assert b"ModuleNotFoundError" in result.stderr
