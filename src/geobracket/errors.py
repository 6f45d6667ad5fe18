"""Exception types shared across the package.

Every class is a ``ValueError``: each refuses an input and none marks a
bug.  The command line exits 3 on ``DimensionMismatch`` and 2 on the rest.
"""


class DimensionMismatch(ValueError):
    """Operands live over different coordinate counts."""


class NonRealStructureFunction(ValueError):
    """The structure function must be a real-valued coefficient function."""


class NonPolynomialPhaseFunction(ValueError):
    """Phase-space functions must be pure polynomials (no exponential terms)."""


class NonPeriodicCoefficient(ValueError):
    """A coefficient is not 2*pi-periodic, so the spectral scheme rejects it."""


class EvolutionDiverged(ValueError):
    """Time integration produced non-finite values: the step is too large
    for the operator, or the flow leaves double precision."""


class ExprSyntaxError(ValueError):
    """Syntax or lowering error in the operator expression DSL.

    Carries the 1-based source position and, for pure syntax errors, the
    set of token kinds that would have been accepted.
    """

    def __init__(self, message, line=1, column=1, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{message} (line {line}, column {column})"
        if self.expected:
            detail += f"; expected one of: {', '.join(self.expected)}"
        super().__init__(detail)
