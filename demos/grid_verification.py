"""Cross-checking the exact engine against the dense matrix oracle.

Operators with periodic coefficients become N x N matrices on a uniform
grid over [0, 2*pi); brackets recomputed with matrix products must agree
with the symbolically computed bracket after discretization.  The script
also shows that the comparator actually detects an injected error, and
reports the spectrum of a flow generator.
"""

from geobracket import (
    ComplexRational,
    GridSpec,
    Params,
    compare,
    cos_of,
    discretize,
    eigenvalues,
    exponential,
    gdynamics,
    harmonic_oscillator,
    matrix_bracket,
    mult,
    one,
    partial_d,
    qcpb,
)
from fractions import Fraction

i = ComplexRational(0, 1)
spec = GridSpec(256)
psi = exponential(1, (i,))

s = cos_of(1)
a = mult(exponential(1, (i,))).scaled(-i) * partial_d(1)
b = mult(exponential(1, (i,)))

symbolic = qcpb(s, a, b).total
numeric = matrix_bracket(s, a, b, spec, "qcpb")
report = compare(symbolic, numeric, psi, 1e-8)
print(f"symbolic total:        {symbolic}")
print(f"action residual (L2):  {report.l2_residual:.3e}")
print(f"spectral residual:     {report.spectral_residual:.3e}")
print(f"agrees at 1e-8:        {report.passed}")
print()

# Sanity: a deliberately corrupted coefficient must be caught.
corrupted = symbolic + mult(one(1).scaled(Fraction(1, 1000)))
bad = compare(corrupted, numeric, psi, 1e-8)
print(f"with a 1e-3 fault injected: residual {bad.l2_residual:.3e}, "
      f"pass={bad.passed}")
print()

# Spectrum of the flow generator for the oscillator with s = cos x,
# realized with the polynomial-friendly central2 scheme.
w = gdynamics(cos_of(1), harmonic_oscillator(Params()))
grid_op = discretize(w, GridSpec(64, "central2"))
values = eigenvalues(grid_op)[:6]
print("flow generator spectrum (first 6 eigenvalues):")
for value in values:
    print(f"  {value.real:+.6f} {value.imag:+.6f}i")
