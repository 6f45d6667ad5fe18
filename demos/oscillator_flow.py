"""Covariant dynamics of the harmonic oscillator with a structure function.

The structure function s turns the Heisenberg flow df/dt = (1/i hbar)[f, H]
into a covariant flow with an extra generator w = (1/i hbar)[s, H]:

    covariant rate of f = plain rate of f + f w.

This script prints the generator and the exact rate equations for position
and momentum, then integrates the covariant flow on a grid and tabulates
expectation values and the norm growth ||F(t)|| / ||F(0)||.
"""

from fractions import Fraction

from geobracket import (
    ComplexRational,
    GridSpec,
    Params,
    cos_of,
    covariant_rhs,
    evolve,
    exponential,
    gdynamics,
    gen_heisenberg_rhs,
    harmonic_oscillator,
    momentum,
    monomial,
    mult,
    partial_d,
    position,
)

params = Params(hbar=1, mass=1, omega=1)
h = harmonic_oscillator(params)
s = monomial(1, (2,))  # s = x^2

w = gdynamics(s, h)
print(f"hamiltonian:        {h.op}")
print(f"structure function: {s}")
print(f"flow generator w:   {w}")
print(f"geomenergy i*h*w:   {w.scaled(ComplexRational(0, params.hbar))}")
print()

x, p = position(1), momentum(1)
print(f"plain rate of x:     {gen_heisenberg_rhs(s, h, x)}")
print(f"covariant rate of x: {covariant_rhs(s, h, x)}")
print(f"plain rate of p:     {gen_heisenberg_rhs(s, h, p)}")
print(f"covariant rate of H: {covariant_rhs(s, h, h.op)}")
print()

# Grid integration of a periodic observable under a periodic Hamiltonian.
# (The oscillator potential itself is polynomial, so for the grid part we
#  use a cosine well; the symbolic results above are exact regardless.)
# The covariant flow is not norm-preserving -- the f*w term grows like
# exp(t ||[s, H]||) -- so a strong structure function diverges quickly; a
# mild one stays well resolved.
spec = GridSpec(64)
h_periodic = partial_d(1, 0, 2).scaled(Fraction(-1, 2)) + mult(cos_of(1))
psi = exponential(1, (ComplexRational(0, 1),))
result = evolve(
    cos_of(1).scaled(Fraction(1, 8)),
    h_periodic,
    mult(cos_of(1)),
    t_final=0.5,
    steps=400,
    spec=spec,
    law="covariant",
    psi=psi,
)
print("covariant grid flow of cos x under -d^2/2 + cos x (s = cos(x)/8):")
header, *rows = result.csv_lines()
for line in [header, *rows[::10]]:  # every 10th of the 101 samples
    t, re, im, growth = line.split(",")
    print(f"  {t:>22} {re:>24} {im:>24} {growth}")
