"""Classical structural Poisson brackets on polynomial phase space.

Phase space is (x1..xn, p1..pn) with an antisymmetric structure matrix J.
The structural bracket adds the same correction pattern as the quantum
side, and the flow of an observable decomposes as

    covariant rate = plain rate + f * w,      w = {s, H}.
"""

from fractions import Fraction

from geobracket import (
    StructureMatrix,
    coord,
    dynamics_rhs,
    gpb,
    gspb,
    monomial,
)

n_pairs = 1
size = 2
J = StructureMatrix.canonical(n_pairs)
q = coord(size, 0)
p = coord(size, 1)

# Classical oscillator H = p^2/2 + q^2/2 with structure function s = q^2.
hamiltonian = (p * p + q * q).scaled(Fraction(1, 2))
s = monomial(size, (2, 0))

print(f"H = {hamiltonian}")
print(f"s = {s}")
print()
print(f"{{q, H}}        = {gpb(q, hamiltonian, J)}")
print(f"{{q, H}}_s      = {gspb(s, q, hamiltonian, J)}")
print(f"plain rate q  = {dynamics_rhs(s, hamiltonian, q, J, 'tghs')}")
print(f"full rate q   = {dynamics_rhs(s, hamiltonian, q, J, 'gchs')}")
print(f"w = {{s, H}}    = {dynamics_rhs(s, hamiltonian, q, J, 'sdyn')}")
print()

# The decomposition holds exactly.
full = dynamics_rhs(s, hamiltonian, q, J, "gchs")
plain = dynamics_rhs(s, hamiltonian, q, J, "tghs")
w = dynamics_rhs(s, hamiltonian, q, J, "sdyn")
print(f"full - plain - q*w = {full - plain - q * w}")
print()

# Position-momentum bracket with the correction terms visible.
print(f"{{q, p}}_s = {gspb(s, q, p, J)}   (= 1 + q ds/dq + p ds/dp)")
print(f"H is covariantly conserved: {{H, H}}_s = "
      f"{gspb(s, hamiltonian, hamiltonian, J)}")
