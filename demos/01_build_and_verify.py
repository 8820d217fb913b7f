"""Build cloning processes and check them in exact arithmetic.

A cloning process takes an object state x, a blank copy slot, and a machine,
and outputs (x, x, f(x)) via a single symplectic map.  Everything below is
computed over the rationals, so "passes" means an exact identity, not a
tolerance.
"""

import random
from fractions import Fraction

from symclone import (
    SkewForm,
    RatMatrix,
    basic_cloner,
    general_cloner,
    mirror_cloner,
    product_cloner,
    standard_form,
    verify_cloning,
)

# The smallest interesting case: a 2-dimensional object space.
c = basic_cloner()
print("phi =")
for row in c.phi.tolist():
    print("   ", [str(x) for x in row])
print("readout F =", [[str(x) for x in row] for row in c.readout.tolist()])

report = verify_cloning(c)
print("verdict:", report.verdict)
print("symplectic defect:", report.symplectic_defect_norm)
print("cloning residual:", report.cloning_residual)

# The construction scales by taking products of the basic block.
big = product_cloner(c, c)
print("\nproduct of two copies acts on", big.phi.rows, "dimensions;",
      "verdict:", verify_cloning(big).verdict)

# It also transports to any rational symplectic form, not just the standard
# one: the normalizing basis is folded into the machine block of phi, so the
# machine keeps the standard form and verification stays exact.
rng = random.Random(0)
while True:
    a = RatMatrix([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
    m = a - a.T
    if m.rank() == 4:
        break
form = SkewForm(m)
g = general_cloner(form)
print("\nrandom form, dim 4: machine dim =", g.machine_dim,
      "| verdict:", verify_cloning(g).verdict)

# Without any normalization, a copy of the object with its form reversed
# serves as the machine: phi = C (x) I for one fixed 3x3 rational matrix C,
# whatever the form, and the readout is the identity.
mirror = mirror_cloner(form)
halves = {str(x) for row in mirror.phi.tolist() for x in row}
print("mirror machine, dim 4: machine form = -omega:",
      mirror.machine_form.matrix == -form.matrix,
      "| phi entries:", sorted(halves, key=Fraction),
      "| verdict:", verify_cloning(mirror).verdict)

# Sanity: the machine is exactly as large as the object.  That is not an
# artifact of this construction -- see 02_machine_size_bound.py.
assert g.machine_dim == form.dim == mirror.machine_dim
assert verify_cloning(g).passed and verify_cloning(mirror).passed
assert general_cloner(standard_form(5)).machine_dim == 10
