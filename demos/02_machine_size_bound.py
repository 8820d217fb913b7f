"""Why the machine cannot be smaller than the object.

Any symplectic cloning process forces the readout map F to satisfy
F^T sigma F = -omega on the machine space.  Since -omega is nondegenerate,
F must be injective, so dim N >= dim M.  Three views of the same fact:

1. exact: solve for F on the standard forms; feasible iff k >= m;
2. witness: for an undersized candidate, exhibit the kernel vector that
   breaks the equation;
3. numeric: try to minimize the symplectic defect anyway and watch the
   optimizer hit a floor.
"""

import math

from symclone import (
    CloningProcess,
    InfeasibleError,
    RatMatrix,
    clone_residual_probe,
    readout_solver,
    size_witness,
    standard_form,
    zero_vec,
)

print("feasibility of F^T sigma F = -omega (rows m = object pairs, cols k = machine pairs)")
for m in range(5):
    cells = []
    for k in range(5):
        try:
            readout_solver(m, k)
            cells.append("ok ")
        except InfeasibleError:
            cells.append(" - ")
    print(f"  m={m}: " + "".join(cells))

# A concrete undersized candidate: 4-dim object, 2-dim machine, any readout.
cand = CloningProcess(
    object_form=standard_form(2),
    blank=zero_vec(4),
    machine_form=standard_form(1),
    ready=zero_vec(2),
    phi=RatMatrix.identity(10),
    readout=RatMatrix([[1, 0, 2, 0], [0, 1, 0, 1]]),
)
w = size_witness(cand)
print("\nwitness vector in ker F:", [str(x) for x in w.vector])
print("machine pullback on it :", [str(x) for x in w.pullback_row], "(all zero)")
print("object form against its partner:", w.pairing, "(nonzero -- contradiction)")

# With no machine at all (k = 0) the defect cannot drop below sqrt(2m):
# a whole omega block of the constraint is structurally unreachable.
for m in (1, 2, 3):
    best = clone_residual_probe(m, 0, iterations=2000, seed=1)
    print(f"\nm={m}, k=0: best defect over 2000 iterations = {best:.9f}"
          f"  (floor sqrt(2m) = {math.sqrt(2 * m):.9f})")
