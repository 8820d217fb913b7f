"""Cloning processes on symplectic vector spaces, and why quantum ones fail.

Exact rational symplectic linear algebra, constructors and verifiers for
classical cloning processes, the machine-size bound as a solver and witness,
a finite-dimensional quantum no-cloning refuter, and a generic cloning-diagram
checker for symmetric monoidal categories.
"""

from .exact import (
    DegenerateFormError,
    RatMatrix,
    ShapeError,
    SkewForm,
    darboux_basis,
    direct_sum,
    form_kernel,
    is_symplectic_map,
    standard_form,
    symplectic_defect,
    vec,
    zero_vec,
)
from .classical import (
    CloningProcess,
    CloningVerificationError,
    InfeasibleError,
    NotApplicableError,
    SizeWitness,
    VerificationReport,
    basic_cloner,
    clone_residual_probe,
    general_cloner,
    mirror_cloner,
    product_cloner,
    readout_solver,
    shuffle_permutation,
    size_witness,
    standard_cloner,
    verify_cloning,
)
from .quantum import (
    HypothesisViolationError,
    Refutation,
    basis_cloner,
    is_isometry,
    kron,
    refute_cloning,
    standard_refutation,
)
from .diagrams import (
    AffineMap,
    CloningDiagram,
    DiagramInstance,
    DiagramReport,
    check_cloning_diagram,
    diagram_from_process,
    hilbert_cloning_diagram,
    hilbert_instance,
    symplectic_instance,
)

__version__ = "0.1.0"
