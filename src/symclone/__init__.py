"""Cloning processes on symplectic vector spaces, and why quantum ones fail.

Exact rational symplectic linear algebra, constructors and verifiers for
classical cloning processes, the machine-size bound as a solver and witness,
a finite-dimensional quantum no-cloning refuter, and a generic cloning-diagram
checker for symmetric monoidal categories.

The exact side imports nothing outside the standard library.  The float side
(``symclone.quantum``: the refuter and the Hilbert diagram instance;
``symclone.probe``: the residual probe) needs numpy, which the ``float``
extra installs (``pip install "symclone[float]"``), so its names load on
first access (PEP 562) and ``import symclone`` alone does not load numpy.
The names of ``symclone.diagrams`` load on first access too: of the CLI
commands only ``diagram-check`` needs them.
"""

import importlib as _importlib

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
    defect_floor,
    general_cloner,
    mirror_cloner,
    product_cloner,
    readout_solver,
    size_witness,
    standard_cloner,
    verify_cloning,
)

__version__ = "0.1.0"

# served from their submodules on first access
_LAZY = {
    "diagrams": (
        "AffineMap",
        "CloningDiagram",
        "DiagramInstance",
        "DiagramReport",
        "check_cloning_diagram",
        "diagram_from_process",
        "symplectic_instance",
    ),
    "quantum": (
        "HypothesisViolationError",
        "Refutation",
        "basis_cloner",
        "hilbert_cloning_diagram",
        "hilbert_instance",
        "is_isometry",
        "kron",
        "refute_cloning",
        "standard_refutation",
    ),
}
_LAZY_SOURCE = {name: module for module, names in _LAZY.items() for name in names}
# the probe's one public name; its module stays out of __all__
_LAZY_SOURCE["clone_residual_probe"] = "probe"

__all__ = sorted(
    [name for name in globals() if not name.startswith("_")]
    + [*_LAZY, *_LAZY_SOURCE]
)


def __getattr__(name: str):
    if name in _LAZY:
        return _importlib.import_module(f".{name}", __name__)
    if name in _LAZY_SOURCE:
        module = _importlib.import_module(f".{_LAZY_SOURCE[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
