"""The package namespace: eager exact names, lazily served diagram, quantum
and probe names."""

import subprocess
import sys
from pathlib import Path

import pytest

import symclone

# Every public name `from symclone import *` gave before the diagram and
# quantum names were served lazily (the four submodules included).
EXPORTS = (
    "AffineMap", "CloningDiagram", "CloningProcess", "CloningVerificationError",
    "DegenerateFormError", "DiagramInstance", "DiagramReport", "HypothesisViolationError",
    "InfeasibleError", "NotApplicableError", "RatMatrix", "Refutation", "ShapeError",
    "SizeWitness", "SkewForm", "VerificationReport", "basic_cloner", "basis_cloner",
    "check_cloning_diagram", "classical", "clone_residual_probe", "darboux_basis", "defect_floor",
    "diagram_from_process", "diagrams", "direct_sum", "exact", "form_kernel",
    "general_cloner", "hilbert_cloning_diagram", "hilbert_instance", "is_isometry",
    "is_symplectic_map", "kron", "mirror_cloner", "product_cloner", "quantum",
    "readout_solver", "refute_cloning", "size_witness",
    "standard_cloner", "standard_form", "standard_refutation", "symplectic_defect",
    "symplectic_instance", "vec", "verify_cloning", "zero_vec",
)


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_resolves(name):
    assert getattr(symclone, name) is not None
    assert name in dir(symclone)


def test_star_import_gives_the_same_names():
    assert sorted(symclone.__all__) == sorted(EXPORTS)
    namespace: dict = {}
    exec("from symclone import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


def test_lazy_names_are_the_quantum_objects():
    # the diagram names are served the same way
    from symclone import diagrams, quantum

    assert symclone.quantum is quantum
    assert symclone.refute_cloning is quantum.refute_cloning
    assert symclone.hilbert_instance is quantum.hilbert_instance
    assert symclone.hilbert_cloning_diagram is quantum.hilbert_cloning_diagram
    assert symclone.diagrams is diagrams
    assert symclone.check_cloning_diagram is diagrams.check_cloning_diagram
    assert symclone.symplectic_instance is diagrams.symplectic_instance
    # the probe's name is one object from the package, classical and its module
    from symclone import classical, probe

    assert symclone.clone_residual_probe is probe.clone_residual_probe
    assert classical.clone_residual_probe is probe.clone_residual_probe


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        symclone.no_such_name
    with pytest.raises(ImportError):
        from symclone import no_such_name  # noqa: F401


def test_the_cli_loads_no_typing():
    # -S skips site, whose .pth files may import typing themselves; symclone's
    # annotations come from collections.abc
    where = str(Path(symclone.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {where!r}); import symclone.cli; print('typing' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
