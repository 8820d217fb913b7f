"""The immutable result records: construction, value semantics and repr, as
the frozen dataclasses they replace gave them."""

import copy
from fractions import Fraction

import pytest

from symclone import RatMatrix, basic_cloner, standard_form, vec, zero_vec
from symclone.classical import CloningProcess, SizeWitness, VerificationReport
from symclone.diagrams import (
    AffineMap,
    CloningDiagram,
    DiagramInstance,
    DiagramReport,
    check_cloning_diagram,
    diagram_from_process,
    symplectic_instance,
)
from symclone.quantum import Refutation, hilbert_instance

_BASIC = basic_cloner()
_DIAGRAM = diagram_from_process(_BASIC)[1]

# Each record type with the fields of one instance, in declaration order.
RECORDS = {
    CloningProcess: dict(
        object_form=_BASIC.object_form, blank=_BASIC.blank, machine_form=_BASIC.machine_form,
        ready=_BASIC.ready, phi=_BASIC.phi, readout=_BASIC.readout,
    ),
    VerificationReport: dict(
        symplectic_defect_norm=Fraction(1, 2), cloning_residual=Fraction(0),
        inferred_readout=RatMatrix([[1, 0], [0, -1]]), verdict="fail",
        reason="phi is not symplectic", first_defect_entry=(0, 1, Fraction(1, 2)),
    ),
    SizeWitness: dict(
        vector=vec([1, 0]), pullback_row=zero_vec(2), partner=vec([0, 1]), pairing=Fraction(1)
    ),
    AffineMap: dict(matrix=RatMatrix.identity(2), offset=vec([1, "1/2"])),
    CloningDiagram: dict(
        object_a=_DIAGRAM.object_a, beta=_DIAGRAM.beta, machine_b=_DIAGRAM.machine_b,
        rho=_DIAGRAM.rho, arrow_c=_DIAGRAM.arrow_c, readout=_DIAGRAM.readout,
    ),
    DiagramReport: dict(
        results=((zero_vec(2), True), (vec([1, 0]), False)), passed=False,
        first_failure=vec([1, 0]), exhaustive=True, note="sample decides the condition",
    ),
    Refutation: dict(
        overlap=0.5 + 0.5j, preserved_overlap=0.5 + 0.5j, implied_machine_overlap=1.4,
        cauchy_schwarz_excess=0.4, cloning_residual=0.3, residual_per_state=(0.3, 0.2),
    ),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields = RECORDS[cls]
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert copy.copy(by_keyword) == by_keyword
    # unequal to another type holding the same values, a subclass included
    derived = type("Derived", (cls,), {})
    assert by_keyword != derived(**fields)
    assert by_keyword != tuple(fields.values())

    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(by_keyword, name, value)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(by_keyword, name)
    with pytest.raises(AttributeError):
        by_keyword.extra = 1

    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_keyword) == f"{cls.__name__}({shown})"


def test_verification_report_defaults_to_no_defect_entry():
    fields = {**RECORDS[VerificationReport]}
    del fields["first_defect_entry"]
    assert VerificationReport(**fields).first_defect_entry is None


def test_shape_checks_run_on_construction():
    with pytest.raises(ValueError, match="offset length"):
        AffineMap(RatMatrix.identity(2), zero_vec(3))
    with pytest.raises(ValueError, match="phi must be 6x6"):
        CloningProcess(**{**RECORDS[CloningProcess], "phi": RatMatrix.identity(4)})
    with pytest.raises(ValueError, match="readout must be 0x2"):
        CloningProcess(**{**RECORDS[CloningProcess], "machine_form": standard_form(0),
                          "ready": (), "phi": RatMatrix.identity(4)})


# Diagram instances are not records: one shared object per category, whose
# operations are methods and whose name, unit and exhaustive flag are class
# attributes.


@pytest.mark.parametrize("factory", [symplectic_instance, hilbert_instance], ids=lambda f: f.__name__)
def test_instances_are_shared_and_frozen(factory):
    inst = factory()
    assert factory() is inst
    assert isinstance(inst, DiagramInstance)
    for name in ("name", "unit", "exhaustive", "compose", "extra"):
        with pytest.raises(AttributeError):
            setattr(inst, name, None)
    assert not hasattr(inst, "__dict__")


def test_a_subclass_of_diagram_instance_runs_through_the_checker():
    calls = []

    class Traced(DiagramInstance):
        """The symplectic category, counting the composites the checker forms."""

        name, unit, exhaustive = "traced", symplectic_instance().unit, True

        def __getattr__(self, attr):
            return getattr(symplectic_instance(), attr)

        def compose(self, g, h):
            calls.append((g, h))
            return symplectic_instance().compose(g, h)

    inst, diagram = Traced(), diagram_from_process(_BASIC)[1]
    report = check_cloning_diagram(inst, diagram)
    assert report.passed and report.exhaustive and len(report.results) == 3
    # one composite with c per family; the readout composes with the shared instance
    assert [g for g, _ in calls] == [diagram.arrow_c]
    broken = CloningDiagram(**{**vars(diagram), "beta": vec([1, 0])})
    assert not check_cloning_diagram(inst, broken).passed
