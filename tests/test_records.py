"""The immutable result records: construction, value semantics and repr, as
the frozen dataclasses they replace gave them, and the two diagram records,
which compare by identity."""

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
from symclone.quantum import Refutation, basis_cloner, hilbert_cloning_diagram, hilbert_instance

_BASIC = basic_cloner()

# Each record type with the fields of one instance, in declaration order.
RECORDS = {
    CloningProcess: dict(
        object_form=_BASIC.object_form, blank=_BASIC.blank, machine_form=_BASIC.machine_form,
        ready=_BASIC.ready, phi=_BASIC.phi, readout=_BASIC.readout,
    ),
    VerificationReport: dict(
        symplectic_defect_norm=Fraction(1, 2), cloning_residual=Fraction(0),
        inferred_readout=RatMatrix([[1, 0], [0, -1]]), reason="phi is not symplectic",
        first_defect_entry=(0, 1, Fraction(1, 2)),
    ),
    SizeWitness: dict(
        vector=vec([1, 0]), pullback_row=zero_vec(2), partner=vec([0, 1]), pairing=Fraction(1)
    ),
    AffineMap: dict(matrix=RatMatrix.identity(2), offset=vec([1, "1/2"])),
    Refutation: dict(overlap=0.5 + 0.5j, preserved_overlap=0.5 + 0.5j, residual_per_state=(0.3, 0.2)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields = RECORDS[cls]
    assert tuple(fields) == cls.__match_args__
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


# The diagram records, built on a Hilbert diagram, whose states are numpy
# arrays: the two compare by identity, since elementwise == on arrays has no
# truth value and a diagram's readout is a fresh function.
_HILBERT_INST, _HILBERT = hilbert_cloning_diagram(basis_cloner(2), [1.0, 0.0])
IDENTITY_RECORDS = {
    CloningDiagram: vars(_HILBERT),
    DiagramReport: vars(check_cloning_diagram(_HILBERT_INST, _HILBERT, [[1.0, 0.0], [0.6, 0.8]])),
}


@pytest.mark.parametrize("cls", IDENTITY_RECORDS, ids=lambda cls: cls.__name__)
def test_identity_record_semantics(cls):
    fields = IDENTITY_RECORDS[cls]
    assert tuple(fields) == cls.__match_args__
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value
    assert by_keyword == by_keyword and by_keyword != by_position
    assert hash(by_keyword) == hash(by_keyword)
    assert len({by_keyword, by_position}) == 2

    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(by_keyword, name, value)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(by_keyword, name)
    with pytest.raises(AttributeError):
        by_keyword.extra = 1

    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_keyword) == f"{cls.__name__}({shown})"


def test_hilbert_diagrams_and_reports_compare_without_raising():
    (inst, d1), (_, d2) = (hilbert_cloning_diagram(basis_cloner(2), [1.0, 0.0]) for _ in range(2))
    r1, r2 = (check_cloning_diagram(inst, d) for d in (d1, d2))
    for a, b in ((d1, d2), (r1, r2)):
        assert a == a and a != b
        assert len({a, b}) == 2 and hash(a) == hash(a)


# Verdicts and summaries are read from the stored measurements, never passed in.
DERIVED = {
    VerificationReport: ("passed", "verdict"),
    DiagramReport: ("passed", "first_failure", "note"),
    Refutation: ("implied_machine_overlap", "cauchy_schwarz_excess", "cloning_residual"),
}


@pytest.mark.parametrize("cls", DERIVED, ids=lambda cls: cls.__name__)
def test_derived_values_are_not_constructor_arguments(cls):
    fields = {**RECORDS, **IDENTITY_RECORDS}[cls]
    for name in DERIVED[cls]:
        with pytest.raises(TypeError, match=name):
            cls(**fields, **{name: getattr(cls(**fields), name)})
        with pytest.raises(AttributeError):
            setattr(cls(**fields), name, None)


def test_derived_values_follow_the_measurements():
    fields = RECORDS[VerificationReport]
    failing = VerificationReport(**fields)
    assert not failing.passed and failing.verdict == "fail"
    clean = VerificationReport(**{**fields, "symplectic_defect_norm": Fraction(0), "reason": ""})
    assert clean.passed and clean.verdict == "pass"
    assert clean.to_json()["verdict"] == "pass"

    results = ((zero_vec(2), True), (vec([1, 0]), False), (vec([0, 1]), False))
    report = DiagramReport(results, False)
    assert not report.passed and report.first_failure is results[1][0]
    assert report.to_json() == {
        "checked": 3, "failures": 2, "passed": False, "exhaustive": False,
        "note": "sample is evidence only; the condition quantifies over all unit vectors",
    }
    report = DiagramReport(results[:1], True)
    assert report.passed and report.first_failure is None
    assert report.note == "sample decides the condition (affine arrows, basis plus zero)"

    r = Refutation(**RECORDS[Refutation])
    assert r.implied_machine_overlap == 1.0 / abs(0.5 + 0.5j)
    assert r.cauchy_schwarz_excess == r.implied_machine_overlap - 1.0
    assert r.cloning_residual == 0.3


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
    # one composite with c per check, forming the prepared arrow c o (id x beta
    # x rho), and one with it per family; the readout composes with the shared
    # instance
    prepared = symplectic_instance().compose(diagram.arrow_c, calls[0][1])
    assert [g for g, _ in calls] == [diagram.arrow_c, prepared]
    broken = CloningDiagram(**{**vars(diagram), "beta": vec([1, 0])})
    assert not check_cloning_diagram(inst, broken).passed
