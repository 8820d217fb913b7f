"""Cloning diagrams in symmetric monoidal categories, checked on states.

The checker is generic over a ``DiagramInstance``.  This module provides the
symplectic instance: symplectic vector spaces with affine symplectic maps as
arrows (tensor = direct sum, unit = the zero-dimensional space, whose arrows
into M are exactly the points of M).  The Hilbert-space instance
(``hilbert_instance``, tensor = Kronecker product, unit = C) lives in
``symclone.quantum`` with the rest of the float side, so this module never
loads numpy.  Both are treated strictly: associators and unitors are
identities after fixing the index order.

A cloning diagram asserts that the candidate arrow c sends psi x beta x rho
to psi x psi x f(psi) for every state psi; the checker tests this equation on
a supplied sample of states, and nothing else.  In particular the symplectic
instance does not check that c preserves the forms: the basic process with
its object form rescaled to [[0, 1/2], [-1/2, 0]] passes the diagram check
and fails ``verify_cloning``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

from .exact import _ONE, RatMatrix, RatVector, ShapeError, SkewForm, _vec_add, vec, zero_vec


def _exact_state(x) -> RatVector:
    """x as an exact vector.  A tuple of Fractions (a sampled state, a readout
    image, a state already coerced) is returned as it is; anything else goes
    through ``vec``, which rejects booleans and floats."""
    if type(x) is tuple and all(type(e) is Fraction for e in x):
        return x
    return vec(x)


# ---------------------------------------------------------------------------
# arrows


@dataclass(frozen=True)
class AffineMap:
    """Affine map v -> matrix . v + offset between symplectic vector spaces.

    A map from the zero-dimensional space (the monoidal unit) is a 2m x 0
    matrix plus an offset: exactly a point of the target, which is how states
    enter the symplectic instance.
    """

    matrix: RatMatrix
    offset: RatVector

    def __post_init__(self):
        if len(self.offset) != self.matrix.rows:
            raise ShapeError("offset length must match the matrix row count")

    @property
    def source_dim(self) -> int:
        return self.matrix.cols

    @property
    def target_dim(self) -> int:
        return self.matrix.rows


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class DiagramInstance:
    """One symmetric monoidal category, packaged as callables.

    States of an object are arrows from the unit object; ``state_arrow``
    embeds a raw state (a vector) as such an arrow, and ``sample_states``
    produces the vectors the checker will quantify over.  ``exhaustive``
    records whether that sample decides the universally quantified diagram
    condition (true for the symplectic instance, where linearity reduces the
    condition to basis states plus zero).
    """

    name: str
    unit: Any
    compose: Callable[[Any, Any], Any]
    tensor: Callable[[Any, Any], Any]
    equal: Callable[[Any, Any], bool]
    state_arrow: Callable[[Any, Any], Any]
    sample_states: Callable[..., list]
    exhaustive: bool


def symplectic_instance() -> DiagramInstance:
    """Symplectic vector spaces; arrows are affine maps, equality is exact."""

    unit = SkewForm(RatMatrix.zeros(0, 0))

    def compose(g: AffineMap, h: AffineMap) -> AffineMap:
        if h.target_dim != g.source_dim:
            raise ShapeError("arrows do not compose")
        return AffineMap(g.matrix @ h.matrix, _vec_add(g.matrix._apply(h.offset), g.offset))

    def tensor(g: AffineMap, h: AffineMap) -> AffineMap:
        return AffineMap(RatMatrix.block_diag(g.matrix, h.matrix), g.offset + h.offset)

    def equal(g: AffineMap, h: AffineMap) -> bool:
        return g.matrix == h.matrix and g.offset == h.offset

    def state_arrow(obj: SkewForm, x) -> AffineMap:
        x = _exact_state(x)
        if len(x) != obj.dim:
            raise ShapeError("state length does not match the object dimension")
        return AffineMap(RatMatrix.zeros(obj.dim, 0), x)

    def sample_states(obj: SkewForm, count: int = 0, rng=None) -> list[RatVector]:
        # zero plus the basis: exhaustive for affine candidate arrows
        zero = zero_vec(obj.dim)
        return [zero] + [zero[:j] + (_ONE,) + zero[j + 1 :] for j in range(obj.dim)]

    return DiagramInstance(
        name="symplectic",
        unit=unit,
        compose=compose,
        tensor=tensor,
        equal=equal,
        state_arrow=state_arrow,
        sample_states=sample_states,
        exhaustive=True,
    )


# ---------------------------------------------------------------------------
# diagrams


@dataclass(frozen=True)
class CloningDiagram:
    """Candidate cloning data: c : A x A x B -> A x A x B together with the
    blank state beta of A, the machine object B with ready state rho, and the
    claimed readout f from states of A to states of B.  Taking B to be the
    unit object (with empty states) recovers the machine-free diagram."""

    object_a: Any
    beta: Any
    machine_b: Any
    rho: Any
    arrow_c: Any
    readout: Callable[[Any], Any]


@dataclass(frozen=True)
class DiagramReport:
    results: tuple[tuple[Any, bool], ...]
    passed: bool
    first_failure: Any
    exhaustive: bool
    note: str

    def to_json(self) -> dict:
        return {
            "checked": len(self.results),
            "failures": sum(1 for _, ok in self.results if not ok),
            "passed": self.passed,
            "exhaustive": self.exhaustive,
            "note": self.note,
        }


def check_cloning_diagram(
    instance: DiagramInstance,
    diagram: CloningDiagram,
    states: Sequence | None = None,
) -> DiagramReport:
    """Test commutativity of the cloning diagram on each sampled state.

    For each psi, compares c o (psi x beta x rho) with psi x psi x f(psi)
    using the instance's arrow equality.  The report says whether the sample
    decides the universally quantified condition or is merely evidence.
    The report lists states as supplied; the instance's ``state_arrow`` and
    the diagram's readout coerce them.
    """
    if states is None:
        states = instance.sample_states(diagram.object_a)
    beta_arrow = instance.state_arrow(diagram.object_a, diagram.beta)
    rho_arrow = instance.state_arrow(diagram.machine_b, diagram.rho)

    results = []
    first_failure = None
    for psi in states:
        psi_arrow = instance.state_arrow(diagram.object_a, psi)
        prepared = instance.tensor(instance.tensor(psi_arrow, beta_arrow), rho_arrow)
        lhs = instance.compose(diagram.arrow_c, prepared)
        f_arrow = instance.state_arrow(diagram.machine_b, diagram.readout(psi))
        rhs = instance.tensor(instance.tensor(psi_arrow, psi_arrow), f_arrow)
        ok = instance.equal(lhs, rhs)
        results.append((psi, ok))
        if not ok and first_failure is None:
            first_failure = psi
    passed = all(ok for _, ok in results)
    note = (
        "sample decides the condition (affine arrows, basis plus zero)"
        if instance.exhaustive
        else "sample is evidence only; the condition quantifies over all unit vectors"
    )
    return DiagramReport(
        results=tuple(results),
        passed=passed,
        first_failure=first_failure,
        exhaustive=instance.exhaustive,
        note=note,
    )


def diagram_from_process(process) -> tuple[DiagramInstance, CloningDiagram]:
    """Wrap a classical CloningProcess as a symplectic cloning diagram.

    The readout state map is x -> F x + f(0), with f(0) read off from the
    machine block of the image of the blank/ready preparation.
    """
    inst = symplectic_instance()
    dm = process.object_dim
    base = process.phi._apply(zero_vec(dm) + process.blank + process.ready)
    machine_offset = base[2 * dm :]

    def readout(x) -> RatVector:
        return _vec_add(process.readout._apply(_exact_state(x)), machine_offset)

    diagram = CloningDiagram(
        object_a=process.object_form,
        beta=process.blank,
        machine_b=process.machine_form,
        rho=process.ready,
        arrow_c=AffineMap(process.phi, zero_vec(process.phi.rows)),
        readout=readout,
    )
    return inst, diagram
