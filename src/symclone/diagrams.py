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

from collections.abc import Callable, Sequence
from functools import partial

from ._record import Record
from .exact import (
    _ONE, _ZERO, RatMatrix, RatVector, ShapeError, SkewForm, _combine, _transpose, _vec_add, vec, zero_vec,
)


# ---------------------------------------------------------------------------
# arrows


class AffineMap(Record):
    """Affine map v -> matrix . v + offset between symplectic vector spaces.

    A map from the zero-dimensional space (the monoidal unit) is a 2m x 0
    matrix plus an offset: exactly a point of the target, which is how states
    enter the symplectic instance.  A family of N states is a 2m x N matrix
    with the states as columns and a zero offset: member i is column i plus
    the offset.  The offset is stored as an exact vector, coerced by ``vec``.
    """

    def __init__(self, matrix: RatMatrix, offset: Sequence):
        offset = vec(offset)
        if len(offset) != matrix.rows:
            raise ShapeError("offset length must match the matrix row count")
        self.__dict__.update(matrix=matrix, offset=offset)

    @property
    def source_dim(self) -> int:
        return self.matrix.cols

    @property
    def target_dim(self) -> int:
        return self.matrix.rows


# ---------------------------------------------------------------------------
# instances


class DiagramInstance:
    """One symmetric monoidal category, as the checker uses it.

    An instance is an object of a subclass that sets the class attributes
    ``name``, ``unit`` (the unit object) and ``exhaustive`` and defines the
    methods below.  The two instances here hold no state: each is one shared
    object of a private subclass, returned by ``symplectic_instance()`` and
    ``quantum.hilbert_instance()``.

    - ``compose(g, h)`` is g after h, ``tensor(g, h)`` the monoidal product,
      ``equal(g, h)`` arrow equality and ``identity(obj)`` the identity arrow
      of an object.
    - States of an object are arrows from the unit object; ``state_arrow(obj,
      x)`` embeds a raw state (a vector) as such an arrow.
    - ``sample_states(obj, count, rng)`` produces the vectors the checker
      quantifies over, adding ``count`` random states drawn with ``rng`` (a
      seed or a numpy Generator) if the instance draws any.  ``exhaustive``
      records whether that sample decides the universally quantified diagram
      condition (true for the symplectic instance, where linearity reduces
      the condition to basis states plus zero, so it draws none).
    - The checker takes N states at once as a family: an arrow from an
      N-dimensional index object whose i-th member is state i, built by
      ``family(obj, states)``.  ``compose`` and ``tensor`` with single-state
      arrows act on every member at once; ``pair(g, h)`` is the member-wise
      tensor of two families, whose member i is g's member i tensored with
      h's, and ``members_equal(g, h)`` is the list of arrow equalities of the
      members, as Python bools.

    A diagram's readout maps a family of states of its object to the family
    of their machine states.
    """

    __slots__ = ()


def _state(obj: SkewForm, x) -> RatVector:
    # a raw state coerced by vec, once
    x = vec(x)
    if len(x) != obj.dim:
        raise ShapeError("state length does not match the object dimension")
    return x


class _Symplectic(DiagramInstance):
    __slots__ = ()
    name = "symplectic"
    unit = SkewForm(RatMatrix.zeros(0, 0))
    exhaustive = True

    def compose(self, g: AffineMap, h: AffineMap) -> AffineMap:
        if h.target_dim != g.source_dim:
            raise ShapeError("arrows do not compose")
        return AffineMap(g.matrix @ h.matrix, _vec_add(g.matrix.apply(h.offset), g.offset))

    def tensor(self, g: AffineMap, h: AffineMap) -> AffineMap:
        return AffineMap(RatMatrix.block_diag(g.matrix, h.matrix), g.offset + h.offset)

    def equal(self, g: AffineMap, h: AffineMap) -> bool:
        return g.matrix == h.matrix and g.offset == h.offset

    def identity(self, obj: SkewForm) -> AffineMap:
        return AffineMap(RatMatrix.identity(obj.dim), zero_vec(obj.dim))

    def state_arrow(self, obj: SkewForm, x) -> AffineMap:
        return AffineMap(RatMatrix.zeros(obj.dim, 0), _state(obj, x))

    def family(self, obj: SkewForm, states) -> AffineMap:
        # the states as matrix columns, with a zero offset; an identity test
        # passes over the interned zeros without a Fraction call
        cols = [_state(obj, x) for x in states]
        rows = tuple(tuple((j, x) for j, x in enumerate(col) if x is not _ZERO and x) for col in cols)
        return AffineMap(RatMatrix._raw(_transpose(rows, obj.dim), len(cols)), zero_vec(obj.dim))

    def pair(self, g: AffineMap, h: AffineMap) -> AffineMap:
        # g's rows over h's: both families index the same members
        return AffineMap(RatMatrix._raw(g.matrix._nz + h.matrix._nz, g.source_dim), g.offset + h.offset)

    def members_equal(self, g: AffineMap, h: AffineMap) -> list[bool]:
        # member i agrees iff column i of g is column i of h plus h's offset
        # minus g's
        if g.target_dim != h.target_dim:
            return [False] * g.source_dim
        shift = tuple((j, b - a) for j, (a, b) in enumerate(zip(g.offset, h.offset)) if a != b)
        return [gcol == _combine(hcol, shift) for gcol, hcol in zip(g.matrix.T._nz, h.matrix.T._nz)]

    def sample_states(self, obj: SkewForm, count: int = 0, rng=None) -> list[RatVector]:
        # zero plus the basis: exhaustive for affine arrows, so count and rng go unused
        zero = zero_vec(obj.dim)
        return [zero] + [zero[:j] + (_ONE,) + zero[j + 1 :] for j in range(obj.dim)]


_SYMPLECTIC = _Symplectic()


def symplectic_instance() -> DiagramInstance:
    """Symplectic vector spaces; arrows are affine maps, equality is exact."""
    return _SYMPLECTIC


# ---------------------------------------------------------------------------
# diagrams


class CloningDiagram(Record):
    """Candidate cloning data: c : A x A x B -> A x A x B together with the
    blank state beta of A, the machine object B with ready state rho, and the
    claimed readout f, which maps a family of states of A to the family of
    their states of B.  Taking B to be the unit object (with empty states)
    recovers the machine-free diagram.  Diagrams compare by identity: their
    states may be numpy arrays, and each readout is a fresh function."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        object_a: object,
        beta: object,
        machine_b: object,
        rho: object,
        arrow_c: object,
        readout: Callable[[object], object],
    ):
        self.__dict__.update(
            object_a=object_a, beta=beta, machine_b=machine_b, rho=rho,
            arrow_c=arrow_c, readout=readout,
        )


class DiagramReport(Record):
    """Whether the diagram commutes on each checked state, in order, and
    whether the sample decides the condition; ``passed``, ``first_failure``
    and ``note`` are read off them.  Compares by identity, as its states may
    be numpy arrays."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, results: tuple[tuple[object, bool], ...], exhaustive: bool):
        self.__dict__.update(results=results, exhaustive=exhaustive)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.results)

    @property
    def first_failure(self) -> object:  # None when every state passes
        return next((x for x, ok in self.results if not ok), None)

    @property
    def note(self) -> str:
        if self.exhaustive:
            return "sample decides the condition (affine arrows, basis plus zero)"
        return "sample is evidence only; the condition quantifies over all unit vectors"

    def to_json(self) -> dict:
        return {
            "checked": len(self.results),
            "failures": sum(1 for _, ok in self.results if not ok),
            "passed": self.passed,
            "exhaustive": self.exhaustive,
            "note": self.note,
        }


# states per family in check_cloning_diagram.  A Hilbert family costs rows x
# states complex entries: unblocked, diagram-check on 10,000 states of a
# 256 x 256 unitary peaked at 185 MB, against 45 MB in blocks of 256
_BLOCK = 256


def check_cloning_diagram(
    instance: DiagramInstance,
    diagram: CloningDiagram,
    states: Sequence | None = None,
) -> DiagramReport:
    """Test commutativity of the cloning diagram on each sampled state.

    For each psi, compares c o (psi x beta x rho) with psi x psi x f(psi)
    using the instance's arrow equality, on the states as one family per
    block of _BLOCK.  The left side is the prepared arrow c o (id x beta x
    rho), formed once per check, composed with each family: one composite
    with c per check, and one composite and one readout per block, not one
    per state.  The report says whether the sample decides the universally
    quantified condition or is merely evidence.  The report lists states as
    supplied; the instance's ``family`` coerces each once.
    """
    a = diagram.object_a
    states = list(instance.sample_states(a) if states is None else states)
    beta_arrow = instance.state_arrow(a, diagram.beta)
    rho_arrow = instance.state_arrow(diagram.machine_b, diagram.rho)
    prepared = instance.compose(
        diagram.arrow_c, instance.tensor(instance.tensor(instance.identity(a), beta_arrow), rho_arrow)
    )

    verdicts = []
    for lo in range(0, len(states), _BLOCK):
        psi = instance.family(a, states[lo : lo + _BLOCK])
        lhs = instance.compose(prepared, psi)
        f = diagram.readout(psi)
        verdicts += instance.members_equal(lhs, instance.pair(instance.pair(psi, psi), f))
    return DiagramReport(tuple(zip(states, verdicts)), instance.exhaustive)


def diagram_from_process(process) -> tuple[DiagramInstance, CloningDiagram]:
    """Wrap a classical CloningProcess as a symplectic cloning diagram.

    The readout is the arrow x -> F x + f(0), with f(0) read off from the
    machine block of the image of the blank/ready preparation, composed with
    each family: one sparse product per block.
    """
    inst = symplectic_instance()
    dm = process.object_dim
    base = process.phi.apply(zero_vec(dm) + process.blank + process.ready)
    diagram = CloningDiagram(
        object_a=process.object_form,
        beta=process.blank,
        machine_b=process.machine_form,
        rho=process.ready,
        arrow_c=AffineMap(process.phi, zero_vec(process.phi.rows)),
        readout=partial(inst.compose, AffineMap(process.readout, base[2 * dm :])),
    )
    return inst, diagram
