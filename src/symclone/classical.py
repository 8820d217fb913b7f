"""Classical cloning processes on symplectic vector spaces.

Constructors build exact cloning processes: the explicit 2-dimensional one,
products assembled side by side in object/copy/machine order, the mirror
process for any rational form (the machine is the object with its form
reversed, and phi is one fixed 3 x 3 rational matrix tensored with the
identity), and the general construction, which is the mirror process with a
Darboux basis on the machine block only, so the machine carries the standard
form.  The verifier checks candidates with zero tolerance.  The
readout-equation solver and the kernel witness give the two sides of the
machine-size bound, and ``defect_floor`` gives an exact copying map whose
symplectic defect attains the floor of the undersized regime.  Everything
here is exact and runs on the standard library; the floating-point probe
that searches that regime numerically is ``symclone.probe``, which needs
numpy, and its one public name is served here on first access.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .exact import (
    _ONE,
    _ZERO,
    RatMatrix,
    RatVector,
    ShapeError,
    SkewForm,
    _combine,
    _darboux,
    _entries,
    _form_from_json,
    _from_coprime,
    _json_object,
    _matrix_from_json,
    _negated,
    _Parsed,
    _paused,
    direct_sum,
    form_kernel,
    standard_form,
    symplectic_defect,
    vec,
    zero_vec,
)


class CloningVerificationError(ValueError):
    """A candidate process fed to a constructor failed verification."""


class InfeasibleError(ValueError):
    """The readout equation has no solution for these dimensions."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"infeasible ({reason})" + (f": {detail}" if detail else ""))


class NotApplicableError(ValueError):
    """The requested diagnostic only makes sense in the other dimension regime."""


def _vec_from_json(data: dict, key: str, parsed: _Parsed) -> RatVector:
    # a JSON string or object is iterable too, and would parse as a vector
    if not isinstance(data[key], list):
        raise TypeError(f"{key} must be a JSON list")
    return _entries(data[key], parsed)


class CloningProcess(Record):
    """A copying process: object space, blank state, machine space, ready state,
    the full linear map on object x copy x machine, and the machine readout.
    Blank and ready are stored as exact vectors, coerced by ``vec``."""

    def __init__(
        self,
        object_form: SkewForm,
        blank: Sequence,
        machine_form: SkewForm,
        ready: Sequence,
        phi: RatMatrix,
        readout: RatMatrix,
    ):
        blank, ready = vec(blank), vec(ready)
        dm, dn = object_form.dim, machine_form.dim
        if len(blank) != dm or len(ready) != dn:
            raise ShapeError("blank/ready lengths do not match the form dimensions")
        total = 2 * dm + dn
        if phi.shape != (total, total):
            raise ShapeError(f"phi must be {total}x{total}, got {phi.shape}")
        if readout.shape != (dn, dm):
            raise ShapeError(f"readout must be {dn}x{dm}, got {readout.shape}")
        self.__dict__.update(
            object_form=object_form, blank=blank, machine_form=machine_form,
            ready=ready, phi=phi, readout=readout,
        )

    @property
    def object_dim(self) -> int:
        return self.object_form.dim

    @property
    def machine_dim(self) -> int:
        return self.machine_form.dim

    def total_form(self) -> SkewForm:
        """The form on object x copy x machine."""
        return direct_sum(direct_sum(self.object_form, self.object_form), self.machine_form)

    def to_json(self) -> dict:
        return {
            "object_form": self.object_form.to_json(),
            "blank": [str(x) for x in self.blank],
            "machine_form": self.machine_form.to_json(),
            "ready": [str(x) for x in self.ready],
            "phi": self.phi.to_json(),
            "readout": self.readout.to_json(),
        }

    @classmethod
    @_paused
    def from_json(cls, data: dict) -> "CloningProcess":
        # one memo for the whole document: the forms, phi and the readout
        # share most of their strings, and each is parsed once
        parsed = _Parsed()
        data = _json_object(data, "a process document")
        return cls(
            object_form=_form_from_json(data["object_form"], parsed, "object_form"),
            blank=_vec_from_json(data, "blank", parsed),
            machine_form=_form_from_json(data["machine_form"], parsed, "machine_form"),
            ready=_vec_from_json(data, "ready", parsed),
            phi=_matrix_from_json(data["phi"], parsed, "phi"),
            readout=_matrix_from_json(data["readout"], parsed, "readout"),
        )


class VerificationReport(Record):
    """What ``verify_cloning`` measured: both exact residuals, the readout
    inferred from phi, the first failure's reason ("" on a pass) and the
    first defect entry.  ``passed`` and ``verdict`` are read off the residuals."""

    def __init__(
        self,
        symplectic_defect_norm: Fraction,
        cloning_residual: Fraction,
        inferred_readout: RatMatrix,
        reason: str,
        # (row, col, value) of the first nonzero symplectic-defect entry in
        # row-major order; None when phi is symplectic
        first_defect_entry: tuple[int, int, Fraction] | None = None,
    ):
        self.__dict__.update(
            symplectic_defect_norm=symplectic_defect_norm, cloning_residual=cloning_residual,
            inferred_readout=inferred_readout, reason=reason, first_defect_entry=first_defect_entry,
        )

    @property
    def passed(self) -> bool:
        return not (self.symplectic_defect_norm or self.cloning_residual)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        out = {
            "symplectic_defect_norm": str(self.symplectic_defect_norm),
            "cloning_residual": str(self.cloning_residual),
            "inferred_readout": self.inferred_readout.to_json(),
            "verdict": self.verdict,
            "reason": self.reason,
        }
        if self.first_defect_entry is not None:
            row, col, value = self.first_defect_entry
            out["first_defect_entry"] = {"row": row, "col": col, "value": str(value)}
        return out


# The explicit 6x6 copying map on R^2 x R^2 x R^2 and its machine readout.
_BASIC_PHI = RatMatrix(
    [
        [1, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, -1],
        [1, 0, -1, 0, 1, 0],
        [0, 1, 0, -1, 0, -1],
        [1, 0, 0, 0, 1, 0],
        [0, -1, 0, 1, 0, 2],
    ]
)
_BASIC_READOUT = RatMatrix([[1, 0], [0, -1]])


def basic_cloner() -> CloningProcess:
    """The explicit cloning process on the standard 2-dimensional phase space.

    Object and machine are both (R^2, J), blank and ready are zero, and the
    copying map is an integer 6x6 symplectomorphism with readout
    diag(1, -1).
    """
    j = standard_form(1)
    return CloningProcess(
        object_form=j,
        blank=zero_vec(2),
        machine_form=j,
        ready=zero_vec(2),
        phi=_BASIC_PHI,
        readout=_BASIC_READOUT,
    )


def _assemble(factors: Sequence[CloningProcess]) -> CloningProcess:
    """Run processes side by side, with coordinates in object/copy/machine order.

    The global coordinates are all objects, then all copies, then all
    machines, each block in factor order; each factor's nonzero phi entries
    go to the global indices of their row and column.  Forms and readouts
    are block diagonal.
    """
    dm = sum(c.object_dim for c in factors)
    total = 2 * dm + sum(c.machine_dim for c in factors)
    phi: list = [()] * total
    om = ok = 0
    for c in factors:
        m, k = c.object_dim, c.machine_dim
        # ascending, so reindexed rows keep their columns in order
        glob = [
            *range(om, om + m),
            *range(dm + om, dm + om + m),
            *range(2 * dm + ok, 2 * dm + ok + k),
        ]
        for gi, row in zip(glob, c.phi._nz):
            phi[gi] = tuple((glob[j], x) for j, x in row)
        om += m
        ok += k
    objects = RatMatrix.block_diag(*(c.object_form.matrix for c in factors))
    machines = RatMatrix.block_diag(*(c.machine_form.matrix for c in factors))
    return CloningProcess(
        object_form=SkewForm._trusted(objects),
        blank=tuple(x for c in factors for x in c.blank),
        machine_form=SkewForm._trusted(machines),
        ready=tuple(x for c in factors for x in c.ready),
        phi=RatMatrix._raw(tuple(phi), total),
        readout=RatMatrix.block_diag(*(c.readout for c in factors)),
    )


def product_cloner(c1: CloningProcess, c2: CloningProcess) -> CloningProcess:
    """Cloning process for the product phase space, machine = product of machines.

    Verifies both inputs, then runs them side by side through the shared
    assembly: the result's phi is the block-diagonal map with rows and
    columns reindexed to (object 1, object 2, copy 1, copy 2, machine 1,
    machine 2).
    """
    for i, c in enumerate((c1, c2)):
        rep = verify_cloning(c)
        if not rep.passed:
            raise CloningVerificationError(f"input process {i + 1} is invalid: {rep.reason}")
    return _assemble((c1, c2))


def standard_cloner(n: int) -> CloningProcess:
    """n-fold product of the basic cloner on the standard form of dimension 2n.

    The shared assembly applied to n basic cloners at once, so it equals
    folding ``product_cloner`` over them (the layout keeps each symplectic
    pair contiguous) while skipping the n verifications.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _assemble([basic_cloner()] * n)


# The entries of C = [[1, 1, 1], [1, -1/2, 1/2], [1, 1/2, 3/2]].  C satisfies
# C^T diag(1, 1, -1) C = diag(1, 1, -1) and has first column (1, 1, 1), so
# C (x) I clones any (M, omega) with machine (M, -omega).
_HALF = Fraction(1, 2)
_MINUS_HALF = Fraction(-1, 2)
_THREE_HALVES = Fraction(3, 2)


def _halved(row, offset: int):
    """A stored row of G or G^-1, halved and moved right by ``offset``
    columns.  p/q in lowest terms halves to (p/2)/q or p/(2q), in lowest
    terms again, so neither a product nor a gcd is needed."""
    out = []
    for j, x in row:
        p, q = x._numerator, x._denominator
        half = _from_coprime(p // 2, q) if p % 2 == 0 else _from_coprime(p, 2 * q)
        out.append((j + offset, half))
    return tuple(out)


def _mirror_assembly(
    form: SkewForm, machine_form: SkewForm, g: RatMatrix, g_inv: RatMatrix
) -> CloningProcess:
    """The process diag(I, I, G^-1) . (C (x) I) . diag(I, I, G), row by row.

    G maps the machine coordinates into the object space and must satisfy
    G^T (-omega) G = machine form; phi is then
    [[I, I, G], [I, -I/2, G/2], [G^-1, G^-1/2, 3I/2]], with zero blank and
    ready states and readout G^-1.
    """
    d = form.dim
    rows = [
        ((i, _ONE), (d + i, _ONE)) + tuple((j + 2 * d, x) for j, x in r) for i, r in enumerate(g._nz)
    ]
    rows += [((i, _ONE), (d + i, _MINUS_HALF)) + _halved(r, 2 * d) for i, r in enumerate(g._nz)]
    rows += [r + _halved(r, d) + ((2 * d + i, _THREE_HALVES),) for i, r in enumerate(g_inv._nz)]
    return CloningProcess(
        object_form=form,
        blank=zero_vec(d),
        machine_form=machine_form,
        ready=zero_vec(d),
        phi=RatMatrix._raw(tuple(rows), 3 * d),
        readout=g_inv,
    )


def mirror_cloner(form: SkewForm) -> CloningProcess:
    """Cloning process whose machine is the object space with its form reversed.

    phi = C (x) I for the fixed 3 x 3 matrix C above, whatever the form:
    no Darboux basis is involved, the entries are 0, +-1/2, 1 and 3/2, blank
    and ready are zero, and the readout is the identity, which pulls the
    machine form -omega back to -omega.
    """
    eye = RatMatrix.identity(form.dim)
    return _mirror_assembly(form, SkewForm._trusted(-form.matrix), eye, eye)


@_paused
def general_cloner(form: SkewForm) -> CloningProcess:
    """Cloning process for an arbitrary even-dimensional rational symplectic space.

    The machine has the same dimension as the object and carries the
    standard form.  On the standard form this is ``standard_cloner``.
    Otherwise it is the mirror process with the Darboux basis on the machine
    block only: G is ``darboux_basis(form)`` with each column pair swapped,
    so that G^T (-omega) G = J, and the readout is G^-1.  Object and copy
    keep the given coordinates, so phi's entries are those of G and G^-1
    (halved or not), with no products of them; the bit height stays near
    that of the Darboux basis instead of growing with the lcm of all its
    denominators.  G^-1 = J G^T omega is P^T omega with its odd rows
    negated, and the Darboux walk gives P^T omega too, so building the
    process takes no matrix product and no elimination.
    """
    n = form.dim // 2
    machine = standard_form(n)
    if form.dim == 0 or form == machine:
        return standard_cloner(n)
    p, pt_omega = _darboux(form)
    # swapping each pair turns P^T omega P = J into G^T (-omega) G = J, so
    # G^-1 = J^-1 G^T (-omega) = J G^T omega; G^T omega is P^T omega with
    # each row pair swapped, and J swaps them back, negating the odd rows
    g = RatMatrix._raw(tuple(tuple(sorted((j ^ 1, x) for j, x in row)) for row in p._nz), form.dim)
    g_inv = tuple(_negated(row) if i % 2 else row for i, row in enumerate(pt_omega._nz))
    return _mirror_assembly(form, machine, g, RatMatrix._raw(g_inv, form.dim))


@_paused
def verify_cloning(c: CloningProcess) -> VerificationReport:
    """Exact verification of a candidate process.

    Checks symplecticity of the full map against the product form, the copying
    identity on the zero state and every object basis state (linearity makes
    this exhaustive), consistency of the stored readout with the machine
    output, and the readout equation F^T sigma F = -omega.  Both reported
    residuals are exact rationals; verdict is pass iff both are zero.  A
    nonzero symplectic defect is located by its first entry.

    When the offset does not leak and every copying column is exactly
    (e_i, e_i, F e_i), the object-object block of the symplectic defect is
    omega + omega + F^T sigma F - omega, which is the readout equation's
    defect, so it is read from there; otherwise the readout defect is
    computed on its own.  The report is the same either way.
    """
    dm = c.object_dim
    total = c.total_form()
    defect = symplectic_defect(c.phi, total, total)
    defect_norm = defect.max_abs()
    first_defect = next(((i, *row[0]) for i, row in enumerate(defect._nz) if row), None)

    residual = _ZERO
    reason = ""

    def track(value: Fraction, why: str):
        nonlocal residual, reason
        if value > residual:
            residual = value
        if value and not reason:
            reason = why

    # image of the blank/ready offset: must be (0, 0, f(0))
    base = c.phi.apply(zero_vec(dm) + c.blank + c.ready)
    leak = tuple((j, x) for j, x in enumerate(base[: 2 * dm]) if x)
    for _, x in leak:
        track(abs(x), "offset image leaks into the object/copy blocks")

    # phi(e_i, b, r) = phi column i + image of the offset, by linearity, and
    # must be e_i in both copies, then the stored readout column shifted into
    # the machine block; the offset's machine part cancels in the inferred
    # readout, phi[2m:, :m], so only its leak is added
    stored_cols = c.readout.T._nz
    copies = not leak  # whether phi's first m columns are exactly (I, I, F)
    for i, col in enumerate(c.phi.T._nz[:dm]):
        got = _combine(col, leak)
        want = ((i, _ONE), (dm + i, _ONE)) + tuple((2 * dm + j, x) for j, x in stored_cols[i])
        if got == want:
            continue
        copies = False
        # ascending columns, so the first reason is that of the first block
        for j, x in _combine(got, _negated(want)):
            if j < dm:
                why = f"first copy wrong on basis state {i}"
            elif j < 2 * dm:
                why = f"second copy wrong on basis state {i}"
            else:
                why = f"stored readout disagrees with the machine output on basis state {i}"
            track(abs(x), why)
    inferred = RatMatrix._raw(
        tuple(tuple((j, x) for j, x in row if j < dm) for row in c.phi._nz[2 * dm :]), dm
    )

    # -omega = F^T sigma F, i.e. F is symplectic from (M, -omega) to (N, sigma);
    # implied by the two checks above when they are exactly zero, and
    # reported for candidates that fail them
    if copies:
        pullback_norm = max(
            (abs(x) for row in defect._nz[:dm] for j, x in row if j < dm), default=_ZERO
        )
    else:
        pullback_norm = symplectic_defect(
            c.readout, SkewForm._trusted(-c.object_form.matrix), c.machine_form
        ).max_abs()
    track(pullback_norm, "readout does not pull the machine form back to -omega")

    if defect_norm and not reason:
        reason = "map is not symplectic for the product form"
    return VerificationReport(defect_norm, residual, inferred, reason, first_defect)


def readout_solver(m: int, k: int) -> RatMatrix:
    """Solve F^T . J_2k . F = -J_2m for a 2k x 2m rational F.

    Feasible exactly when k >= m: embed blockwise with a per-pair sign flip
    diag(1, -1) and pad with zero rows.  For k < m any solution would have to
    be injective (the right side is nondegenerate), which is impossible into a
    smaller space; raises InfeasibleError with reason "rank".
    """
    if m < 0 or k < 0:
        raise ValueError("dimensions must be nonnegative")
    if k < m:
        raise InfeasibleError(
            "rank",
            f"F maps a 2m={2 * m} dimensional space into 2k={2 * k} dimensions; "
            "a nondegenerate pullback needs an injective F",
        )
    flip = [((i, _ONE if i % 2 == 0 else -_ONE),) for i in range(2 * m)]
    return RatMatrix._raw(tuple(flip) + ((),) * (2 * (k - m)), 2 * m)


class SizeWitness(Record):
    """Kernel vector of the readout plus the nondegeneracy contradiction.

    ``pullback_row`` is (F^T sigma F) w, identically zero; ``pairing`` is
    omega(w, partner), nonzero, so -omega cannot equal the pullback.
    """

    def __init__(
        self, vector: RatVector, pullback_row: RatVector, partner: RatVector, pairing: Fraction
    ):
        self.__dict__.update(
            vector=vector, pullback_row=pullback_row, partner=partner, pairing=pairing
        )

    def to_json(self) -> dict:
        return {
            "vector": [str(x) for x in self.vector],
            "pullback_row": [str(x) for x in self.pullback_row],
            "partner": [str(x) for x in self.partner],
            "pairing": str(self.pairing),
        }


def size_witness(candidate: CloningProcess) -> SizeWitness:
    """Demonstrate that an undersized machine cannot support a cloning process.

    Requires machine dimension < object dimension.  Returns a nonzero kernel
    vector w of the readout: the machine form pulled back through the readout
    vanishes on w, but the object form pairs w nontrivially with some partner,
    so the readout equation -omega = F^T sigma F is unsatisfiable.
    """
    dm, dn = candidate.object_dim, candidate.machine_dim
    if dn >= dm:
        raise NotApplicableError(
            f"machine dim {dn} >= object dim {dm}; the size bound does not bite"
        )
    F = candidate.readout
    # rank(F) <= 2k < 2m guarantees a kernel vector
    w = form_kernel(F)[0]
    pullback_row = F.T.apply(candidate.machine_form.matrix.apply(F.apply(w)))
    omega_w = candidate.object_form.matrix.apply(w)
    j = next(i for i, x in enumerate(omega_w) if x)
    partner = tuple(Fraction(i == j) for i in range(dm))
    pairing = omega_w[j]  # omega(partner, w), partner being basis vector j
    return SizeWitness(vector=w, pullback_row=pullback_row, partner=partner, pairing=pairing)


def _check_undersized(m: int, k: int) -> None:
    """Raise unless 0 <= k < m: the pair counts of an undersized machine."""
    if m < 0 or k < 0:
        raise ValueError("dimensions must be nonnegative")
    if k >= m:
        raise NotApplicableError(
            f"k={k} >= m={m}: a true cloning process exists; use readout_solver instead"
        )


# [[I, A], [I, -A]] with A = diag(1, 1/2) on R^2 x R^2: it copies exactly with
# no machine, and its symplectic defect is diag(J, 0), of squared norm 2
_NEAR_PHI = RatMatrix(
    [[1, 0, 1, 0], [0, 1, 0, _HALF], [1, 0, -1, 0], [0, 1, 0, _MINUS_HALF]]
)


def defect_floor(m: int, k: int) -> tuple[CloningProcess, Fraction]:
    """A copying process that attains the machine-size floor, and its exact
    squared symplectic defect 2(m - k).

    For k < m: k basic cloners and m - k machine-free near-cloners
    [[I, A], [I, -A]] with A = diag(1, 1/2), side by side, so the object
    has dimension 2m and the machine 2k.  phi copies exactly, and its
    defect is the object form J on each near-cloner's object block and zero
    elsewhere.  The squared Frobenius norm is read from ``symplectic_defect``;
    it equals the square of the bound ``probe.clone_residual_probe`` cannot
    beat, so the bound is attained.
    """
    _check_undersized(m, k)
    near = CloningProcess(
        object_form=standard_form(1),
        blank=zero_vec(2),
        machine_form=standard_form(0),
        ready=(),
        phi=_NEAR_PHI,
        readout=RatMatrix.zeros(0, 2),
    )
    process = _assemble([basic_cloner()] * k + [near] * (m - k))
    total = process.total_form()
    defect = symplectic_defect(process.phi, total, total)
    return process, sum((x * x for row in defect._nz for _, x in row), _ZERO)


def __getattr__(name: str):
    # PEP 562: the probe's name is public API of this module too, and its
    # module (and numpy) loads on the first use of that name
    if name == "clone_residual_probe":
        from .probe import clone_residual_probe

        return clone_residual_probe
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
