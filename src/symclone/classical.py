"""Classical cloning processes on symplectic vector spaces.

Constructors build exact cloning processes: the explicit 2-dimensional one,
products assembled side by side in object/copy/machine order, the mirror
process for any rational form (the machine is the object with its form
reversed, and phi is one fixed 3 x 3 rational matrix tensored with the
identity), and the general construction, which is the mirror process with a
Darboux basis on the machine block only, so the machine carries the standard
form.  The verifier checks candidates with zero tolerance.  The
readout-equation solver and the kernel witness give the two sides of the
machine-size bound, and a floating-point probe searches the infeasible
regime numerically; the probe is the one part of this module that uses
numpy, and it imports numpy only when called.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (
    _ONE,
    RatMatrix,
    RatVector,
    ShapeError,
    SkewForm,
    _combine,
    direct_sum,
    form_kernel,
    darboux_basis,
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


def _vec_from_json(data: dict, key: str) -> RatVector:
    # a JSON string or object is iterable too, and would parse as a vector
    if not isinstance(data[key], list):
        raise TypeError(f"{key} must be a JSON list")
    return vec(data[key])


@dataclass(frozen=True)
class CloningProcess:
    """A copying process: object space, blank state, machine space, ready state,
    the full linear map on object x copy x machine, and the machine readout."""

    object_form: SkewForm
    blank: RatVector
    machine_form: SkewForm
    ready: RatVector
    phi: RatMatrix
    readout: RatMatrix

    def __post_init__(self):
        dm, dn = self.object_form.dim, self.machine_form.dim
        if len(self.blank) != dm or len(self.ready) != dn:
            raise ShapeError("blank/ready lengths do not match the form dimensions")
        total = 2 * dm + dn
        if self.phi.shape != (total, total):
            raise ShapeError(f"phi must be {total}x{total}, got {self.phi.shape}")
        if self.readout.shape != (dn, dm):
            raise ShapeError(f"readout must be {dn}x{dm}, got {self.readout.shape}")

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
    def from_json(cls, data: dict) -> "CloningProcess":
        return cls(
            object_form=SkewForm.from_json(data["object_form"]),
            blank=_vec_from_json(data, "blank"),
            machine_form=SkewForm.from_json(data["machine_form"]),
            ready=_vec_from_json(data, "ready"),
            phi=RatMatrix.from_json(data["phi"]),
            readout=RatMatrix.from_json(data["readout"]),
        )


@dataclass(frozen=True)
class VerificationReport:
    symplectic_defect_norm: Fraction
    cloning_residual: Fraction
    inferred_readout: RatMatrix
    verdict: str  # "pass" | "fail"
    reason: str
    # (row, col, value) of the first nonzero symplectic-defect entry in
    # row-major order; None when phi is symplectic
    first_defect_entry: tuple[int, int, Fraction] | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

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

    def block(row, offset: int, scale: Fraction = _ONE):
        # a stored row of G or G^-1, moved to a column block and scaled
        return tuple((j + offset, x if scale is _ONE else x * scale) for j, x in row)

    rows = [((i, _ONE), (d + i, _ONE)) + block(r, 2 * d) for i, r in enumerate(g._nz)]
    rows += [((i, _ONE), (d + i, _MINUS_HALF)) + block(r, 2 * d, _HALF) for i, r in enumerate(g._nz)]
    rows += [r + block(r, d, _HALF) + ((2 * d + i, _THREE_HALVES),) for i, r in enumerate(g_inv._nz)]
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
    denominators.
    """
    n = form.dim // 2
    machine = standard_form(n)
    if form.dim == 0 or form == machine:
        return standard_cloner(n)
    p = darboux_basis(form)
    # swapping each pair turns P^T omega P = J into G^T (-omega) G = J, which
    # also gives the inverse without elimination: G^-1 = J^-1 G^T (-omega)
    # = J G^T omega
    g = RatMatrix._raw(tuple(tuple(sorted((j ^ 1, x) for j, x in row)) for row in p._nz), form.dim)
    return _mirror_assembly(form, machine, g, machine.matrix @ (g.T @ form.matrix))


def verify_cloning(c: CloningProcess) -> VerificationReport:
    """Exact verification of a candidate process.

    Checks symplecticity of the full map against the product form, the copying
    identity on the zero state and every object basis state (linearity makes
    this exhaustive), and consistency of the stored readout with the machine
    output.  Both reported residuals are exact rationals; verdict is pass iff
    both are zero.  A nonzero symplectic defect is located by its first entry.
    """
    dm = c.object_dim
    total = c.total_form()
    defect = symplectic_defect(c.phi, total, total)
    defect_norm = defect.max_abs()
    first_defect = next(((i, *row[0]) for i, row in enumerate(defect._nz) if row), None)

    residual = Fraction(0)
    reason = ""

    def track(value: Fraction, why: str):
        nonlocal residual, reason
        if value > residual:
            residual = value
        if value and not reason:
            reason = why

    # image of the blank/ready offset: must be (0, 0, f(0))
    base = c.phi._apply(zero_vec(dm) + c.blank + c.ready)
    leak = tuple((j, x) for j, x in enumerate(base[: 2 * dm]) if x)
    for _, x in leak:
        track(abs(x), "offset image leaks into the object/copy blocks")

    # phi(e_i, b, r) = phi column i + image of the offset, by linearity, and
    # must be e_i in both copies, then the stored readout column shifted into
    # the machine block; the offset's machine part cancels in the inferred
    # readout, phi[2m:, :m], so only its leak is added
    stored_cols = c.readout.T._nz
    for i, col in enumerate(c.phi.T._nz[:dm]):
        got = _combine(col, leak)
        want = ((i, _ONE), (dm + i, _ONE)) + tuple((2 * dm + j, x) for j, x in stored_cols[i])
        if got == want:
            continue
        # ascending columns, so the first reason is that of the first block
        for j, x in _combine(got, tuple((j, -x) for j, x in want)):
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
    # implied by the two checks above when they are exactly zero, but
    # reported independently for imported candidates
    pullback_defect = symplectic_defect(
        c.readout, SkewForm._trusted(-c.object_form.matrix), c.machine_form
    )
    track(pullback_defect.max_abs(), "readout does not pull the machine form back to -omega")

    if defect_norm and not reason:
        reason = "map is not symplectic for the product form"
    verdict = "pass" if (not defect_norm and not residual) else "fail"
    return VerificationReport(
        symplectic_defect_norm=defect_norm,
        cloning_residual=residual,
        inferred_readout=inferred,
        verdict=verdict,
        reason=reason if verdict == "fail" else "",
        first_defect_entry=first_defect,
    )


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


@dataclass(frozen=True)
class SizeWitness:
    """Kernel vector of the readout plus the nondegeneracy contradiction.

    ``pullback_row`` is (F^T sigma F) w, identically zero; ``pairing`` is
    omega(w, partner), nonzero, so -omega cannot equal the pullback.
    """

    vector: RatVector
    pullback_row: RatVector
    partner: RatVector
    pairing: Fraction

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
    kern = form_kernel(candidate.readout)
    # rank(F) <= 2k < 2m guarantees a kernel vector
    w = kern[0]
    pullback = candidate.readout.T @ candidate.machine_form.matrix @ candidate.readout
    pullback_row = pullback._apply(w)
    omega_w = candidate.object_form.matrix._apply(w)
    j = next(i for i, x in enumerate(omega_w) if x)
    partner = tuple(Fraction(i == j) for i in range(dm))
    pairing = omega_w[j]  # omega(partner, w), partner being basis vector j
    return SizeWitness(vector=w, pullback_row=pullback_row, partner=partner, pairing=pairing)


# L-BFGS-B's default stopping tolerances: factr (1e7) times machine epsilon
# on the relative decrease, pgtol on the largest gradient entry
_FTOL = 1e7 * sys.float_info.epsilon
_GTOL = 1e-5


def _lbfgs(objective, x: np.ndarray, maxiter: int) -> float:
    """Lowest objective value L-BFGS (Nocedal, Math. Comp. 35, 1980) reaches from x.

    The direction comes from the two-loop recursion over the last five
    (step, gradient change) pairs; the step is the first of 1, 1/2, ... (20
    halvings at most; 1/|grad| on the first iteration) meeting the Armijo
    condition.  Stops like L-BFGS-B's defaults: after maxiter iterations, a
    relative decrease <= _FTOL or max |grad| <= _GTOL.
    """
    import numpy as np

    f, g = objective(x)
    pairs: deque = deque(maxlen=5)  # (s, y, 1 / y.s)
    for _ in range(maxiter):
        if np.abs(g).max() <= _GTOL:
            break
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * np.vdot(s, q))
            q -= alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            q /= rho * np.vdot(y, y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += (a - rho * np.vdot(y, q)) * s
        slope = -np.vdot(g, q)
        step = 1.0 if pairs else 1.0 / math.sqrt(np.vdot(g, g))
        for _ in range(21):
            x_new = x - step * q
            f_new, g_new = objective(x_new)
            if f_new <= f + 1e-4 * step * slope:
                break
            step /= 2
        else:
            break  # no sufficient decrease left at working precision
        s, y = x_new - x, g_new - g
        sy = np.vdot(s, y)
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= _FTOL:
            break
    return f


def clone_residual_probe(m: int, k: int, iterations: int, seed: int) -> float:
    """Numerical search for a near-symplectic copying map with an undersized machine.

    The search space keeps the copying constraint exact by construction: the
    object and copy rows of the first 2m columns of the candidate map are
    pinned to (x, x), so those columns are (x, x, Fx) with the readout F
    free, and the remaining columns (action on the blank copy and the
    machine) are unconstrained.  L-BFGS with random restarts minimizes the
    squared Frobenius norm of the symplectic defect, each restart stopping
    after its share of the iterations, a relative decrease <= 2.2e-9 or a
    largest gradient entry <= 1e-5 (the defaults of L-BFGS-B); returns the
    norm of the best defect found.  Only the infeasible regime k < m is
    accepted.

    For k = 0 the defect's object-object block is forced to equal the object
    form itself, so the result is bounded below by sqrt(2m).
    """
    if m < 0 or k < 0:
        raise ValueError("dimensions must be nonnegative")
    if k >= m:
        raise NotApplicableError(
            f"k={k} >= m={m}: a true cloning process exists; use readout_solver instead"
        )
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    import numpy as np

    dm, dn = 2 * m, 2 * k
    d = 2 * dm + dn
    xi = np.array(standard_form(2 * m + k).matrix.tolist(), dtype=float)  # J_m + J_m + J_k
    pinned = np.zeros((d, d))
    pinned[: 2 * dm, :dm] = np.tile(np.eye(dm), (2, 1))
    free = np.ones((d, d))
    free[: 2 * dm, :dm] = 0.0

    def objective(phi: np.ndarray) -> tuple[float, np.ndarray]:
        delta = phi.T @ xi @ phi - xi
        # d/dphi ||phi^T Xi phi - Xi||^2, zero on the pinned entries
        return float(np.sum(delta * delta)), free * (-4.0 * xi @ phi @ delta)

    rng = np.random.default_rng(seed)
    restarts = min(8, iterations)
    per_restart = max(1, iterations // restarts)
    best = math.inf
    for _ in range(restarts):
        phi = pinned + free * rng.standard_normal((d, d))
        best = min(best, _lbfgs(objective, phi, per_restart))
    return math.sqrt(best)
