"""Independent reference implementations the tests compare the program against.

The exact kernels are the straightforward ``Fraction`` versions: every
multiply, add and zero test is a rational operation.  They are slow but
obviously right, so the integer kernels in ``symclone.exact`` must return
equal matrices (and equal pivots).  ``dense_key`` is what matrix equality
means, computed from a dense grid without the program's storage.  ``det`` has no program counterpart: the
tests use it to check that constructed maps have determinant one.
``check_cloning_diagram`` checks the cloning diagram one state at a time,
with one composite per state, where the program checks each block of states
as one family.  It reads each state out with a per-state reference,
``process_readout`` (x -> F x + f(0)) or ``hilbert_readout``, where the
program's readout maps a whole family at once.  ``check_traditional_diagram``
codes the machine-free cloning diagram directly, so the reduction law of the
generic checker can be tested against it.  ``slice_amplitudes`` projects
U(x x beta x rho) on the x x x x K slice through a product with U, where the
Hilbert diagram's readout multiplies a block of states by U (I x beta x
rho), formed once.  ``conjugated_cloner`` is the Darboux-conjugated standard
process, kept as a fixture whose phi is dense with entries hundreds of bits
wide, and ``product_general_cloner`` builds the general process by its
product formula, G^-1 = J (G^T omega).
``verify_cloning`` checks a process entry by entry on dense grids, and
``shuffle_permutation`` gives the block shuffle that the product
constructors' phi is conjugated by.  ``pair`` evaluates a skew form on two
vectors, and ``complex_matrix_to_json`` writes a complex matrix in the layout
of Hilbert diagram files; the program needs neither.  ``lbfgs`` and
``clone_residual_probe`` run the residual probe's restarts one after
another, one L-BFGS run each, on ``probe_objective``, where Xi is applied by
a dense product; each row of the batched ``probe._lbfgs`` must return,
bit for bit, what ``lbfgs`` returns from that row alone.  ``transvection``
builds the symplectic shears whose products the conjugation law of cloning
processes is tested with.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

from symclone import (
    CloningProcess,
    RatMatrix,
    SkewForm,
    VerificationReport,
    standard_cloner,
    standard_form,
    vec,
)
from symclone.diagrams import CloningDiagram, DiagramInstance, DiagramReport

_ZERO = Fraction(0)


def dense_key(grid: Sequence[Sequence], cols: int) -> tuple:
    """Two matrices are equal iff their keys are: the same column count and
    the same dense grid of values, however each entry is spelled."""
    return cols, tuple(tuple(Fraction(x) for x in row) for row in grid)


def pair(form: SkewForm, u: Sequence, v: Sequence) -> Fraction:
    """Evaluate the form: u . (matrix v), each vector coerced by ``vec``."""
    w = form.matrix.apply(v)
    return sum((a * b for a, b in zip(vec(u), w) if a and b), _ZERO)


def transvection(form: SkewForm, u: Sequence, lam) -> tuple[RatMatrix, RatMatrix]:
    """The symplectic transvection z -> z + lam omega(u, z) u of the form, as
    the matrix I + lam u u^T Omega, and its inverse I - lam u u^T Omega.  It
    preserves omega because omega(u, u) = 0; products of transvections give
    every rational symplectic map."""
    u = vec(u)
    row = form.matrix.T.apply(u)  # u^T Omega
    n = form.dim

    def shear(c) -> RatMatrix:
        return RatMatrix([[(i == j) + c * u[i] * row[j] for j in range(n)] for i in range(n)])

    return shear(Fraction(lam)), shear(-Fraction(lam))


def complex_matrix_to_json(a) -> dict:
    """A 2-D complex array as ``complex_matrix_from_json`` reads it: one
    ``[re, im]`` pair of floats per entry."""
    rows, cols = a.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[[float(x.real), float(x.imag)] for x in row] for row in a],
    }


def matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Product by zero-skipping Fraction accumulation."""
    assert a.cols == b.rows
    out = [[_ZERO] * b.cols for _ in range(a.rows)]
    sparse_rows = [[(j, x) for j, x in enumerate(b.row(k)) if x] for k in range(b.rows)]
    for i in range(a.rows):
        orow = out[i]
        for k, x in enumerate(a.row(i)):
            if x:
                for j, y in sparse_rows[k]:
                    orow[j] += x * y
    return RatMatrix(out) if out else RatMatrix.zeros(0, b.cols)


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form by Fraction Gauss-Jordan, and the pivot columns."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        piv = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    red = RatMatrix(rows) if rows else RatMatrix.zeros(0, m.cols)
    return red, pivots


def darboux_basis(form: SkewForm) -> RatMatrix:
    """Rational symplectic Gram-Schmidt over Fractions, column by column."""
    n = form.dim
    remaining = [tuple(Fraction(i == j) for i in range(n)) for j in range(n)]
    columns = []

    def dot(u, w) -> Fraction:
        return sum((a * b for a, b in zip(u, w) if a and b), Fraction(0))

    while remaining:
        e = remaining.pop(0)
        we = form.matrix.apply(e)  # pair(v, e) = dot(v, we)
        idx = next(i for i, v in enumerate(remaining) if dot(v, we))
        f = remaining.pop(idx)
        s = -dot(f, we)  # pair(e, f)
        f = tuple(x / s for x in f)
        columns += [e, f]
        wf = form.matrix.apply(f)
        projected = []
        for v in remaining:
            a = dot(v, wf)  # pair(v, f), component along e
            b = dot(v, we)  # pair(v, e), component along f
            if not a and not b:
                projected.append(v)
            else:
                projected.append(tuple(x - a * ex + b * fx for x, ex, fx in zip(v, e, f)))
        remaining = projected
    return RatMatrix(list(zip(*columns))) if columns else RatMatrix.zeros(0, 0)


def inverse(m: RatMatrix) -> RatMatrix:
    """Inverse of an invertible matrix: the right half of rref([m | I])."""
    n = m.rows
    eye = RatMatrix.identity(n)
    red, pivots = rref(RatMatrix([m.row(i) + eye.row(i) for i in range(n)]))
    assert pivots[:n] == list(range(n)), "matrix is singular"
    return RatMatrix([red.row(i)[n:] for i in range(n)])


def conjugated_cloner(form: SkewForm) -> CloningProcess:
    """The standard process carried to ``form`` by conjugating its object and
    copy blocks with a Darboux basis P (P^T omega P = J) and its inverse.

    phi = T . standard phi . T^-1 with T = diag(P, P, I), readout F . P^-1,
    and the machine keeps the standard form.  Every object and copy entry of
    phi mixes all of P's columns, so it carries a denominator near the lcm of
    all of P's: 65 bits at dim 12, 223 at dim 20.  Built with the reference
    kernels only.
    """
    d = form.dim
    std = standard_cloner(d // 2)
    p = darboux_basis(form)
    p_inv = inverse(p)
    eye = RatMatrix.identity(d)
    t = RatMatrix.block_diag(p, p, eye)
    t_inv = RatMatrix.block_diag(p_inv, p_inv, eye)
    return CloningProcess(
        object_form=form,
        blank=std.blank,
        machine_form=std.machine_form,
        ready=std.ready,
        phi=matmul(matmul(t, std.phi), t_inv),
        readout=matmul(std.readout, p_inv),
    )


def product_general_cloner(form: SkewForm) -> CloningProcess:
    """``general_cloner`` by its product formula, on dense grids.

    G is the Darboux basis with each column pair swapped, so that
    G^T (-omega) G = J; its inverse is J (G^T omega), two reference products;
    phi is [[I, I, G], [I, -I/2, G/2], [G^-1, G^-1/2, 3I/2]] with zero blank
    and ready states and readout G^-1.  The standard form (dim 0 included)
    gets the standard process.
    """
    d = form.dim
    machine = standard_form(d // 2)
    if d == 0 or form == machine:
        return standard_cloner(d // 2)
    p = darboux_basis(form)
    g = RatMatrix([[p[i, j ^ 1] for j in range(d)] for i in range(d)])
    g_inv = matmul(machine.matrix, matmul(g.T, form.matrix))
    eye = RatMatrix.identity(d).tolist()
    gg, gi = g.tolist(), g_inv.tolist()

    def scaled(row, c):
        return [c * x for x in row]

    half = Fraction(1, 2)
    rows = [eye[i] + eye[i] + gg[i] for i in range(d)]
    rows += [eye[i] + scaled(eye[i], -half) + scaled(gg[i], half) for i in range(d)]
    rows += [gi[i] + scaled(gi[i], half) + scaled(eye[i], 3 * half) for i in range(d)]
    zero = (_ZERO,) * d
    return CloningProcess(form, zero, machine, zero, RatMatrix(rows), g_inv)


def det(m: RatMatrix) -> Fraction:
    """Determinant by Fraction Gaussian elimination."""
    assert m.rows == m.cols
    rows = [list(m.row(i)) for i in range(m.rows)]
    n = m.rows
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


def permutation(perm: Sequence[int]) -> RatMatrix:
    """Matrix P with (P v)[i] = v[perm[i]]."""
    n = len(perm)
    assert sorted(perm) == list(range(n)), "not a permutation"
    return RatMatrix([[Fraction(k == j) for k in range(n)] for j in perm])


def shuffle_permutation(dims: tuple[int, int, int, int, int, int]) -> RatMatrix:
    """Permutation taking (A1,B1,C1,A2,B2,C2) block layout to (A1,A2,B1,B2,C1,C2).

    dims are the six block sizes in source order.  The result is orthogonal,
    and symplectic for the correspondingly permuted block-diagonal forms.
    """
    assert len(dims) == 6 and all(d >= 0 for d in dims), "need six nonnegative block sizes"
    offsets = []
    pos = 0
    for d in dims:
        offsets.append(pos)
        pos += d
    # target order: A1 A2 | B1 B2 | C1 C2  (blocks 0,3,1,4,2,5 of the source)
    perm: list[int] = []
    for b in (0, 3, 1, 4, 2, 5):
        perm.extend(range(offsets[b], offsets[b] + dims[b]))
    return permutation(perm)


def verify_cloning(c: CloningProcess) -> VerificationReport:
    """The verifier's report, every check written out over dense grids.

    The defects are products by ``matmul``; the copying identity is checked
    entry by entry on the image of the zero state and of each object basis
    state, in the order that fixes the reported reason: the offset leak,
    then per basis state the first copy, the second copy and the stored
    readout, then the readout pullback.
    """
    dm = c.object_dim
    xi = c.total_form().matrix
    phi = c.phi.tolist()
    readout = c.readout.tolist()

    def pullback_defect(s: RatMatrix, form_in: RatMatrix, form_out: RatMatrix) -> list:
        # s^T . form_out . s - form_in, entry by entry
        grid, pushed, fin = s.tolist(), matmul(form_out, s).tolist(), form_in.tolist()
        return [
            [sum((grid[k][i] * pushed[k][j] for k in range(s.rows)), -fin[i][j]) for j in range(s.cols)]
            for i in range(s.cols)
        ]

    def max_abs(grid) -> Fraction:
        return max((abs(x) for row in grid for x in row), default=_ZERO)

    defect = pullback_defect(c.phi, xi, xi)
    defect_norm = max_abs(defect)
    first_defect = next(((i, j, x) for i, row in enumerate(defect) for j, x in enumerate(row) if x), None)

    residual = _ZERO
    reason = ""

    def track(value: Fraction, why: str):
        nonlocal residual, reason
        residual = max(residual, value)
        if value and not reason:
            reason = why

    offset = [_ZERO] * dm + list(c.blank) + list(c.ready)
    base = [sum((a * b for a, b in zip(row, offset)), _ZERO) for row in phi]
    for idx in range(2 * dm):
        track(abs(base[idx]), "offset image leaks into the object/copy blocks")
    for i in range(dm):
        e = [Fraction(j == i) for j in range(dm)]
        col = [row[i] for row in phi]
        out = [a + b for a, b in zip(col, base)]
        for idx in range(dm):
            track(abs(out[idx] - e[idx]), f"first copy wrong on basis state {i}")
        for idx in range(dm):
            track(abs(out[dm + idx] - e[idx]), f"second copy wrong on basis state {i}")
        for a, row in zip(col[2 * dm :], readout):
            track(abs(a - row[i]), f"stored readout disagrees with the machine output on basis state {i}")
    pullback = pullback_defect(c.readout, -c.object_form.matrix, c.machine_form.matrix)
    track(max_abs(pullback), "readout does not pull the machine form back to -omega")

    if defect_norm and not reason:
        reason = "map is not symplectic for the product form"
    verdict = "pass" if not (defect_norm or residual) else "fail"
    inferred = [row[:dm] for row in phi[2 * dm :]]
    return VerificationReport(
        symplectic_defect_norm=defect_norm,
        cloning_residual=residual,
        inferred_readout=RatMatrix(inferred) if inferred else RatMatrix.zeros(0, dm),
        verdict=verdict,
        reason=reason if verdict == "fail" else "",
        first_defect_entry=first_defect,
    )


def check_cloning_diagram(
    instance: DiagramInstance, diagram: CloningDiagram, readout, states: Sequence | None = None
) -> DiagramReport:
    """The cloning diagram checked state by state: c o (psi x beta x rho)
    against psi x psi x f(psi), each side built from single-state arrows.
    ``readout`` maps one state to its machine state, in place of the
    diagram's own readout, which takes a family."""
    if states is None:
        states = instance.sample_states(diagram.object_a)
    beta_arrow = instance.state_arrow(diagram.object_a, diagram.beta)
    rho_arrow = instance.state_arrow(diagram.machine_b, diagram.rho)
    results = []
    for psi in states:
        psi_arrow = instance.state_arrow(diagram.object_a, psi)
        prepared = instance.tensor(instance.tensor(psi_arrow, beta_arrow), rho_arrow)
        lhs = instance.compose(diagram.arrow_c, prepared)
        f_arrow = instance.state_arrow(diagram.machine_b, readout(psi))
        rhs = instance.tensor(instance.tensor(psi_arrow, psi_arrow), f_arrow)
        results.append((psi, instance.equal(lhs, rhs)))
    return DiagramReport(
        results=tuple(results),
        passed=all(ok for _, ok in results),
        first_failure=next((psi for psi, ok in results if not ok), None),
        exhaustive=instance.exhaustive,
        note="state by state",
    )


def slice_amplitudes(U, x, beta, rho):
    """Amplitudes of U(x x beta x rho) on the x x x x e_j slice, one for each
    machine basis vector e_j (all vectors flat and complex)."""
    from symclone import kron

    return kron(x, x).conj() @ (U @ kron(kron(x, beta), rho)).reshape(len(x) ** 2, -1)


def hilbert_readout(U, beta, rho):
    """The readout of the Hilbert diagram of U, beta and rho, one state at a
    time: the normalized ``slice_amplitudes``, or the first machine basis
    state where their norm is below FLOAT_TOL."""
    import numpy as np

    from symclone.quantum import FLOAT_TOL

    def readout(x):
        amps = slice_amplitudes(U, np.asarray(x, dtype=complex), beta, rho)
        norm = float(np.linalg.norm(amps))
        return amps / norm if norm >= FLOAT_TOL else np.eye(len(amps))[:, 0].astype(complex)

    return readout


def process_readout(process: CloningProcess):
    """The readout of a process's diagram, one state at a time: x -> F x +
    f(0), with f(0) the machine block of phi applied to (0, blank, ready),
    each product taken row by row over Fractions."""
    dm = process.object_dim
    prepared = [_ZERO] * dm + list(process.blank) + list(process.ready)
    offset = [sum((a * b for a, b in zip(row, prepared)), _ZERO) for row in process.phi.tolist()[2 * dm :]]
    grid = process.readout.tolist()

    def readout(x):
        x = vec(x)
        return tuple(sum((a * b for a, b in zip(row, x)), c) for row, c in zip(grid, offset))

    return readout


def check_traditional_diagram(
    instance: DiagramInstance,
    object_a: Any,
    beta: Any,
    arrow_c: Any,
    states: Sequence | None = None,
) -> DiagramReport:
    """Machine-free diagram check, coded directly: c o (psi x beta) = psi x psi.

    Equivalent to ``check_cloning_diagram`` with the machine object set to the
    unit; kept separate so the reduction law can be tested against an
    independent implementation.
    """
    if states is None:
        states = instance.sample_states(object_a)
    beta_arrow = instance.state_arrow(object_a, beta)
    results = []
    first_failure = None
    for psi in states:
        psi_arrow = instance.state_arrow(object_a, psi)
        lhs = instance.compose(arrow_c, instance.tensor(psi_arrow, beta_arrow))
        rhs = instance.tensor(psi_arrow, psi_arrow)
        ok = instance.equal(lhs, rhs)
        results.append((psi, ok))
        if not ok and first_failure is None:
            first_failure = psi
    passed = all(ok for _, ok in results)
    return DiagramReport(
        results=tuple(results),
        passed=passed,
        first_failure=first_failure,
        exhaustive=instance.exhaustive,
        note="machine-free diagram",
    )


def lbfgs(objective, x, maxiter: int) -> float:
    """One L-BFGS run from the vector x, as the probe ran its restarts one
    after another: ``objective`` maps a point to its value and gradient, and
    the rules are those of ``probe._lbfgs`` for a single row."""
    import math
    from collections import deque

    import numpy as np

    from symclone.probe import _FTOL, _GTOL

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


def probe_objective(m: int, k: int):
    """The residual probe's search space for m object pairs and k machine
    pairs, as (pinned, free, objective): the pinned entries of a d x d
    candidate, the mask of its free entries, and the map from a candidate to
    its squared symplectic defect and that defect's gradient, zero on the
    pinned entries, with Xi applied by a dense product."""
    import numpy as np

    dm, dn = 2 * m, 2 * k
    d = 2 * dm + dn
    xi = np.array(standard_form(2 * m + k).matrix.tolist(), dtype=float)
    pinned = np.zeros((d, d))
    pinned[: 2 * dm, :dm] = np.tile(np.eye(dm), (2, 1))
    free = np.ones((d, d))
    free[: 2 * dm, :dm] = 0.0

    def objective(phi):
        delta = phi.T @ xi @ phi - xi
        return float(np.sum(delta * delta)), free * (-4.0 * xi @ phi @ delta)

    return pinned, free, objective


def clone_residual_probe(m: int, k: int, iterations: int, seed: int) -> float:
    """The residual probe with its restarts run one after another through
    ``lbfgs``, each on its own d x d matrix, with ``probe_objective``;
    arguments are not checked."""
    import math

    import numpy as np

    pinned, free, objective = probe_objective(m, k)
    d = len(pinned)
    rng = np.random.default_rng(seed)
    restarts = min(8, iterations)
    per_restart = max(1, iterations // restarts)
    best = math.inf
    for _ in range(restarts):
        phi = pinned + free * rng.standard_normal((d, d))
        best = min(best, lbfgs(objective, phi, per_restart))
    return math.sqrt(best)
