"""Exact rational linear algebra for skew-symmetric bilinear forms.

Entries are stored as ``fractions.Fraction``, and every verdict is an exact
identity: skew forms are checked exactly, symplectic-map identities hold with
zero tolerance, and the Darboux normalization is a rational symplectic
Gram-Schmidt.  The kernels (products, elimination and the Darboux basis) run
on integers instead: each call reads its operands as integer rows, a common
denominator per row with the integer numerators of the row's nonzero entries,
and a result entry becomes a ``Fraction`` only once, at the end.  Floating
point only appears in the numerical probe and the quantum module, never here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence


class ShapeError(ValueError):
    """Matrix dimensions do not line up for the requested operation."""


class DegenerateFormError(ValueError):
    """A bilinear form that must be nondegenerate has a nontrivial kernel."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        f = x
    elif isinstance(x, (int, str)) and not isinstance(x, bool):
        f = Fraction(x)
    else:
        raise TypeError(f"expected an exact rational entry, got {type(x).__name__}")
    # intern the two most common values so tuple comparisons hit the
    # identity fast path
    if not f:
        return _ZERO
    if f == 1:
        return _ONE
    return f


RatVector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vec(entries: Iterable) -> RatVector:
    """Coerce an iterable of ints/strings/Fractions to an exact vector."""
    return tuple(_frac(x) for x in entries)


def zero_vec(n: int) -> RatVector:
    return (_ZERO,) * n


# -- integer kernels ---------------------------------------------------------
#
# An integer row is (den, ((col, num), ...)): the row's entries are num / den
# at the listed columns and zero elsewhere, with den the lcm of the entries'
# denominators.  Dense integer rows (plain lists) carry no denominator: the
# elimination kernels only need each row up to a nonzero factor.


def _int_row(row: Sequence[Fraction]) -> tuple[int, tuple[tuple[int, int], ...]]:
    nz = [(j, x) for j, x in enumerate(row) if x]
    den = math.lcm(*[x.denominator for _, x in nz])
    return den, tuple((j, x.numerator * (den // x.denominator)) for j, x in nz)


def _int_rows(m: "RatMatrix") -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    return [_int_row(row) for row in m._e]


def _fraction_row(den: int, nums: Iterable[int]) -> RatVector:
    """Entries num / den, with zeros as the interned _ZERO."""
    return tuple(Fraction(v, den) if v else _ZERO for v in nums)


def _int_product(arows, brows, cols: int) -> list[tuple[int, list[int]]]:
    """Rows of A @ B as (den, dense numerators), from the integer rows of A and B.

    Only nonzero entries are multiplied; the denominator of an output row is
    the A row's times the lcm of the B rows it touches.
    """
    out = []
    for den, anz in arows:
        terms = [(a, brows[k]) for k, a in anz if brows[k][1]]
        acc = [0] * cols
        if terms:
            lcm = math.lcm(*[db for _, (db, _) in terms])
            for a, (db, bnz) in terms:
                c = a * (lcm // db)
                for j, b in bnz:
                    acc[j] += c * b
            den *= lcm
        out.append((den, acc))
    return out


def _dense(rows, cols: int) -> list[list[int]]:
    """Integer rows as dense lists of numerators, denominators dropped."""
    out = []
    for _, nz in rows:
        row = [0] * cols
        for j, v in nz:
            row[j] = v
        out.append(row)
    return out


def _eliminate(row: list[int], prow: list[int], c: int) -> list[int]:
    """Clear column c of ``row`` with the pivot row; the result is primitive."""
    g = math.gcd(row[c], prow[c])
    f, p = row[c] // g, prow[c] // g
    out = [p * a - f * b for a, b in zip(row, prow)]
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _forward(m: list[list[int]], cols: int) -> list[int]:
    """Integer row echelon form of ``m`` in place; returns the pivot columns."""
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                m[i] = _eliminate(m[i], m[r], c)
        pivots.append(c)
        r += 1
    return pivots


def _back(m: list[list[int]], pivots: list[int]) -> None:
    """Clear every pivot column above its pivot (echelon form to reduced form)."""
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        for i in range(r):
            if m[i][c]:
                m[i] = _eliminate(m[i], m[r], c)


class RatMatrix:
    """Immutable dense matrix of exact rationals.

    The entries are ``Fraction`` rows.  Products, elimination and the Darboux
    basis read them per call as integer rows: per row, the lcm of its
    denominators and the integer numerators of its nonzero entries.  Only
    nonzeros are kept, so the big block-sparse matrices built by the cloning
    constructors (hundreds of rows, a handful of nonzeros per row) stay cheap,
    and dense matrices with large entries cost one integer operation per step
    where a ``Fraction`` would take a gcd.  The constructor parses each
    distinct string entry once per call, through a memo that dies with the
    call.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence]):
        # Parsed JSON grids repeat a few strings ("0" above all) thousands of
        # times, so each distinct string goes through _frac once per call.
        # Only str entries are memoized: True == 1 == 1.0 share a hash, and a
        # memo keyed on raw values would let booleans and floats through.
        parsed: dict[str, Fraction] = {}

        def entry(x) -> Fraction:
            if type(x) is not str:
                return _frac(x)
            f = parsed.get(x)
            if f is None:
                f = parsed[x] = _frac(x)
            return f

        e = tuple(tuple(map(entry, row)) for row in entries)
        if e:
            cols = len(e[0])
            if any(len(row) != cols for row in e):
                raise ShapeError("ragged rows")
        else:
            cols = 0
        self.rows = len(e)
        self.cols = cols
        self._e = e

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, e: tuple[tuple[Fraction, ...], ...], cols: int | None = None) -> "RatMatrix":
        # internal fast path: entries are already canonical Fractions
        m = cls.__new__(cls)
        m._e = e
        m.rows = len(e)
        m.cols = len(e[0]) if e else (cols or 0)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        # rows are immutable, so they can all be one tuple
        return cls._raw(((_ZERO,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._raw(
            tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)), n
        )

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "RatMatrix":
        """Matrix P with (P v)[i] = v[perm[i]]."""
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError("not a permutation")
        return cls._raw(
            tuple(tuple(_ONE if perm[i] == j else _ZERO for j in range(n)) for i in range(n)), n
        )

    @classmethod
    def block_diag(cls, *blocks: "RatMatrix") -> "RatMatrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[_ZERO] * cols for _ in range(rows)]
        r = c = 0
        for b in blocks:
            for i in range(b.rows):
                out[r + i][c : c + b.cols] = list(b._e[i])
            r += b.rows
            c += b.cols
        return cls._raw(tuple(map(tuple, out)), cols)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._e[i][j]

    def row(self, i: int) -> RatVector:
        return self._e[i]

    def tolist(self) -> list[list[Fraction]]:
        return [list(row) for row in self._e]

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self._e == other._e and self.cols == other.cols

    def __hash__(self):
        return hash((self.cols, self._e))

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._raw(tuple(tuple(-x for x in row) for row in self._e), self.cols)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return RatMatrix._raw(
            tuple(
                tuple((a + b) if b else a for a, b in zip(r1, r2))
                for r1, r2 in zip(self._e, other._e)
            ),
            self.cols,
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"cannot subtract {other.shape} from {self.shape}")
        return RatMatrix._raw(
            tuple(
                tuple((a - b) if b else a for a, b in zip(r1, r2))
                for r1, r2 in zip(self._e, other._e)
            ),
            self.cols,
        )

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        if not (self.cols and other.cols):
            return RatMatrix.zeros(self.rows, other.cols)
        rows = _int_product(_int_rows(self), _int_rows(other), other.cols)
        return RatMatrix._raw(tuple(_fraction_row(den, acc) for den, acc in rows), other.cols)

    def apply(self, v: Sequence) -> RatVector:
        return self._apply(vec(v))

    def _apply(self, v: RatVector) -> RatVector:
        # internal fast path: the vector's entries are already exact
        if len(v) != self.cols:
            raise ShapeError(f"cannot apply {self.shape} to a vector of length {len(v)}")
        support = [(j, x) for j, x in enumerate(v) if x]
        return tuple(
            sum((row[j] * x for j, x in support if row[j]), _ZERO) for row in self._e
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def T(self) -> "RatMatrix":
        if not self.rows:
            return RatMatrix.zeros(self.cols, 0)
        return RatMatrix._raw(tuple(zip(*self._e)), self.rows)

    def is_zero(self) -> bool:
        return all(not x for row in self._e for x in row)

    def max_abs(self) -> Fraction:
        """Largest absolute entry; 0 for the empty matrix."""
        best = _ZERO
        for row in self._e:
            for x in row:
                if x:
                    ax = -x if x < 0 else x
                    if ax > best:
                        best = ax
        return best

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["RatMatrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        m = _dense(_int_rows(self), self.cols)
        pivots = _forward(m, self.cols)
        _back(m, pivots)
        red = [_fraction_row(m[r][c], m[r]) for r, c in enumerate(pivots)]
        red += [(_ZERO,) * self.cols] * (self.rows - len(pivots))
        return RatMatrix._raw(tuple(red), self.cols), pivots

    def rank(self) -> int:
        return len(_forward(_dense(_int_rows(self), self.cols), self.cols))

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        n = self.rows
        rows = _int_rows(self)
        m = _dense(rows, 2 * n)
        for i, (den, _) in enumerate(rows):
            m[i][n + i] = den  # [A | I], row i scaled by den
        pivots = _forward(m, 2 * n)
        if pivots[:n] != list(range(n)):
            raise DegenerateFormError("matrix is singular")
        _back(m, pivots)
        return RatMatrix._raw(tuple(_fraction_row(m[r][r], m[r][n:]) for r in range(n)), n)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(x) for x in row] for row in self._e],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RatMatrix":
        entries = data["entries"]
        # a JSON string or object is iterable too, and would parse as a row
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise TypeError("matrix entries must be a JSON list of lists")
        if not entries:  # cols are only recoverable from the header
            m = cls._raw((), int(data["cols"]))
        else:
            m = cls(entries)
        if (m.rows, m.cols) != (data["rows"], data["cols"]):
            raise ShapeError("entry grid does not match declared rows/cols")
        return m

    def __repr__(self):
        return f"RatMatrix({[[str(x) for x in row] for row in self._e]})"


class SkewForm:
    """A nondegenerate skew-symmetric rational form on an even-dimensional space.

    Construction rejects odd dimension, asymmetric matrices, and degenerate
    (rank-deficient) matrices eagerly.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix: RatMatrix):
        if matrix.rows != matrix.cols:
            raise ShapeError("a bilinear form needs a square matrix")
        if matrix.rows % 2 != 0:
            raise DegenerateFormError("skew forms on odd-dimensional spaces are degenerate")
        if matrix.T != -matrix:
            raise ValueError("matrix is not skew-symmetric")
        if matrix.rows and matrix.rank() != matrix.rows:
            raise DegenerateFormError("form matrix is singular")
        self.dim = matrix.rows
        self.matrix = matrix

    @classmethod
    def _trusted(cls, matrix: RatMatrix) -> "SkewForm":
        # for matrices valid by construction (standard blocks, direct sums);
        # skips the O(dim^3) nondegeneracy check
        form = cls.__new__(cls)
        form.dim = matrix.rows
        form.matrix = matrix
        return form

    def pair(self, u: Sequence, v: Sequence) -> Fraction:
        """Evaluate the form: u . (matrix v)."""
        w = self.matrix.apply(v)
        u = vec(u)
        return sum((a * b for a, b in zip(u, w) if a and b), Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewForm) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def to_json(self) -> dict:
        out = self.matrix.to_json()
        out["dim"] = self.dim
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SkewForm":
        form = cls(RatMatrix.from_json(data))
        if form.dim != data["dim"]:
            raise ShapeError("declared dim does not match matrix size")
        return form

    def __repr__(self):
        return f"SkewForm(dim={self.dim})"


def standard_form(n: int) -> SkewForm:
    """Block-diagonal form with n copies of the standard 2x2 block [[0,1],[-1,0]]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    block = RatMatrix([[0, 1], [-1, 0]])
    return SkewForm._trusted(RatMatrix.block_diag(*([block] * n)))


def direct_sum(a: SkewForm, b: SkewForm) -> SkewForm:
    """Form of the product space: block diagonal of the two form matrices."""
    return SkewForm._trusted(RatMatrix.block_diag(a.matrix, b.matrix))


def symplectic_defect(S: RatMatrix, form_in: SkewForm, form_out: SkewForm) -> RatMatrix:
    """Exact residual S^T . form_out . S - form_in; zero iff S is symplectic."""
    if S.cols != form_in.dim or S.rows != form_out.dim:
        raise ShapeError(
            f"map {S.shape} does not match forms of dim {form_in.dim} -> {form_out.dim}"
        )
    # S^T . (form_out . S) - form_in in integers: the middle product and the
    # difference never become Fractions
    pushed = _int_product(_int_rows(form_out.matrix), _int_rows(S), S.cols)
    pushed = [(den, [(j, v) for j, v in enumerate(acc) if v]) for den, acc in pushed]
    rows = []
    for (den, acc), (wden, wnz) in zip(
        _int_product(_int_rows(S.T), pushed, S.cols), _int_rows(form_in.matrix)
    ):
        # acc / den - w / wden, over the denominator den * wden
        acc = [v * wden for v in acc]
        for j, w in wnz:
            acc[j] -= w * den
        rows.append(_fraction_row(den * wden, acc))
    return RatMatrix._raw(tuple(rows), S.cols)


def is_symplectic_map(S: RatMatrix, form_in: SkewForm, form_out: SkewForm) -> bool:
    """True iff S pulls form_out back to form_in exactly."""
    return symplectic_defect(S, form_in, form_out).is_zero()


def darboux_basis(form: SkewForm) -> RatMatrix:
    """Rational symplectic Gram-Schmidt.

    Returns an invertible P with P^T . form.matrix . P equal to the matrix of
    ``standard_form(dim/2)``, exactly.  The output is one valid choice, not a
    canonical one; verify with the pullback identity rather than comparing P.
    """
    n = form.dim
    # the form as omega / den with omega an integer matrix (sparse rows)
    rows = _int_rows(form.matrix)
    den = math.lcm(*[d for d, _ in rows])
    omega = [[(j, v * (den // d)) for j, v in nz] for d, nz in rows]

    def apply(u: list[int]) -> list[int]:
        return [sum(v * u[j] for j, v in row) for row in omega]

    # each vector is scale * u, with u a primitive integer vector, so
    # pair(x, y) = x.scale * y.scale * dot(x.u, omega y.u) / den
    remaining = [(_ONE, [int(i == j) for i in range(n)]) for j in range(n)]
    columns: list[tuple[Fraction, list[int]]] = []
    while remaining:
        se, ue = remaining.pop(0)
        we = apply(ue)
        along_e = [sum(map(mul, u, we)) for _, u in remaining]
        idx = next((i for i, x in enumerate(along_e) if x), None)
        if idx is None:
            # cannot happen for a valid SkewForm; guards direct misuse
            raise DegenerateFormError("form is degenerate on the remaining subspace")
        sf, uf = remaining.pop(idx)
        # f /= pair(e, f), so that pair(e, f) = 1
        sf /= sf * se * Fraction(-along_e.pop(idx), den)
        columns += [(se, ue), (sf, uf)]
        wf = apply(uf)
        # v - pair(v, f) e + pair(v, e) f
        #   = v.scale * (v.u + t (dot(v.u, omega e.u) f.u - dot(v.u, omega f.u) e.u))
        t = se * sf / den
        projected = []
        for (sv, uv), b in zip(remaining, along_e):
            a = sum(map(mul, uv, wf))
            if not a and not b:
                projected.append((sv, uv))
                continue
            tb, ta = t.numerator * b, t.numerator * a
            w = [t.denominator * x + tb * y - ta * z for x, y, z in zip(uv, uf, ue)]
            g = math.gcd(*w)
            projected.append((sv * Fraction(g, t.denominator), [x // g for x in w]))
        remaining = projected
    if not columns:
        return RatMatrix.zeros(0, 0)
    cols = [_fraction_row(s.denominator, [s.numerator * x for x in u]) for s, u in columns]
    return RatMatrix._raw(tuple(zip(*cols)), n)


def form_kernel(matrix: RatMatrix) -> list[RatVector]:
    """Exact basis of the null space of a rational matrix (possibly empty)."""
    red, pivots = matrix.rref()
    free = [c for c in range(matrix.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * matrix.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, fc]
        basis.append(tuple(v))
    return basis
