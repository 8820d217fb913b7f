"""Exact rational linear algebra for skew-symmetric bilinear forms.

Everything here runs over ``fractions.Fraction``: skew forms are stored and
checked exactly, symplectic-map identities hold with zero tolerance, and the
Darboux normalization is a rational symplectic Gram-Schmidt.  Floating point
only appears in the numerical probe and the quantum module, never here.
"""

from __future__ import annotations

from fractions import Fraction
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


class RatMatrix:
    """Immutable dense matrix of exact rationals.

    Multiplication skips zero entries, so the big block-sparse matrices built
    by the cloning constructors (hundreds of rows, a handful of nonzeros per
    row) multiply quickly despite the dense storage.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence]):
        e = tuple(tuple(_frac(x) for x in row) for row in entries)
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
        return cls._raw(tuple((_ZERO,) * cols for _ in range(rows)), cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._raw(
            tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)), n
        )

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "RatMatrix":
        cols = [vec(c) for c in columns]
        if not cols:
            return cls.zeros(0, 0)
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ShapeError("columns of unequal length")
        return cls._raw(tuple(tuple(col[i] for col in cols) for i in range(n)), len(cols))

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

    def column(self, j: int) -> RatVector:
        return tuple(row[j] for row in self._e)

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

    def scale(self, s) -> "RatMatrix":
        s = _frac(s)
        return RatMatrix._raw(tuple(tuple(s * x for x in row) for row in self._e), self.cols)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        out = [[_ZERO] * other.cols for _ in range(self.rows)]
        sparse_rows = [[(j, b) for j, b in enumerate(row) if b] for row in other._e]
        for i, arow in enumerate(self._e):
            orow = out[i]
            for k, a in enumerate(arow):
                if a:
                    for j, b in sparse_rows[k]:
                        orow[j] += a * b
        return RatMatrix._raw(tuple(map(tuple, out)), other.cols)

    def apply(self, v: Sequence) -> RatVector:
        v = vec(v)
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
        m = [list(row) for row in self._e]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            piv = next((i for i in range(r, self.rows) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return RatMatrix._raw(tuple(map(tuple, m)), self.cols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        m = [list(row) for row in self._e]
        n = self.rows
        d = Fraction(1)
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                d = -d
            d *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return d

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        n = self.rows
        aug = RatMatrix._raw(
            tuple(
                self._e[i] + tuple(_ONE if i == j else _ZERO for j in range(n))
                for i in range(n)
            ),
            2 * n,
        )
        red, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise DegenerateFormError("matrix is singular")
        return RatMatrix._raw(tuple(red.row(i)[n:] for i in range(n)), n)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(x) for x in row] for row in self._e],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RatMatrix":
        if not data["entries"]:  # cols are only recoverable from the header
            m = cls._raw((), int(data["cols"]))
        else:
            m = cls(data["entries"])
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
    return S.T @ form_out.matrix @ S - form_in.matrix


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
    remaining = [tuple(Fraction(i == j) for i in range(n)) for j in range(n)]
    columns: list[RatVector] = []

    def dot(u: RatVector, w: RatVector) -> Fraction:
        return sum((a * b for a, b in zip(u, w) if a and b), Fraction(0))

    while remaining:
        e = remaining.pop(0)
        we = form.matrix.apply(e)  # pair(v, e) = dot(v, we)
        idx = next((i for i, v in enumerate(remaining) if dot(v, we)), None)
        if idx is None:
            # cannot happen for a valid SkewForm; guards direct misuse
            raise DegenerateFormError("form is degenerate on the remaining subspace")
        f = remaining.pop(idx)
        s = -dot(f, we)  # pair(e, f)
        f = tuple(x / s for x in f)
        columns.append(e)
        columns.append(f)
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
    return RatMatrix.from_columns(columns) if columns else RatMatrix.zeros(0, 0)


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
