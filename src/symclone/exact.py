"""Exact rational linear algebra for skew-symmetric bilinear forms.

Entries are ``fractions.Fraction``, and a matrix stores each row as its
nonzeros only: a tuple of ``(col, value)`` pairs with ascending columns and
no zero values, so parsing, transposing, comparing, applying and
serializing a matrix cost one step per nonzero entry, not one per entry.
Every verdict is an exact identity: skew forms are checked exactly,
symplectic-map identities hold with zero tolerance, and the Darboux
normalization is a rational symplectic Gram-Schmidt.  The kernels (products,
elimination and the Darboux basis) run on integers instead: each call reads
the stored nonzeros of its operands as integer rows, a common denominator
per row with the integer numerators of the row's entries, and a result entry
becomes a ``Fraction`` only once, at the end.  The symplectic defect
S^T . form_out . S - form_in of any map between skew forms is itself skew,
so its kernel computes the strict upper triangle alone and mirrors it.  It
scales S by the diagonal blocks of form_out instead of by rows: the rows in
each block are scaled by column or each by its own lcm, whichever puts
fewer bits on them, and the two groups keep one shared denominator each.
Floating point only appears in the numerical probe and the quantum module,
never here.

A skew form's nondegeneracy is certified modulo the prime 32749 first: the
form's integer rows are eliminated mod p, and full rank there proves full
rank over Q, since a minor that is nonzero mod p is a nonzero integer.  Only
a form whose rank mod p is short (det divisible by p, or a degenerate form)
falls back to the exact ``rank``, which gives the verdict.  So the
certificate can only skip the exact rank on a form of full rank, and every
verdict stays exact.

The kernels that allocate in bulk (the dense-grid parse in ``RatMatrix``,
products, ``rref``, ``rank``, the certificate, ``symplectic_defect`` and
the Darboux walk) run with CPython's cyclic garbage collector paused, and so
do ``classical``'s entry points of the exact round trip (``general_cloner``,
``verify_cloning`` and ``CloningProcess.from_json``).  They build only acyclic
objects (Fractions, ints, tuples and lists of them), which reference counting
frees, so a collection during a kernel scans thousands of fresh objects and
finds nothing to free.  The collector's state is restored when the kernel
returns or raises, and a kernel entered with the collector already off leaves
it off.  The pause is process-wide: while a kernel runs, cyclic garbage that
another thread makes waits for the kernel to return.
"""

from __future__ import annotations

import functools
import gc
import math
import re
import sys
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence, Set
from fractions import Fraction
from itertools import compress, repeat
from operator import itemgetter, mul, ne


class ShapeError(ValueError):
    """Matrix dimensions do not line up for the requested operation."""


class DegenerateFormError(ValueError):
    """A bilinear form that must be nondegenerate has a nontrivial kernel."""


def _paused(kernel):
    """Run ``kernel`` with the cyclic garbage collector off, then turn it
    back on if it was on at entry (see the module docstring)."""

    @functools.wraps(kernel)
    def run(*args, **kwargs):
        if not gc.isenabled():
            return kernel(*args, **kwargs)
        gc.disable()
        try:
            return kernel(*args, **kwargs)
        finally:
            gc.enable()

    return run


# iterable, but never a grid, row or vector: a string or bytes would parse
# character by character, a mapping by its keys, a set in hash order
_NOT_SEQUENCES = (str, bytes, bytearray, Mapping, Set)


def _sequence(x, of: str):
    """x, which must be a sequence of ``of`` and not one of _NOT_SEQUENCES.
    A list or tuple, what parsed JSON and the constructors pass, skips the
    slower abstract-class checks."""
    if not isinstance(x, (list, tuple)) and isinstance(x, _NOT_SEQUENCES):
        raise TypeError(f"expected a sequence of {of}, got {type(x).__name__}")
    return x


# a canonical rational "p" or "p/q": what str(Fraction) writes, and all
# that the constructor needs to parse it
_CANONICAL = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")
# a trailing decimal exponent, which Fraction(str) raises ten to before any check
_EXPONENT = re.compile(r"[eE][-+]?(\d+)\s*\Z")


def _frac(x) -> Fraction:
    # the canonical string first: what parsed JSON holds, and no str is a
    # Fraction, whose isinstance test goes through the ABC machinery
    if isinstance(x, str) and (m := _CANONICAL.fullmatch(x)):
        # lowest terms or not, p/q is 0 or 1 exactly when p is 0 or q, so the
        # two interned values need no Fraction
        p, q = m.groups()
        p = int(p)
        q = int(q) if q else 1
        if not p:
            return _ZERO
        return _ONE if p == q else Fraction(p, q)
    if isinstance(x, Fraction):
        f = x
    elif isinstance(x, (int, str)) and not isinstance(x, bool):
        if isinstance(x, str):
            if "_" in x:
                # Fraction reads underscores between digits from Python 3.11 on and
                # 3.10 refuses them: refused everywhere, with 3.10's message, a
                # file gets one verdict on every version
                raise ValueError(f"Invalid literal for Fraction: {x!r}")
            if m := _EXPONENT.search(x):
                # refuse an exponent past the int digit limit, as int() refuses that
                # many digits (0: no limit)
                limit = sys.get_int_max_str_digits()
                digits = m[1].lstrip("0")  # may be too long for int()
                if limit and (len(digits) > len(str(limit)) or int(digits or 0) > limit):
                    raise ValueError(f"entry exponent past the {limit}-digit integer limit")
        f = Fraction(x)
    else:
        raise TypeError(f"expected an exact rational entry, got {type(x).__name__}")
    # intern the two most common values: the constructor drops zeros by
    # identity, and tuple comparisons hit the identity fast path
    if not f:
        return _ZERO
    if f == 1:
        return _ONE
    return f


RatVector = tuple[Fraction, ...]
# a stored row: (col, value) pairs, columns ascending, no zero values
SparseRow = tuple[tuple[int, Fraction], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vec(entries: Iterable) -> RatVector:
    """Coerce a sequence of ints/strings/Fractions to an exact vector.

    A tuple of Fractions is already one and is returned as it is, after one
    C-level pass over its entries' types; anything else is parsed entry by
    entry, and booleans and floats are refused."""
    if type(entries) is tuple and set(map(type, entries)) <= {Fraction}:
        return entries
    return tuple(map(_frac, _sequence(entries, "entries")))


def zero_vec(n: int) -> RatVector:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (_ZERO,) * n


def _vec_add(u: RatVector, v: RatVector) -> RatVector:
    """u + v, which is u itself when v is zero.  ``count`` compares by identity
    first, so a vector of interned zeros is recognized without a Fraction call."""
    if v.count(_ZERO) == len(v):
        return u
    return tuple((a + b) if b else a for a, b in zip(u, v))


def _json_object(data, name: str) -> dict:
    """``data``, which must be a JSON object: a list or a string indexed by a
    field name fails with Python's message, which names no rule."""
    if not isinstance(data, dict):
        raise TypeError(f"{name} must be a JSON object")
    return data


def _json_int(data: dict, key: str) -> int:
    """``data[key]``, which must be a JSON integer.  A size compared with an
    int accepts 6.0 and True as well, since 6 == 6.0 and 1 == True."""
    x = data[key]
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{key} must be a JSON integer, got {type(x).__name__}")
    return x


class _Parsed(dict):
    """Memo of parsed string entries, for one constructor call or one JSON
    document (a process's forms, vectors, phi and readout share one).

    Parsed JSON grids repeat a few strings thousands of times, and a hit is
    one C-level lookup.  Only strings are stored: True == 1 == 1.0 share a
    hash, and a memo keyed on raw values would let booleans and floats
    through on the strength of an equal entry seen earlier.
    """

    def __missing__(self, x) -> Fraction:
        f = _frac(x)
        if type(x) is str:
            self[x] = f
        return f


def _densify(row: SparseRow, cols: int) -> list[Fraction]:
    out = [_ZERO] * cols
    for j, x in row:
        out[j] = x
    return out


def _transpose(rows: Sequence[SparseRow], cols: int) -> tuple[SparseRow, ...]:
    """Stored rows of the transpose: each entry scattered to its column's
    row, which comes out in ascending row order (Gustavson, ACM TOMS 4, 1978)."""
    out: list[list] = [[] for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row:
            out[j].append((i, x))
    return tuple(map(tuple, out))


def _combine(a: SparseRow, b: SparseRow) -> SparseRow:
    """The stored row of a + b."""
    if not b:
        return a
    if not a:
        return b
    acc = dict(a)
    for j, x in b:
        acc[j] = acc[j] + x if j in acc else x
    return tuple(sorted((j, x) for j, x in acc.items() if x))


# -- integer kernels ---------------------------------------------------------
#
# An integer row is (den, ((col, num), ...)): the row's entries are num / den
# at the listed columns (ascending, nonzero nums) and zero elsewhere, with den
# the lcm of the entries' denominators.  Dense integer rows (plain lists)
# carry no denominator: the elimination kernels only need each row up to a
# nonzero factor.


def _int_row(row: SparseRow) -> tuple[int, tuple[tuple[int, int], ...]]:
    ratios = [x.as_integer_ratio() for _, x in row]
    den = math.lcm(*[d for _, d in ratios])
    if den == 1:
        return 1, tuple((j, p) for (j, _), (p, _) in zip(row, ratios))
    return den, tuple((j, p * (den // d)) for (j, _), (p, d) in zip(row, ratios))


def _int_rows(m: "RatMatrix") -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    return [_int_row(row) for row in m._nz]


def _fraction_row(den: int, nums: Iterable[tuple[int, int]]) -> SparseRow:
    """The stored row with entries num / den, zero numerators dropped."""
    return tuple((j, Fraction(v, den)) for j, v in nums if v)


def _scatter(terms, lo: int, cols: int) -> tuple[tuple[int, int], ...]:
    """The stored integer row of the sum of a * b over the terms ``(a, b)``,
    with b a stored integer row whose entries all lie in columns lo to
    cols - 1.  One term is b scaled; several accumulate in a dense row of
    which only columns lo onward are read back."""
    terms = [t for t in terms if t[1]]
    if not terms:
        return ()
    if len(terms) == 1:
        [(a, b)] = terms
        return tuple((j, a * v) for j, v in b)
    acc = [0] * cols
    for a, b in terms:
        for j, v in b:
            acc[j] += a * v
    return tuple((j, acc[j]) for j in compress(range(lo, cols), acc[lo:]))


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


# the largest prime below 2^15: residues and their products stay machine-sized
_P = 32749


@_paused
def _full_rank_mod_p(m: "RatMatrix") -> bool:
    """Whether the square matrix m has full rank modulo _P, a certificate
    that it has full rank over Q.

    Each integer row is the row of m times a nonzero denominator, so the
    integer matrix has m's rank over Q, and its rank mod _P is no larger: a
    minor that is nonzero mod _P is a nonzero integer.  False is no verdict,
    as the determinant may be a nonzero multiple of _P; the caller then
    falls back to the exact ``rank``."""
    n = m.cols
    rows = []
    for _, nz in _int_rows(m):
        row = [0] * n
        for j, v in nz:
            row[j] = v % _P
        rows.append(row)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        # the rows below the pivot are zero before column c
        below = [row for row in rows[c + 1 :] if row[c]]
        if below:
            inv = pow(rows[c][c], -1, _P)
            tail = rows[c][c + 1 :]
            for row in below:
                f = row[c] * inv % _P
                row[c + 1 :] = [(a - f * b) % _P for a, b in zip(row[c + 1 :], tail)]
    return True


class RatMatrix:
    """Immutable matrix of exact rationals, stored by row as its nonzeros.

    Each stored row is a tuple of ``(col, Fraction)`` pairs with ascending
    columns and no zero values, one representation for every matrix, so
    equal matrices store equal rows.  Work that walks the entries (parsing
    aside, which reads every entry it is given) costs one step per nonzero:
    the big block-sparse matrices built by the cloning constructors
    (hundreds of rows, a handful of nonzeros per row) stay cheap.  Products,
    elimination and the Darboux basis read the stored nonzeros per call as
    integer rows (per row, the lcm of its denominators and the integer
    numerators), so dense matrices with large entries cost one integer
    operation per step where a ``Fraction`` would take a gcd.  ``row``,
    ``tolist``, ``m[i, j]`` and ``to_json`` give dense results.  The
    constructor takes a dense grid, skips its literal "0" strings unparsed
    and parses each other distinct string entry once per call.
    """

    __slots__ = ("rows", "cols", "_nz")

    def __init__(self, entries: Sequence[Sequence]):
        self._nz, self.cols = _parse_grid(entries, _Parsed())
        self.rows = len(self._nz)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, nz: tuple[SparseRow, ...], cols: int) -> "RatMatrix":
        # internal fast path: the rows are already stored rows
        m = cls.__new__(cls)
        m._nz = nz
        m.rows = len(nz)
        m.cols = cols
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("dimensions must be nonnegative")
        return cls._raw(((),) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        if n < 0:
            raise ValueError("n must be nonnegative")
        return cls._raw(tuple(((i, _ONE),) for i in range(n)), n)

    @classmethod
    def block_diag(cls, *blocks: "RatMatrix") -> "RatMatrix":
        rows = []
        c = 0
        for b in blocks:
            rows += b._nz if not c else [tuple((j + c, x) for j, x in row) for row in b._nz]
            c += b.cols
        return cls._raw(tuple(rows), c)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        row = self._nz[i]
        if j < 0:
            j += self.cols
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        k = bisect_left(row, j, key=itemgetter(0))
        return row[k][1] if k < len(row) and row[k][0] == j else _ZERO

    def row(self, i: int) -> RatVector:
        return tuple(_densify(self._nz[i], self.cols))

    def tolist(self) -> list[list[Fraction]]:
        return [_densify(row, self.cols) for row in self._nz]

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.cols == other.cols and self._nz == other._nz

    def __hash__(self):
        return hash((self.cols, self._nz))

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._raw(tuple(tuple((j, -x) for j, x in row) for row in self._nz), self.cols)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return RatMatrix._raw(tuple(map(_combine, self._nz, other._nz)), self.cols)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"cannot subtract {other.shape} from {self.shape}")
        return self + -other

    @_paused
    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        if not (self.cols and other.cols):
            return RatMatrix.zeros(self.rows, other.cols)
        # row by row (Gustavson), on integer rows: an output row's denominator
        # is the A row's times the lcm of the B rows it touches
        brows = _int_rows(other)
        out = []
        for den, anz in _int_rows(self):
            terms = [(a, brows[k]) for k, a in anz if brows[k][1]]
            lcm = math.lcm(*[db for _, (db, _) in terms])
            nums = _scatter([(a * (lcm // db), b) for a, (db, b) in terms], 0, other.cols)
            out.append(_fraction_row(den * lcm, nums))
        return RatMatrix._raw(tuple(out), other.cols)

    def apply(self, v: Sequence) -> RatVector:
        """self . v, with v coerced by ``vec``: an exact vector is used as it is."""
        v = vec(v)
        if len(v) != self.cols:
            raise ShapeError(f"cannot apply {self.shape} to a vector of length {len(v)}")
        # parsed zeros, zero_vec and rows with no terms here are the interned
        # _ZERO, so an identity test finds the support; an uninterned zero
        # that gets in only adds 0
        support = {j: x for j, x in enumerate(v) if x is not _ZERO}
        if not support:
            return (_ZERO,) * self.rows
        out = []
        for row in self._nz:
            acc = _ZERO
            for j, x in row:
                y = support.get(j)
                if y is not None:
                    acc = x * y if acc is _ZERO else acc + x * y
            out.append(acc)
        return tuple(out)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def T(self) -> "RatMatrix":
        return RatMatrix._raw(_transpose(self._nz, self.cols), self.rows)

    def is_zero(self) -> bool:
        return not any(self._nz)

    def max_abs(self) -> Fraction:
        """Largest absolute entry; 0 for the empty matrix."""
        return max((abs(x) for row in self._nz for _, x in row), default=_ZERO)

    # -- elimination -------------------------------------------------------

    @_paused
    def rref(self) -> tuple["RatMatrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        m = _dense(_int_rows(self), self.cols)
        pivots = _forward(m, self.cols)
        _back(m, pivots)
        red = [_fraction_row(m[r][c], enumerate(m[r])) for r, c in enumerate(pivots)]
        red += [()] * (self.rows - len(pivots))
        return RatMatrix._raw(tuple(red), self.cols), pivots

    @_paused
    def rank(self) -> int:
        return len(_forward(_dense(_int_rows(self), self.cols), self.cols))

    def inverse(self) -> "RatMatrix":
        """The inverse: the right half of ``rref()`` on [A | I].  Raises
        DegenerateFormError when A is singular."""
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        n = self.rows
        red, pivots = RatMatrix._raw(
            tuple(row + ((n + i, _ONE),) for i, row in enumerate(self._nz)), 2 * n
        ).rref()
        if pivots[:n] != list(range(n)):
            raise DegenerateFormError("matrix is singular")
        # row r of the left half is e_r, its only entry before column n
        return RatMatrix._raw(tuple(tuple((j - n, x) for j, x in row[1:]) for row in red._nz), n)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for nz in self._nz:
            row = ["0"] * self.cols
            for j, x in nz:
                row[j] = str(x)
            entries.append(row)
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    @classmethod
    def from_json(cls, data: dict) -> "RatMatrix":
        return _matrix_from_json(data, _Parsed())

    def __repr__(self):
        return f"RatMatrix({[[str(x) for x in row] for row in self.tolist()]})"


@_paused
def _parse_grid(entries: Sequence[Sequence], parsed: _Parsed) -> tuple[tuple[SparseRow, ...], int]:
    """The stored rows and the column count of a dense grid, each distinct
    string entry parsed once through the memo ``parsed``.  A literal "0",
    most of a sparse grid, is skipped by one C-level comparison per entry;
    any other zero parses to the interned _ZERO and is dropped by identity."""
    rows = []
    widths = []
    entry = parsed.__getitem__
    for row in _sequence(entries, "rows"):
        row = tuple(_sequence(row, "entries"))
        widths.append(len(row))
        try:
            # operator.ne, not "0".__ne__, whose NotImplemented on other types
            # would be read as true
            at = list(compress(range(len(row)), map(ne, row, repeat("0"))))
            values = map(entry, map(row.__getitem__, at))
            rows.append(tuple([(j, x) for j, x in zip(at, values) if x is not _ZERO]))
        except (TypeError, ValueError):
            # an unhashable entry (a nested list, say) fails the memo lookup,
            # and an entry may fail its comparison with "0"; parsing the row
            # entry by entry raises for its first bad entry
            rows.append(tuple([(j, x) for j, x in enumerate(map(_frac, row)) if x is not _ZERO]))
    cols = widths[0] if widths else 0
    if any(w != cols for w in widths):
        raise ShapeError("ragged rows")
    return tuple(rows), cols


def _matrix_from_json(data: dict, parsed: _Parsed, name: str = "matrix") -> RatMatrix:
    """``RatMatrix.from_json(data)``, parsing string entries through ``parsed``;
    ``name`` is the field that holds ``data``."""
    entries = _json_object(data, name)["entries"]
    # a JSON string or object is iterable too, and would parse as a row
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise TypeError("matrix entries must be a JSON list of lists")
    rows, cols = _json_int(data, "rows"), _json_int(data, "cols")
    # with no rows, cols are only recoverable from the header; a negative
    # count fails the shape check below
    m = RatMatrix._raw(*(_parse_grid(entries, parsed) if entries else ((), max(cols, 0))))
    if (m.rows, m.cols) != (rows, cols):
        raise ShapeError("entry grid does not match declared rows/cols")
    return m


def _entries(v: Sequence, parsed: _Parsed) -> RatVector:
    """``vec(v)`` for a list, parsing string entries through ``parsed``."""
    try:
        return tuple(map(parsed.__getitem__, v))
    except TypeError:
        # an unhashable entry fails the memo lookup; parsing without it
        # names the entry's type
        return tuple(map(_frac, v))


def _is_skew(m: RatMatrix) -> bool:
    """Whether the square matrix m equals -m^T: each stored column, negated,
    is the stored row of the same index, compared by column, numerator and
    denominator, so no negated entry is built."""
    for row, col in zip(m._nz, _transpose(m._nz, m.cols)):
        if len(row) != len(col):
            return False
        for (j, x), (k, y) in zip(row, col):
            p, q = x.as_integer_ratio()
            r, s = y.as_integer_ratio()
            if j != k or p != -r or q != s:
                return False
    return True


class SkewForm:
    """A nondegenerate skew-symmetric rational form on an even-dimensional space.

    Construction rejects odd dimension, asymmetric matrices, and degenerate
    (rank-deficient) matrices eagerly.  Nondegeneracy is certified by full
    rank modulo the prime 32749; a matrix short of it there is ranked
    exactly, so a form whose determinant is a nonzero multiple of 32749 is
    accepted too, only more slowly.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix: RatMatrix):
        if matrix.rows != matrix.cols:
            raise ShapeError("a bilinear form needs a square matrix")
        if matrix.rows % 2 != 0:
            raise DegenerateFormError("skew forms on odd-dimensional spaces are degenerate")
        if not _is_skew(matrix):
            raise ValueError("matrix is not skew-symmetric")
        if matrix.rows and not _full_rank_mod_p(matrix) and matrix.rank() != matrix.rows:
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
        return _form_from_json(data, _Parsed())

    def __repr__(self):
        return f"SkewForm(dim={self.dim})"


def _form_from_json(data: dict, parsed: _Parsed, name: str = "form") -> SkewForm:
    """``SkewForm.from_json(data)``, parsing string entries through ``parsed``;
    ``name`` is the field that holds ``data``."""
    form = SkewForm(_matrix_from_json(data, parsed, name))
    if form.dim != _json_int(data, "dim"):
        raise ShapeError("declared dim does not match matrix size")
    return form


def standard_form(n: int) -> SkewForm:
    """Block-diagonal form with n copies of the standard 2x2 block [[0,1],[-1,0]]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    block = RatMatrix([[0, 1], [-1, 0]])
    return SkewForm._trusted(RatMatrix.block_diag(*([block] * n)))


def direct_sum(a: SkewForm, b: SkewForm) -> SkewForm:
    """Form of the product space: block diagonal of the two form matrices."""
    return SkewForm._trusted(RatMatrix.block_diag(a.matrix, b.matrix))


def _form_blocks(nz: Sequence[SparseRow]) -> list[range]:
    """The contiguous diagonal blocks of a skew matrix, as row ranges: a
    block ends at row k when no entry of rows <= k lies past column k, so
    coupling that is not contiguous merges blocks, which stays exact."""
    blocks = []
    lo = reach = 0
    for k, row in enumerate(nz):
        if row and row[-1][0] > reach:
            reach = row[-1][0]
        if reach <= k:
            blocks.append(range(lo, k + 1))
            lo = k + 1
    return blocks


def _block_scales(rows, block: range) -> tuple[dict[int, int], list[int] | None]:
    """The column scales of the rows of S in a block of form_out (each
    column's lcm of denominators, where it is not 1), and their row scales
    (each row's lcm) if those put fewer bits on the entries, else None."""
    cs: dict[int, int] = {}
    for k in block:
        for j, (_, d) in rows[k]:
            if d > 1 and (c := cs.get(j, 1)) % d:
                cs[j] = math.lcm(c, d)
    if not cs:
        return cs, None
    bits = sum(cs.get(j, 1).bit_length() for k in block for j, _ in rows[k])
    rs = []
    for k in block:
        r = math.lcm(*[d for _, (_, d) in rows[k]])
        bits -= len(rows[k]) * r.bit_length()
        if bits <= 0:
            return cs, None
        rs.append(r)
    return cs, rs


@_paused
def symplectic_defect(S: RatMatrix, form_in: SkewForm, form_out: SkewForm) -> RatMatrix:
    """Exact residual S^T . form_out . S - form_in; zero iff S is symplectic.

    The residual of a map between skew forms is skew, so only its strict
    upper triangle U is computed, and the result is U - U^T.  The forms must
    therefore be skew, which ``SkewForm(...)`` and ``SkewForm.from_json``
    check; only the unchecked ``SkewForm._trusted`` can break it.

    The kernel runs on integers scaled by blocks.  S^T . form_out . S is the
    sum of S_b^T . W_b . S_b over the contiguous diagonal blocks W_b of
    form_out, S_b being the rows of S in block b.  Each block's rows are
    scaled by column (per column, the lcm of the block's denominators) or
    each by its own lcm, whichever puts fewer bits on its entries.  The
    column-scaled rows share one scale c_j per column and one form
    denominator D, so their part of entry (i, j) is an integer over
    D c_i c_j; the row-scaled rows share one denominator L with form_in.
    Each entry of U is one integer over D c_i c_j L, made a ``Fraction``
    only when it is not zero.
    """
    if S.cols != form_in.dim or S.rows != form_out.dim:
        raise ShapeError(
            f"map {S.shape} does not match forms of dim {form_in.dim} -> {form_out.dim}"
        )
    n = S.cols
    rows = [[(j, x.as_integer_ratio()) for j, x in row] for row in S._nz]
    scale = [1] * n  # c_j
    rscale = [0] * S.rows  # each row-scaled row's scale, 0 for the others
    for block in _form_blocks(form_out.matrix._nz):
        cs, rs = _block_scales(rows, block)
        if rs:
            rscale[block.start : block.stop] = rs
            continue
        for j, c in cs.items():
            if scale[j] % c:
                scale[j] = math.lcm(scale[j], c)
    wrows = _int_rows(form_out.matrix)
    frows = wrows if form_in.matrix is form_out.matrix else _int_rows(form_in.matrix)
    dcol = math.lcm(*[q for (q, _), r in zip(wrows, rscale) if not r])  # D
    drow = math.lcm(  # L
        *[q for q, _ in frows],
        *[q * r * rscale[l] for (q, w), r in zip(wrows, rscale) if r for l, _ in w],
    )
    ints = [
        tuple((j, p * ((r or scale[j]) // d)) for j, (p, d) in row) for row, r in zip(rows, rscale)
    ]
    # row k of form_out . ints: over D for a column-scaled row; over L and
    # with entry j times c_j for a row-scaled one
    pushed = []
    for (q, w), r in zip(wrows, rscale):
        if r:
            row = _scatter([(v * (drow // (q * r * rscale[l])), ints[l]) for l, v in w], 0, n)
            pushed.append(tuple((j, v * scale[j]) for j, v in row))
        else:
            pushed.append(_scatter([(v * (dcol // q), ints[l]) for l, v in w], 0, n))
    # row i of U times D c_i c_j L: the pushed rows past column i weighted by
    # column i of ints (times L for a column-scaled row, D c_i for a
    # row-scaled one), minus form_in's row past column i
    upper = []
    for i, (col, (q, f)) in enumerate(zip(_transpose(ints, n), frows)):
        e = dcol * scale[i]
        past = (i + 1,)
        terms = [(a * (e if rscale[k] else drow), _from(pushed[k], past)) for k, a in col]
        f = _from(f, past)
        if f:
            terms.append((-e * (drow // q), tuple((j, v * scale[j]) for j, v in f)))
        upper.append(
            tuple((j, Fraction(v, e * scale[j] * drow)) for j, v in _scatter(terms, i + 1, n))
        )
    lower = _transpose(upper, n)
    return RatMatrix._raw(
        tuple(tuple((j, -x) for j, x in low) + up for low, up in zip(lower, upper)), n
    )


def _from(row, key: tuple[int]):
    """A stored row's entries from column key[0] on."""
    return row[bisect_left(row, key) :]


def is_symplectic_map(S: RatMatrix, form_in: SkewForm, form_out: SkewForm) -> bool:
    """True iff S pulls form_out back to form_in exactly."""
    return symplectic_defect(S, form_in, form_out).is_zero()


def darboux_basis(form: SkewForm) -> RatMatrix:
    """Rational symplectic Gram-Schmidt.

    Returns an invertible P with P^T . form.matrix . P equal to the matrix of
    ``standard_form(dim/2)``, exactly.  The output is one valid choice, not a
    canonical one; verify with the pullback identity rather than comparing P.
    """
    return _darboux(form)[0]


@_paused
def _darboux(form: SkewForm) -> tuple[RatMatrix, RatMatrix]:
    """``darboux_basis(form)`` and P^T . form.matrix, from one walk.

    The walk applies omega to every basis vector it emits, and row c of
    P^T omega is -(omega p_c)^T since omega is skew, so the second matrix
    costs no product.
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
    # (scale, u, omega u) of each column of P
    columns: list[tuple[Fraction, list[int], list[int]]] = []
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
        wf = apply(uf)
        columns += [(se, ue, we), (sf, uf, wf)]
        # v - pair(v, f) e + pair(v, e) f
        #   = v.scale * (v.u + t (dot(v.u, omega e.u) f.u - dot(v.u, omega f.u) e.u))
        tn, td = (se * sf / den).as_integer_ratio()  # t = tn / td
        projected = []
        for (sv, uv), b in zip(remaining, along_e):
            a = sum(map(mul, uv, wf))
            if not a and not b:
                projected.append((sv, uv))
                continue
            tb, ta = tn * b, tn * a
            w = [td * x + tb * y - ta * z for x, y, z in zip(uv, uf, ue)]
            g = math.gcd(*w)
            projected.append((sv * Fraction(g, td), [x // g for x in w]))
        remaining = projected
    cols = [_scaled_row(s, u) for s, u, _ in columns]
    # omega p_c = s_c (omega u_c) / den, so row c of P^T omega is -s_c / den
    # times omega u_c
    pt_omega = tuple(_scaled_row(-s / den, w) for s, _, w in columns)
    return RatMatrix._raw(_transpose(cols, n), n), RatMatrix._raw(pt_omega, n)


def _scaled_row(s: Fraction, u: list[int]) -> SparseRow:
    """The stored row of s times the dense integer row u."""
    p, q = s.as_integer_ratio()
    return _fraction_row(q, [(j, p * x) for j, x in enumerate(u)])


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
