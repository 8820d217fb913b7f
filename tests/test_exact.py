import gc
import json
import math
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symclone import classical, exact
from symclone import (
    CloningProcess,
    DegenerateFormError,
    basic_cloner,
    check_cloning_diagram,
    defect_floor,
    diagram_from_process,
    general_cloner,
    mirror_cloner,
    readout_solver,
    standard_cloner,
    RatMatrix,
    ShapeError,
    SkewForm,
    darboux_basis,
    direct_sum,
    form_kernel,
    is_symplectic_map,
    size_witness,
    standard_form,
    symplectic_defect,
    vec,
    verify_cloning,
    zero_vec,
)
from symclone.exact import (
    _ONE,
    _P,
    _ZERO,
    _block_scales,
    _darboux,
    _form_blocks,
    _frac,
    _from_coprime,
    _full_rank_mod_p,
    _is_skew,
    _ratio,
)
from conftest import kernel_examples, random_skew_form
import oracles

J2 = RatMatrix([[0, 1], [-1, 0]])


class TestStandardForm:
    def test_n1_is_the_single_block(self):
        assert standard_form(1).matrix == J2

    def test_n0_is_empty(self):
        f = standard_form(0)
        assert f.dim == 0
        assert f.matrix.shape == (0, 0)

    def test_n2_is_block_diagonal(self):
        assert standard_form(2).matrix == RatMatrix.block_diag(J2, J2)

    @pytest.mark.parametrize("n", range(7))
    def test_square_is_minus_identity_and_transpose_is_negation(self, n):
        j = standard_form(n).matrix
        assert j @ j == -RatMatrix.identity(2 * n)
        assert j.T == -j


class TestNegativeSizes:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: RatMatrix.zeros(2, -5),
            lambda: RatMatrix.zeros(-1, 3),
            lambda: RatMatrix.identity(-3),
            lambda: RatMatrix.block_diag(RatMatrix.identity(-3), RatMatrix.identity(2)),
            lambda: zero_vec(-2),
            lambda: standard_form(-1),
            lambda: standard_cloner(-1),
        ],
        ids=["zeros cols", "zeros rows", "identity", "block_diag", "zero_vec", "standard_form", "standard_cloner"],
    )
    def test_a_negative_size_is_refused(self, build):
        with pytest.raises(ValueError, match="must be nonnegative"):
            build()

    def test_size_zero_is_empty(self):
        assert RatMatrix.zeros(2, 0).shape == (2, 0) and RatMatrix.zeros(0, 3).shape == (0, 3)
        assert RatMatrix.identity(0).shape == (0, 0)
        assert zero_vec(0) == ()


class TestShapeGuards:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: RatMatrix.identity(2) + RatMatrix.zeros(2, 3), "cannot add (2, 2) and (2, 3)"),
            (lambda: RatMatrix.identity(2) - RatMatrix.zeros(3, 2), "cannot subtract (3, 2) from (2, 2)"),
            (lambda: RatMatrix.identity(2).apply([1, 2, 3]), "cannot apply (2, 2) to a vector of length 3"),
            (lambda: RatMatrix.zeros(2, 3).inverse(), "inverse of a non-square matrix"),
            (lambda: SkewForm(RatMatrix.zeros(2, 4)), "a bilinear form needs a square matrix"),
        ],
        ids=["add", "subtract", "apply", "inverse", "SkewForm"],
    )
    def test_a_mismatched_shape_is_refused(self, call, message):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            call()


class TestDirectSum:
    def test_triple_sum_gives_the_six_dim_product_form(self):
        j = standard_form(1)
        xi = direct_sum(direct_sum(j, j), j)
        expected = RatMatrix(
            [
                [0, 1, 0, 0, 0, 0],
                [-1, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0],
                [0, 0, -1, 0, 0, 0],
                [0, 0, 0, 0, 0, 1],
                [0, 0, 0, 0, -1, 0],
            ]
        )
        assert xi.matrix == expected

    def test_empty_is_the_unit(self):
        j = standard_form(2)
        assert direct_sum(j, standard_form(0)) == j
        assert direct_sum(standard_form(0), j) == j

    def test_scaled_block_with_standard_block(self):
        scaled = SkewForm(RatMatrix([[0, 2], [-2, 0]]))
        s = direct_sum(scaled, standard_form(1))
        assert s.dim == 4
        assert s.matrix[0, 1] == 2
        assert s.matrix[2, 3] == 1
        assert s.matrix[0, 3] == 0


class TestSkewFormValidation:
    def test_odd_dimension_rejected(self):
        with pytest.raises(DegenerateFormError):
            SkewForm(RatMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFormError):
            SkewForm(RatMatrix.zeros(2, 2))

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            SkewForm(RatMatrix.identity(2))


def _skew(rng: random.Random, dim: int, entry) -> list[list]:
    """A dense skew grid with strict upper triangle drawn by ``entry(rng)``."""
    grid = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            grid[i][j] = entry(rng)
            grid[j][i] = -grid[i][j]
    return grid


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def _low_rank(rng: random.Random, dim: int) -> list[list[int]]:
    """X^T J X for an integer 2r x dim matrix X with 2r < dim: skew, and of
    rank at most 2r, so degenerate."""
    r = rng.randrange(dim // 2)
    x = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(2 * r)]
    if not r:
        return [[0] * dim for _ in range(dim)]
    return (RatMatrix(x).T @ standard_form(r).matrix @ RatMatrix(x)).tolist()


@st.composite
def certificate_cases(draw):
    """Skew grids of dim 2 to 8 that reach both sides of the certificate:
    random rational forms, forms with coordinates scaled up or down by the
    prime (nondegeneracy over Q unchanged, mod p lost for a scaled-up one),
    low-rank forms, and low-rank forms plus p times a random skew form
    (congruent to a degenerate form mod p, mostly nondegenerate over Q)."""
    dim = draw(st.sampled_from([2, 4, 6, 8]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "scaled", "divided", "low rank", "lifted"]))
    if kind == "low rank":
        return _low_rank(rng, dim)
    if kind == "lifted":
        low = _low_rank(rng, dim)
        lift = _skew(rng, dim, lambda r: _P * r.randint(-3, 3))
        return [[a + b for a, b in zip(x, y)] for x, y in zip(low, lift)]
    grid = _skew(rng, dim, _small)
    if kind in ("scaled", "divided"):
        # D grid D with D diagonal, entries 1 or p (or 1/p)
        d = [rng.choice([1, _P]) for _ in range(dim)]
        if kind == "divided":
            d = [Fraction(1, x) for x in d]
        grid = [[x * d[i] * d[j] for j, x in enumerate(row)] for i, row in enumerate(grid)]
    return grid


class TestNondegeneracyCertificate:
    """SkewForm checks nondegeneracy modulo the prime 32749 first and falls
    back to the exact rank only when the rank mod p is short."""

    @pytest.fixture
    def rank_calls(self, monkeypatch):
        """The list of matrices whose exact ``rank`` is computed from here on."""
        calls = []
        rank = RatMatrix.rank

        def counting_rank(m):
            calls.append(m)
            return rank(m)

        monkeypatch.setattr(RatMatrix, "rank", counting_rank)
        return calls

    @given(certificate_cases())
    @example([[0, _P], [-_P, 0]])
    @example([[0, 0], [0, 0]])
    @settings(max_examples=kernel_examples(200), deadline=None)
    def test_accepts_exactly_what_the_exact_rank_accepts(self, grid):
        m = RatMatrix(grid)
        full = m.rank() == m.rows
        if _full_rank_mod_p(m):
            assert full  # the certificate is sound
        if full:
            assert SkewForm(m).matrix == m
        else:
            with pytest.raises(DegenerateFormError, match="^form matrix is singular$"):
                SkewForm(m)

    @pytest.mark.parametrize(
        "grid",
        [
            [[0, _P], [-_P, 0]],
            # Pfaffian 1 * 32754 - 2 * 3 + 1 * 1 = 32749: det = Pf^2 != 0,
            # but 0 mod p, with no entry divisible by p
            [[0, 1, 2, 1], [-1, 0, 1, 3], [-2, -1, 0, 32754], [-1, -3, -32754, 0]],
        ],
        ids=["p J", "Pfaffian p"],
    )
    def test_a_form_singular_mod_p_is_accepted_through_the_fallback(self, grid, rank_calls):
        m = RatMatrix(grid)
        assert not _full_rank_mod_p(m)
        assert SkewForm(m).dim == m.rows
        assert rank_calls == [m]

    @pytest.mark.parametrize(
        "grid",
        [
            [[0, 0], [0, 0]],
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, _P, 0, 0], [-_P, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 1, 1, 1], [-1, 0, 1, 1], [-1, -1, 0, 0], [-1, -1, 0, 0]],
        ],
        ids=["zero", "one block", "p block", "repeated row"],
    )
    def test_degenerate_forms_are_refused_with_the_same_message(self, grid, rank_calls):
        with pytest.raises(DegenerateFormError, match="^form matrix is singular$"):
            SkewForm(RatMatrix(grid))
        assert len(rank_calls) == 1

    def test_random_forms_take_no_exact_rank(self, rank_calls):
        rng = random.Random(27)
        forms = [random_skew_form(dim, rng).matrix for dim in range(2, 33, 2) for _ in range(3)]
        del rank_calls[:]  # random_skew_form ranks its draws itself
        for m in forms:
            assert SkewForm(m).matrix is m
        assert rank_calls == []

    def test_from_json_takes_no_exact_rank(self, rank_calls):
        process = general_cloner(random_skew_form(16, random.Random(16)))
        doc = json.loads(json.dumps(process.to_json()))
        del rank_calls[:]
        assert CloningProcess.from_json(doc) == process
        assert rank_calls == []


class TestSymplecticMap:
    def test_identity_preserves_any_form(self):
        rng = random.Random(3)
        for dim in (2, 4, 6):
            f = random_skew_form(dim, rng)
            assert is_symplectic_map(RatMatrix.identity(dim), f, f)

    def test_doubling_map_fails_with_exact_defect(self):
        s = RatMatrix([[2, 0], [0, 2]])
        j = standard_form(1)
        assert not is_symplectic_map(s, j, j)
        assert symplectic_defect(s, j, j) == RatMatrix([[0, 3], [-3, 0]])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            is_symplectic_map(RatMatrix.identity(3), standard_form(1), standard_form(2))

    def test_composition_closure(self):
        j = standard_form(1)
        s1 = RatMatrix([[1, 1], [0, 1]])  # shear, symplectic in dim 2
        s2 = RatMatrix([[1, 0], [-2, 1]])
        assert is_symplectic_map(s1, j, j) and is_symplectic_map(s2, j, j)
        assert is_symplectic_map(s2 @ s1, j, j)

    def test_symplectic_maps_have_determinant_one(self):
        from symclone import basic_cloner, general_cloner, product_cloner

        rng = random.Random(11)
        candidates = [basic_cloner().phi, product_cloner(basic_cloner(), basic_cloner()).phi]
        for dim in (2, 4):
            candidates.append(general_cloner(random_skew_form(dim, rng)).phi)
        for phi in candidates:
            assert phi.rows <= 12
            assert oracles.det(phi) == Fraction(1)


class TestDarboux:
    def test_standard_form_normalizes_trivially(self):
        p = darboux_basis(standard_form(1))
        assert is_symplectic_map(p, standard_form(1), standard_form(1))

    def test_scaled_block(self):
        omega = SkewForm(RatMatrix([[0, 2], [-2, 0]]))
        # the stated normalizer diag(1, 1/2) works...
        stated = RatMatrix([["1", "0"], ["0", "1/2"]])
        assert is_symplectic_map(stated, standard_form(1), omega)
        # ...and so must ours
        p = darboux_basis(omega)
        assert is_symplectic_map(p, standard_form(1), omega)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fuzzed_forms_normalize_exactly(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            dim = 2 * rng.randint(1, 6)
            f = random_skew_form(dim, rng)
            p = darboux_basis(f)
            assert p.rank() == dim
            assert is_symplectic_map(p, standard_form(dim // 2), f)


@st.composite
def walk_forms(draw):
    """A standard or random form of dim 0 to 6, or the direct sum of two."""
    form = draw(skew_forms())
    if draw(st.booleans()):
        form = direct_sum(form, draw(skew_forms()))
    return form


class TestDarbouxWalk:
    """The walk returns P^T omega beside P, built from the vectors omega u it
    computes anyway; both must equal what products give."""

    @given(walk_forms())
    @example(standard_form(0))
    @example(standard_form(1))
    @example(random_skew_form(2, random.Random(2)))
    @example(direct_sum(standard_form(1), random_skew_form(2, random.Random(4))))
    @settings(max_examples=kernel_examples(100), deadline=None)
    def test_walk_returns_the_basis_and_its_product_with_the_form(self, form):
        p, pt_omega = _darboux(form)
        assert darboux_basis(form) == p
        assert pt_omega == p.T @ form.matrix
        assert pt_omega.shape == (form.dim, form.dim)


class TestFormKernel:
    def test_nondegenerate_has_empty_kernel(self):
        assert form_kernel(J2) == []

    def test_zero_matrix_has_full_kernel(self):
        basis = form_kernel(RatMatrix.zeros(2, 2))
        assert len(basis) == 2

    def test_rank_one_matrix(self):
        basis = form_kernel(RatMatrix([[1, 1], [2, 2]]))
        assert len(basis) == 1
        (v,) = basis
        assert v[0] == -v[1] and v[0] != 0

    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=3, max_size=3),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=60)
    def test_kernel_vectors_annihilate_and_count_matches_rank(self, rows):
        m = RatMatrix(rows)
        basis = form_kernel(m)
        assert len(basis) == m.cols - m.rank()
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


class TestSerialization:
    def test_rat_matrix_round_trip(self):
        m = RatMatrix([["1/2", "-3"], ["0", "7/5"]])
        again = RatMatrix.from_json(m.to_json())
        assert again == m
        assert m.to_json()["entries"][0] == ["1/2", "-3"]

    def test_skew_form_round_trip(self):
        f = standard_form(2)
        data = f.to_json()
        assert data["dim"] == 4
        assert SkewForm.from_json(data) == f

    def test_booleans_are_not_rationals(self):
        with pytest.raises(TypeError, match="bool"):
            vec([True, False])
        with pytest.raises(TypeError, match="bool"):
            RatMatrix.from_json({"rows": 1, "cols": 1, "entries": [[False]]})

    @pytest.mark.parametrize(
        "row", [[1, True], ["1", True], [1, 1.0], ["0", False]], ids=repr
    )
    def test_booleans_and_floats_are_rejected_beside_equal_values(self, row):
        # True == 1 == 1.0 share a hash: the constructor's parse memo must not
        # let them through on the strength of an equal entry seen earlier
        with pytest.raises(TypeError):
            RatMatrix([row])

    def test_apply_and_pair_coerce_their_vectors(self):
        m = RatMatrix([[1, 2], [3, 4]])
        assert m.apply([1, "1/2"]) == (Fraction(2), Fraction(5))
        assert oracles.pair(SkewForm(J2), ["1/2", 0], [0, "3"]) == Fraction(3, 2)
        for bad in ([True, 0], [1.0, 0], [0, False]):
            with pytest.raises(TypeError):
                m.apply(bad)
            with pytest.raises(TypeError):
                oracles.pair(SkewForm(J2), bad, [1, 0])
            with pytest.raises(TypeError):
                oracles.pair(SkewForm(J2), [1, 0], bad)

    def test_vec_returns_an_exact_vector_as_it_is(self):
        exact_vector = (Fraction(1), Fraction(-1, 2), Fraction(0))
        assert vec(exact_vector) is exact_vector
        # a list, a tuple holding an int or a string: each is parsed into a new tuple
        for other in (list(exact_vector), (Fraction(1), 0), ("1/2", Fraction(3))):
            got = vec(other)
            assert got is not other
            assert type(got) is tuple and all(type(x) is Fraction for x in got)
            assert got == tuple(map(Fraction, other))
        for bad in ((Fraction(1), True), (Fraction(1), 0.5)):
            with pytest.raises(TypeError):
                vec(bad)

    def test_zero_denominator_after_repeated_valid_strings(self):
        with pytest.raises(ZeroDivisionError, match=r"^Fraction\(1, 0\)$"):
            RatMatrix([["1/2", "1/2", "0"], ["0", "1/2", "1/0"]])

    @given(
        st.lists(
            st.lists(
                st.sampled_from(["0", "0", "0", "1", "-1", "1/2", "2/4", "-3/6", "-0", " 3", "3"]),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_repeated_strings_parse_like_fraction(self, grid):
        m = RatMatrix(grid)
        assert m.tolist() == [[Fraction(x) for x in row] for row in grid]

    def test_mismatched_declared_shape_rejected(self):
        data = RatMatrix([[1, 2]]).to_json()
        data["rows"] = 2
        with pytest.raises(ShapeError):
            RatMatrix.from_json(data)

    @pytest.mark.parametrize("key", ["rows", "cols", "dim"])
    @pytest.mark.parametrize("value", [2.0, True, "2", None], ids=repr)
    def test_sizes_must_be_json_integers(self, key, value):
        # each equals the true size, or converts to it, so a comparison
        # alone would accept it
        data = standard_form(1).to_json()
        data[key] = value
        with pytest.raises(TypeError, match=f"^{key} must be a JSON integer"):
            SkewForm.from_json(data)
        if key != "dim":
            with pytest.raises(TypeError, match=f"^{key} must be a JSON integer"):
                RatMatrix.from_json(data)

    def test_negative_cols_of_an_empty_matrix_rejected(self):
        with pytest.raises(ShapeError):
            RatMatrix.from_json({"rows": 0, "cols": -3, "entries": []})
        assert RatMatrix.from_json({"rows": 0, "cols": 3, "entries": []}).shape == (0, 3)


# Entries for the kernel-versus-reference tests: zeros, and rationals with
# negative numerators and denominators up to 10^6.
_NONZERO = st.builds(
    Fraction, st.integers(-(10**6), 10**6).filter(bool), st.integers(1, 10**6)
)
RATIONALS = st.one_of(st.just(Fraction(0)), _NONZERO, _NONZERO)


@st.composite
def rat_matrices(draw, rows=None, cols=None):
    """Random rational matrices, 0 to 5 on a side, with zero rows and
    repeated (rescaled) rows mixed in so that rank deficiency is common."""
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    body = []
    for i in range(rows):
        kind = draw(st.sampled_from(("fresh", "fresh", "fresh", "zero", "repeat")))
        if kind == "zero":
            body.append([0] * cols)
        elif kind == "repeat" and i:
            scale = draw(st.sampled_from((1, -1, Fraction(-7, 3))))
            body.append([scale * x for x in body[draw(st.integers(0, i - 1))]])
        else:
            body.append(draw(st.lists(RATIONALS, min_size=cols, max_size=cols)))
    return RatMatrix(body) if rows else RatMatrix.zeros(0, cols)


class TestIntegerKernels:
    """The integer kernels return the same matrices as the Fraction reference."""

    @given(st.data())
    @settings(max_examples=kernel_examples(150), deadline=None)
    def test_matmul_matches_the_reference(self, data):
        a = data.draw(rat_matrices())
        b = data.draw(rat_matrices(rows=a.cols))
        assert a @ b == oracles.matmul(a, b)

    @given(rat_matrices())
    @settings(max_examples=kernel_examples(150), deadline=None)
    def test_rref_and_rank_match_the_reference(self, m):
        red, pivots = m.rref()
        assert (red, pivots) == oracles.rref(m)
        assert m.rank() == len(pivots)

    @given(st.integers(0, 5).flatmap(lambda n: rat_matrices(rows=n, cols=n)))
    @example(oracles.permutation([1, 0, 2]))  # pivoting needs a row swap
    @example(RatMatrix([[0, "1/2", 0], [0, 0, -3], ["5/7", 1, 0]]))
    @settings(max_examples=kernel_examples(150), deadline=None)
    def test_inverse_matches_the_reference(self, m):
        n = m.rows
        # the inverse is the right half of rref([m | I])
        eye = RatMatrix.identity(n)
        red, pivots = oracles.rref(RatMatrix([m.row(i) + eye.row(i) for i in range(n)]))
        if pivots[:n] != list(range(n)):
            with pytest.raises(DegenerateFormError):
                m.inverse()
        else:
            assert m.inverse() == RatMatrix([red.row(i)[n:] for i in range(n)])

    @given(st.integers(0, 2**32), st.sampled_from((2, 4, 6)))
    @settings(max_examples=kernel_examples(40), deadline=None)
    def test_symplectic_defect_matches_the_reference(self, seed, dim):
        rng = random.Random(seed)
        form_in, form_out = random_skew_form(dim, rng), random_skew_form(dim, rng)
        s = RatMatrix(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 10**6)) for _ in range(dim)] for _ in range(dim)]
        )
        assert_skew_defect(s, form_in, form_out)

    def test_symplectic_defect_of_a_map_into_the_zero_space(self):
        # S^T . 0 . S is the zero 2x2 matrix, so the defect is -form_in
        assert symplectic_defect(RatMatrix.zeros(0, 2), standard_form(1), standard_form(0)) == -J2

    @pytest.mark.parametrize("seed", range(3))
    def test_darboux_basis_equals_the_reference(self, seed):
        rng = random.Random(seed)
        for dim in range(0, 13, 2):
            f = random_skew_form(dim, rng)
            assert darboux_basis(f) == oracles.darboux_basis(f)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_transpose_of_an_empty_matrix_swaps_the_shape(self, shape):
        rows, cols = shape
        assert RatMatrix.zeros(rows, cols).T.shape == (cols, rows)

    def test_raw_zero_and_block_diagonal_matrices_multiply(self):
        a = RatMatrix([["1/2", "-3"], ["0", "7/5"]])
        b = RatMatrix([[1, "2/3", 0], [0, "-1/4", 5]])
        cases = [
            (RatMatrix._raw((), 2), b),
            (RatMatrix.zeros(0, 2), b),
            (RatMatrix.zeros(3, 0), RatMatrix.zeros(0, 4)),
            (RatMatrix.zeros(3, 2), b),
            (a, RatMatrix.zeros(2, 0)),
            (RatMatrix.block_diag(a, J2), RatMatrix.block_diag(b, a)),
            (RatMatrix.block_diag(), RatMatrix.zeros(0, 3)),
        ]
        for left, right in cases:
            product = left @ right
            assert product.shape == (left.rows, right.cols)
            assert product == oracles.matmul(left, right)


class TestHighBitKernels:
    """The integer kernels against the reference on a dense phi whose entries
    are hundreds of bits wide: the Darboux-conjugated standard process."""

    @pytest.fixture(scope="class")
    def process(self):
        return oracles.conjugated_cloner(random_skew_form(20, random.Random(20)))

    def test_fixture_is_a_high_bit_cloning_process(self, process):
        entries = [x for row in process.phi.tolist() for x in row]
        assert max(max(abs(x.numerator), x.denominator).bit_length() for x in entries) >= 200
        assert verify_cloning(process).passed

    def test_matmul_matches_the_reference(self, process):
        phi = process.phi
        assert phi @ phi == oracles.matmul(phi, phi)
        assert phi.T @ process.total_form().matrix == oracles.matmul(phi.T, process.total_form().matrix)

    def test_symplectic_defect_matches_the_reference(self, process):
        xi = process.total_form()
        rows = process.phi.tolist()
        rows[3][5] += Fraction(1, 7)
        for phi in (process.phi, RatMatrix(rows)):
            assert_skew_defect(phi, xi, xi)

    def test_verify_reports_the_reference_defect(self, process):
        rows = process.phi.tolist()
        rows[7][2] += Fraction(3, 11)
        perturbed = CloningProcess(
            process.object_form, process.blank, process.machine_form, process.ready,
            RatMatrix(rows), process.readout,
        )
        xi = process.total_form()
        defect = oracle_defect(perturbed.phi, xi, xi).tolist()
        first = next((i, j, x) for i, row in enumerate(defect) for j, x in enumerate(row) if x)
        report = verify_cloning(perturbed)
        assert report.verdict == "fail"
        assert report.first_defect_entry == first
        assert report.symplectic_defect_norm == max(abs(x) for row in defect for x in row)


# Entries for the storage tests: mostly zeros, few distinct values, and the
# same value spelled several ways, so that equal rows and cancellations are
# common.
SPARSE_ENTRIES = st.sampled_from(
    [0, 0, 0, 0, "0", "-0", "0/3", Fraction(0), 1, "1", "2/2", -1, "-1", "1/2", "2/4", Fraction(-3, 2), "3"]
)


@st.composite
def sparse_grids(draw, rows=None, cols=None):
    """A dense grid of entries, 0 to 5 on a side, and its column count."""
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    return [draw(st.lists(SPARSE_ENTRIES, min_size=cols, max_size=cols)) for _ in range(rows)], cols


def from_grid(grid, cols) -> RatMatrix:
    return RatMatrix(grid) if grid else RatMatrix.zeros(0, cols)


def dense(grid) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in grid]


def assert_canonical(m: RatMatrix) -> None:
    """Each stored row lists its nonzero entries once each, by ascending column."""
    assert len(m._nz) == m.rows
    for row in m._nz:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols))
        assert all(0 <= j < m.cols for j in cols)
        assert all(type(x) is Fraction and x != 0 for _, x in row)


class TestSparseRows:
    """Matrices store each row as its nonzeros; every constructor and operation
    must keep that form, and the dense views must match a dense reference."""

    @given(sparse_grids(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_dense_views_match_the_grid(self, grid_cols, data):
        grid, cols = grid_cols
        m, d = from_grid(grid, cols), dense(grid)
        assert_canonical(m)
        assert m.shape == (len(grid), cols)
        assert m.tolist() == d
        assert [m.row(i) for i in range(m.rows)] == [tuple(r) for r in d]
        for i in range(m.rows):
            for j in range(cols):
                assert m[i, j] == m[i, j - cols] == d[i][j]
            for j in (cols, -cols - 1):
                with pytest.raises(IndexError):
                    m[i, j]
        data_json = m.to_json()
        assert data_json == {"rows": m.rows, "cols": cols, "entries": [[str(x) for x in r] for r in d]}
        assert RatMatrix.from_json(data_json) == m
        v = data.draw(st.lists(SPARSE_ENTRIES, min_size=cols, max_size=cols))
        assert m.apply(v) == tuple(sum((x * Fraction(y) for x, y in zip(r, v)), Fraction(0)) for r in d)
        assert m.is_zero() == (not any(x for r in d for x in r))
        assert m.max_abs() == max((abs(x) for r in d for x in r), default=0)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_operations_keep_rows_canonical(self, data):
        grid, cols = data.draw(sparse_grids())
        a, d = from_grid(grid, cols), dense(grid)
        b_grid, _ = data.draw(sparse_grids(rows=a.rows, cols=cols))
        b, e = from_grid(b_grid, cols), dense(b_grid)
        c = from_grid(*data.draw(sparse_grids(rows=cols)))
        expected = {
            "T": [[d[i][j] for i in range(a.rows)] for j in range(cols)],
            "neg": [[-x for x in r] for r in d],
            "add": [[x + y for x, y in zip(r, s)] for r, s in zip(d, e)],
            "sub": [[x - y for x, y in zip(r, s)] for r, s in zip(d, e)],
        }
        results = {"T": a.T, "neg": -a, "add": a + b, "sub": a - b}
        for name, m in results.items():
            assert_canonical(m)
            assert m.tolist() == expected[name], name
        assert (a - a) == RatMatrix.zeros(*a.shape) and (a - a).is_zero()
        product = a @ c
        assert_canonical(product)
        assert product == oracles.matmul(a, c)
        red, _ = a.rref()
        assert_canonical(red)
        stacked = RatMatrix.block_diag(a, b, c)
        assert_canonical(stacked)
        width, left, grid = a.cols + b.cols + c.cols, 0, []
        for m in (a, b, c):
            grid += [[0] * left + r + [0] * (width - left - m.cols) for r in m.tolist()]
            left += m.cols
        assert stacked.tolist() == grid
        if a.rows == cols and a.rank() == cols:
            assert_canonical(a.inverse())

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equality_and_hash_agree_with_the_dense_oracle(self, data):
        grid, cols = data.draw(sparse_grids(cols=data.draw(st.integers(0, 3))))
        kind = data.draw(st.sampled_from(["respelled", "fresh", "other shape"]))
        if kind == "respelled":  # the same values, spelled as Fractions and strings
            other = [[data.draw(st.sampled_from([Fraction(x), str(Fraction(x))])) for x in row] for row in grid]
            other_cols = cols
        elif kind == "fresh":
            other, other_cols = data.draw(sparse_grids(rows=len(grid), cols=cols))
        else:
            other, other_cols = data.draw(sparse_grids())
        a, b = from_grid(grid, cols), from_grid(other, other_cols)
        same = oracles.dense_key(grid, cols) == oracles.dense_key(other, other_cols)
        assert (a == b) == same and (a != b) == (not same)
        if same:
            assert hash(a) == hash(b)

    def test_constructors_and_builders_store_canonical_rows(self):
        rng = random.Random(5)
        form = random_skew_form(4, rng)
        general = general_cloner(form)
        mirror = mirror_cloner(form)
        bad = basic_cloner().phi.tolist()
        bad[4][4] += 1
        matrices = [
            RatMatrix.zeros(3, 2), RatMatrix.zeros(0, 4), RatMatrix.identity(3),
            oracles.permutation([2, 0, 1]), RatMatrix.block_diag(),
            RatMatrix([[0, "1/2"], ["-0", 0]]), standard_form(3).matrix,
            basic_cloner().phi, standard_cloner(3).phi, standard_cloner(3).readout,
            readout_solver(2, 3), readout_solver(0, 2),
            general.phi, general.readout, mirror.phi, mirror.machine_form.matrix,
            darboux_basis(form), form.matrix.inverse(),
            symplectic_defect(RatMatrix(bad), *[basic_cloner().total_form()] * 2),
            verify_cloning(general).inferred_readout,
        ]
        for m in matrices:
            assert_canonical(m)
            assert from_grid(m.tolist(), m.cols) == m


def oracle_defect(s: RatMatrix, form_in: SkewForm, form_out: SkewForm) -> RatMatrix:
    """S^T . form_out . S - form_in by the Fraction reference product."""
    return oracles.matmul(oracles.matmul(s.T, form_out.matrix), s) - form_in.matrix


def assert_skew_defect(s: RatMatrix, form_in: SkewForm, form_out: SkewForm) -> None:
    """The defect equals the reference, is stored canonically, and is skew
    with a zero diagonal."""
    d = symplectic_defect(s, form_in, form_out)
    assert d == oracle_defect(s, form_in, form_out)
    assert_canonical(d)
    grid = d.tolist()
    assert all(grid[i][j] == -grid[j][i] for i in range(d.rows) for j in range(d.cols))


@st.composite
def skew_forms(draw):
    """A standard or a random rational skew form of dim 0 to 6."""
    dim = draw(st.sampled_from((0, 2, 4, 6)))
    if draw(st.booleans()):
        return standard_form(dim // 2)
    return random_skew_form(dim, random.Random(draw(st.integers(0, 2**32))))


class TestSymplecticDefect:
    """The defect kernel computes the strict upper triangle only and mirrors
    it; every result must still equal the full reference product."""

    @given(skew_forms(), skew_forms(), st.data())
    @settings(max_examples=kernel_examples(100), deadline=None)
    def test_rectangular_maps_between_forms_of_different_dims(self, form_in, form_out, data):
        s = data.draw(rat_matrices(rows=form_out.dim, cols=form_in.dim))
        assert_skew_defect(s, form_in, form_out)

    @given(skew_forms(), skew_forms(), st.data())
    @settings(max_examples=kernel_examples(100), deadline=None)
    def test_sparse_maps_with_empty_rows_columns_and_cancellations(self, form_in, form_out, data):
        grid, cols = data.draw(sparse_grids(rows=form_out.dim, cols=form_in.dim))
        assert_skew_defect(from_grid(grid, cols), form_in, form_out)

    @pytest.mark.parametrize(
        "grid, n_in, n_out, expected",
        [
            # every product cancels: S^T J S = det(S) J = 0
            ([[1, 1], [1, 1]], 1, 1, -J2),
            ([[-2, "1/2"], [4, -1]], 1, 1, -J2),
            # empty rows: the columns pick e_0 and e_2, which pair to zero
            ([[1, 0], [0, 0], [0, 1], [0, 0]], 1, 2, -J2),
            # empty columns: only e_0 and e_3 of the source are mapped
            ([[1, 0, 0, 0], [0, 0, 0, 1]], 2, 1,
             RatMatrix([[0, -1, 0, 1], [1, 0, 0, 0], [0, 0, 0, -1], [-1, 0, 1, 0]])),
            ([[0, 0], [0, 0], [0, 0], [0, 0]], 1, 2, -J2),
        ],
    )
    def test_hand_checked_sparse_maps(self, grid, n_in, n_out, expected):
        s = RatMatrix(grid)
        form_in, form_out = standard_form(n_in), standard_form(n_out)
        assert symplectic_defect(s, form_in, form_out) == expected
        assert_skew_defect(s, form_in, form_out)


def _block_kinds(s: RatMatrix, form_out: SkewForm) -> list[str]:
    """How the defect kernel scales each block of form_out: "row" or "col"."""
    rows = [[(j, x.as_integer_ratio()) for j, x in row] for row in s._nz]
    return ["row" if _block_scales(rows, b)[1] else "col" for b in _form_blocks(form_out.matrix._nz)]


def _map_rows(rng: random.Random, rows: int, cols: int, styles) -> RatMatrix:
    """Rows of a random map: a "row" row puts one denominator on all its
    entries, a "col" row gives each column its own, shared with every "col"
    row, so that the block kernel meets both scalings."""
    col_dens = [rng.randint(1, 10**6) for _ in range(cols)]
    grid = []
    for i in range(rows):
        den = rng.randint(1, 10**6)
        grid.append([
            Fraction(rng.randint(-9, 9), den if styles[i % len(styles)] == "row" else col_dens[j])
            if rng.random() < 0.7 else 0
            for j in range(cols)
        ])
    return RatMatrix(grid) if rows else RatMatrix.zeros(0, cols)


@st.composite
def block_sums(draw):
    """A form_out that is a direct sum of random rational forms and standard
    blocks, with a map into it whose rows favour row or column scales."""
    form_out = standard_form(0)
    for part in draw(st.lists(st.sampled_from((0, 2, 4)), min_size=1, max_size=5)):
        rng = random.Random(draw(st.integers(0, 2**32)))
        form_out = direct_sum(form_out, random_skew_form(part, rng) if part else standard_form(1))
    form_in = draw(skew_forms())
    styles = draw(st.lists(st.sampled_from(("row", "col")), min_size=1, max_size=4))
    s = _map_rows(random.Random(draw(st.integers(0, 2**32))), form_out.dim, form_in.dim, styles)
    return s, form_in, form_out


class TestBlockKernel:
    """The defect kernel splits form_out into its diagonal blocks and scales
    each by column or by row; every result must equal the reference."""

    @given(block_sums())
    @settings(max_examples=kernel_examples(100), deadline=None)
    def test_direct_sums_of_random_and_standard_blocks(self, case):
        assert_skew_defect(*case)

    def test_a_direct_sum_takes_both_scalings(self):
        rng = random.Random(7)
        form_out = direct_sum(
            direct_sum(random_skew_form(4, rng), standard_form(2)), random_skew_form(4, rng)
        )
        s = _map_rows(rng, form_out.dim, 6, ["col"] * 4 + ["row"] * 4)
        assert _block_kinds(s, form_out) == ["col", "row", "row", "col"]
        assert_skew_defect(s, random_skew_form(6, rng), form_out)

    @pytest.mark.parametrize("make", [general_cloner, mirror_cloner])
    @given(
        dim=st.sampled_from((2, 4, 6, 8, 10, 12)),
        seed=st.integers(0, 2**32),
        edits=st.lists(
            st.tuples(st.integers(0, 99), st.integers(0, 99), st.fractions(-3, 3, max_denominator=5)),
            max_size=3,
        ),
    )
    @settings(max_examples=kernel_examples(10), deadline=None)
    def test_perturbed_processes(self, make, dim, seed, edits):
        c = make(random_skew_form(dim, random.Random(seed)))
        rows = c.phi.tolist()
        for i, j, x in edits:
            rows[i % len(rows)][j % len(rows)] = x
        perturbed = CloningProcess(
            c.object_form, c.blank, c.machine_form, c.ready, RatMatrix(rows), c.readout
        )
        xi = c.total_form()
        assert_skew_defect(perturbed.phi, xi, xi)
        assert verify_cloning(perturbed) == oracles.verify_cloning(perturbed)

    def test_general_phi_takes_column_scales_on_omega_and_row_scales_on_pairs(self):
        c = general_cloner(random_skew_form(16, random.Random(16)))
        kinds = _block_kinds(c.phi, c.total_form())
        assert kinds[:2] == ["col", "col"]
        assert kinds[2:].count("row") >= 4

    def test_permuted_standard_form_merges_into_one_block(self):
        # pairs (0, 3), (1, 4), (2, 5): the coupling is not contiguous
        p = oracles.permutation([0, 2, 4, 1, 3, 5])
        form_out = SkewForm(oracles.matmul(oracles.matmul(p.T, standard_form(3).matrix), p))
        assert _form_blocks(form_out.matrix._nz) == [range(6)]
        rng = random.Random(11)
        for styles in (["row"], ["col"], ["row", "col"]):
            assert_skew_defect(_map_rows(rng, 6, 4, styles), random_skew_form(4, rng), form_out)

    def test_single_dense_block(self):
        rng = random.Random(13)
        form_out = random_skew_form(8, rng)
        assert _form_blocks(form_out.matrix._nz) == [range(8)]
        for styles in (["row"], ["col"]):
            s = _map_rows(rng, 8, 6, styles)
            assert_skew_defect(s, random_skew_form(6, rng), form_out)
            assert_skew_defect(s, standard_form(3), form_out)

    @pytest.mark.parametrize("n_in, n_out", [(0, 0), (0, 1), (1, 0)])
    def test_zero_dimensional_forms(self, n_in, n_out):
        s = RatMatrix.zeros(2 * n_out, 2 * n_in)
        assert_skew_defect(s, standard_form(n_in), standard_form(n_out))
        assert symplectic_defect(s, standard_form(n_in), standard_form(n_out)) == -standard_form(n_in).matrix


@st.composite
def chain_forms(draw):
    """A standard, a random or a direct-sum skew form of dim 0 to 6."""
    form = standard_form(0)
    for dim in draw(st.sampled_from(((0,), (2,), (4,), (6,), (2, 2), (2, 4), (4, 2), (2, 2, 2)))):
        if draw(st.booleans()):
            part = standard_form(dim // 2)
        else:
            part = random_skew_form(dim, random.Random(draw(st.integers(0, 2**32))))
        form = direct_sum(form, part)
    return form


@st.composite
def chain_maps(draw, rows, cols):
    """A sparse rational map: small entries with many zeros, or rows that
    favour row or column scales in the defect kernel."""
    if draw(st.booleans()):
        return from_grid(*draw(sparse_grids(rows=rows, cols=cols)))
    styles = draw(st.lists(st.sampled_from(("row", "col")), min_size=1, max_size=4))
    return _map_rows(random.Random(draw(st.integers(0, 2**32))), rows, cols, styles)


class TestDefectChainRule:
    """For T from (M, omega) to (P, pi) and S from (P, pi) to (N, sigma),
    (S T)^T sigma (S T) - omega = T^T (S^T sigma S - pi) T + T^T pi T - omega:
    a law of the defect that needs no reference product."""

    @given(chain_forms(), chain_forms(), chain_forms(), st.data())
    @settings(max_examples=kernel_examples(100), deadline=None)
    def test_defect_of_a_composite(self, omega, pi, sigma, data):
        t = data.draw(chain_maps(pi.dim, omega.dim))
        s = data.draw(chain_maps(sigma.dim, pi.dim))
        assert symplectic_defect(s @ t, omega, sigma) == (
            t.T @ symplectic_defect(s, pi, sigma) @ t + symplectic_defect(t, omega, pi)
        )


class TestGeneralProcessAtScale:
    def test_random_dim_48_verifies(self):
        report = verify_cloning(general_cloner(random_skew_form(48, random.Random(48))))
        assert report.passed
        assert report.first_defect_entry is None


# Spellings of rationals, canonical or not: signs, leading zeros, underscores,
# non-ASCII digits, decimals, exponents, whitespace, zero denominators.
_DIGITS = st.one_of(
    st.text("0123456789", min_size=1, max_size=25),
    st.sampled_from(["0", "00", "007", "1_000", "_1", "1__0", "٣", "５", "1٣"]),
)
_NUMBER = st.tuples(
    st.sampled_from(["", "", "-", "+", "--", "- "]), _DIGITS, st.sampled_from(["", "", ".", ".5", "e3", "E-2"])
).map("".join)
_SPELLINGS = st.tuples(
    st.sampled_from(["", "", " ", "\t"]),
    _NUMBER,
    st.one_of(st.just(""), st.tuples(st.sampled_from(["/", "/", " /", "//"]), _NUMBER).map("".join)),
    st.sampled_from(["", "", "\n", " "]),
).map("".join)


class TestParsing:
    @given(_SPELLINGS)
    @example("1/0")
    @example("-0/7")
    @example("12/18")
    @example("-3")
    @example("1" * 5000)
    @example("1e4300")  # exponents up to the int digit limit
    @example("-1E-4300")
    @example(" 2.5e+04300\n")
    @example(" 2.5e+0_4300\n")
    @example("0_0")
    @settings(max_examples=kernel_examples(300), deadline=None)
    def test_string_entries_parse_as_fraction_does(self, text):
        if "_" in text:
            # Fraction takes underscores from Python 3.11 on; _frac refuses them
            # on every version, with the message of 3.10's Fraction
            with pytest.raises(ValueError, match=f"^Invalid literal for Fraction: {re.escape(repr(text))}$"):
                _frac(text)
            return
        try:
            want = Fraction(text)
        except Exception as e:  # whatever Fraction raises, _frac must raise too
            with pytest.raises(Exception) as got:
                _frac(text)
            assert type(got.value) is type(e)
        else:
            assert _frac(text) == want

    @pytest.mark.parametrize(
        "text", ["1e4301", "-1E-4301", "1e" + "9" * 5000], ids=["4301", "-4301", "5000 digits"],
    )
    def test_exponents_past_the_digit_limit_are_refused(self, text):
        # Fraction(text) would compute ten to the exponent first
        with pytest.raises(ValueError, match="^entry exponent past the 4300-digit integer limit$"):
            _frac(text)

    @pytest.mark.parametrize(
        "text", ["0_0", "1/1_000", "2.5e1_000_000_000"], ids=["numerator", "denominator", "exponent"],
    )
    def test_underscores_are_refused_on_every_python(self, text):
        # an exponent with underscores is refused before ten is raised to it
        with pytest.raises(ValueError, match=f"^Invalid literal for Fraction: {re.escape(repr(text))}$"):
            _frac(text)

    @given(sparse_grids(rows=4, cols=4), st.data())
    @settings(max_examples=kernel_examples(150), deadline=None)
    def test_skew_check_agrees_with_the_transpose(self, case, data):
        grid, _ = case
        m = RatMatrix(grid)
        # make it skew, then perhaps break one entry
        skew = [[m[i, j] - m[j, i] for j in range(4)] for i in range(4)]
        if data.draw(st.booleans()):
            i, j = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
            skew[i][j] += data.draw(st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 3)]))
        m = RatMatrix(skew)
        assert _is_skew(m) == (m.T == -m)

    @pytest.mark.parametrize(
        "grid",
        [
            [[0, "1/2"], ["-1/3", 0]],  # denominators differ
            [[0, 1], [1, 0]],  # sign
            [[1, 1], [-1, 0]],  # diagonal
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],  # a missing entry
            [[0, 1, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 1], [0, 0, -1, 0]],  # a moved entry
        ],
    )
    def test_non_skew_matrices_are_rejected_with_the_same_message(self, grid):
        with pytest.raises(ValueError, match="^matrix is not skew-symmetric$"):
            SkewForm(RatMatrix(grid))

    @pytest.mark.parametrize(
        "text, value", [("0", _ZERO), ("-0", _ZERO), ("0/7", _ZERO), ("1", _ONE), ("3/3", _ONE)]
    )
    def test_zero_and_one_spellings_parse_to_the_interned_values(self, text, value):
        assert _frac(text) is value

    @pytest.mark.parametrize(
        "bad, message",
        [(0.5, "got float"), (True, "got bool"), ([1], "got list")],
        ids=["float", "bool", "list"],
    )
    @pytest.mark.parametrize(
        "row",
        [["0", None], [None, "0"], ["0", None, "0", "1/2"]],
        ids=["after", "before", "between"],
    )
    def test_a_zero_string_beside_a_bad_entry_keeps_the_refusal(self, bad, message, row):
        # the literal "0" is skipped unparsed; the bad entry is still refused
        row = [bad if x is None else x for x in row]
        with pytest.raises(TypeError, match=f"^expected an exact rational entry, {message}$"):
            RatMatrix([["1"] * len(row), row])

    def test_a_zero_string_beside_an_int_parses(self):
        m = RatMatrix([["0", 3, "0", 0], [0, "0", -1, "0"]])
        assert m.tolist() == [[0, 3, 0, 0], [0, 0, -1, 0]]
        assert m._nz == (((1, Fraction(3)),), ((2, Fraction(-1)),))

    @pytest.mark.parametrize("error", [TypeError, ValueError])
    def test_an_entry_that_fails_its_comparison_is_refused_by_type(self, error):
        # a numpy array compares elementwise, and the truth value of the
        # result raises ValueError
        class Ambiguous:
            def __bool__(self):
                raise error("no truth value")

        class Odd:
            def __ne__(self, other):
                return Ambiguous()

        with pytest.raises(TypeError, match="^expected an exact rational entry, got Odd$"):
            RatMatrix([["0", Odd()]])

    @given(sparse_grids())
    @settings(max_examples=kernel_examples(150), deadline=None)
    def test_no_stored_row_holds_a_zero(self, grid_cols):
        grid, cols = grid_cols
        m = from_grid(grid, cols)
        assert all(x for row in m._nz for _, x in row)
        assert m.tolist() == dense(grid)


class TestEntryContainers:
    """Strings, bytes, mappings and sets iterate, but never as a grid, row or
    vector: "12" would parse as (1, 2), b"12" as (49, 50)."""

    CONTAINERS = ["12", b"12", bytearray(b"12"), {"1": 0, "2": 0}, {1, 2}, frozenset({1, 2})]
    IDS = ["str", "bytes", "bytearray", "dict", "set", "frozenset"]

    @staticmethod
    def refused(of: str, x):
        return pytest.raises(TypeError, match=f"^expected a sequence of {of}, got {type(x).__name__}$")

    @pytest.mark.parametrize("row", CONTAINERS, ids=IDS)
    def test_a_row_is_refused_by_type(self, row):
        with self.refused("entries", row):
            RatMatrix([[3, 4], row])

    @pytest.mark.parametrize("entries", CONTAINERS, ids=IDS)
    def test_a_vector_is_refused_by_type(self, entries):
        with self.refused("entries", entries):
            vec(entries)
        with self.refused("entries", entries):
            J2.apply(entries)

    @pytest.mark.parametrize("grid", ["12", {(1, 2): 0}, {(1, 2), (3, 4)}], ids=["str", "dict", "set"])
    def test_a_grid_is_refused_by_type(self, grid):
        with self.refused("rows", grid):
            RatMatrix(grid)

    def test_sequences_still_parse(self):
        grid = ((1, "2"), [Fraction(3), "4/2"], range(2))
        assert RatMatrix(grid).tolist() == [[1, 2], [3, 2], [0, 1]]
        assert vec(x for x in ["1/2", 3]) == (Fraction(1, 2), 3)


def _restore_collector(was: bool) -> None:
    (gc.enable if was else gc.disable)()


@pytest.fixture(params=[True, False], ids=["collector on", "collector off"])
def collector(request):
    """Run the test with the cyclic collector on or off, restoring it after."""
    was = gc.isenabled()
    _restore_collector(request.param)
    try:
        yield request.param
    finally:
        _restore_collector(was)


_FORM4 = RatMatrix([[0, 2, 1, 0], [-2, 0, 0, 3], [-1, 0, 0, 1], [0, -3, -1, 0]])
_BASIC = basic_cloner().to_json()


class TestCollectorPause:
    """The kernels that run with the cyclic collector paused leave
    ``gc.isenabled()`` as they found it, whether they return or raise."""

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda: RatMatrix([[0, "1/2"], ["-1/2", 0]]),
            lambda: RatMatrix.from_json(J2.to_json()),
            lambda: _FORM4 @ _FORM4,
            lambda: _FORM4.rref(),
            lambda: _FORM4.rank(),
            lambda: symplectic_defect(_FORM4, standard_form(2), SkewForm(_FORM4)),
            lambda: _darboux(SkewForm(_FORM4)),
            # nested: inverse runs rref, darboux_basis the walk, and
            # SkewForm.from_json parses the grid and then checks its rank
            lambda: _FORM4.inverse(),
            lambda: darboux_basis(SkewForm(_FORM4)),
            lambda: SkewForm.from_json(SkewForm(_FORM4).to_json()),
            lambda: _full_rank_mod_p(_FORM4),
            # the entry points of the exact round trip
            lambda: general_cloner(SkewForm(_FORM4)),
            lambda: verify_cloning(general_cloner(SkewForm(_FORM4))),
            lambda: CloningProcess.from_json(general_cloner(SkewForm(_FORM4)).to_json()),
        ],
        ids=[
            "parse", "from_json", "matmul", "rref", "rank", "symplectic_defect", "darboux",
            "inverse", "darboux_basis", "SkewForm.from_json", "certificate", "general_cloner",
            "verify_cloning", "CloningProcess.from_json",
        ],
    )
    def test_state_is_kept_on_return(self, collector, kernel):
        kernel()
        assert gc.isenabled() is collector

    @pytest.mark.parametrize(
        "kernel, error",
        [
            (lambda: RatMatrix([[1, 2], [3]]), ShapeError),
            (lambda: RatMatrix([[1, 2.5]]), TypeError),
            (lambda: RatMatrix([[1, [2]]]), TypeError),
            (lambda: _FORM4 @ J2, ShapeError),
            (lambda: symplectic_defect(J2, standard_form(2), standard_form(1)), ShapeError),
            (
                lambda: SkewForm.from_json({**J2.to_json(), "dim": 2, "entries": [[0, "x"], [0, 0]]}),
                ValueError,
            ),
            (lambda: _darboux(SkewForm._trusted(RatMatrix.zeros(2, 2))), DegenerateFormError),
            (lambda: general_cloner(SkewForm._trusted(RatMatrix.zeros(2, 2))), DegenerateFormError),
            (lambda: verify_cloning(None), AttributeError),
            (lambda: CloningProcess.from_json({**_BASIC, "blank": ["0", 0.5]}), TypeError),
            (lambda: CloningProcess.from_json({**_BASIC, "ready": ["0"]}), ShapeError),
        ],
        ids=[
            "ragged", "float", "unhashable", "matmul shape", "defect shape", "nested parse",
            "degenerate walk", "general_cloner", "verify_cloning", "process entry", "process shape",
        ],
    )
    def test_state_is_kept_on_raise(self, collector, kernel, error):
        with pytest.raises(error):
            kernel()
        assert gc.isenabled() is collector

    def test_the_parse_runs_paused(self, collector):
        seen = []

        class Row(list):
            def __iter__(self):
                seen.append(gc.isenabled())
                return super().__iter__()

        RatMatrix([Row([1, 2]), Row([3, 4])])
        assert seen == [False, False]
        assert gc.isenabled() is collector

    @pytest.mark.parametrize(
        "inner, entry",
        [
            ("_mirror_assembly", lambda c, doc: general_cloner(c.object_form)),
            ("symplectic_defect", lambda c, doc: verify_cloning(c)),
            ("_vec_from_json", lambda c, doc: CloningProcess.from_json(doc)),
        ],
        ids=["general_cloner", "verify_cloning", "CloningProcess.from_json"],
    )
    def test_the_round_trip_runs_paused(self, collector, monkeypatch, inner, entry):
        # the entry points pause the collector over their own work too, not
        # only over the kernels they call
        c = general_cloner(SkewForm(_FORM4))
        doc = c.to_json()
        seen = []
        called = getattr(classical, inner)

        def spy(*args):
            seen.append(gc.isenabled())
            return called(*args)

        monkeypatch.setattr(classical, inner, spy)
        entry(c, doc)
        assert seen and not any(seen)
        assert gc.isenabled() is collector

    def test_the_exact_ops_make_no_cyclic_garbage(self):
        # the premise of the pause: an op sequence that runs every paused
        # kernel leaves nothing for the collector to free
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            process = general_cloner(random_skew_form(8, random.Random(8)))
            assert verify_cloning(process).passed
            back = CloningProcess.from_json(json.loads(json.dumps(process.to_json())))
            assert back == process
            assert check_cloning_diagram(*diagram_from_process(back)).passed
            size_witness(defect_floor(2, 1)[0])
            assert gc.collect() == 0
        finally:
            _restore_collector(was)


def assert_same_fraction(got: Fraction, want: Fraction) -> None:
    """got is want in every way a caller can see: the stored pair, the hash,
    the spellings and a pickle round trip."""
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)
    assert (str(got), repr(got)) == (str(want), repr(want))
    back = pickle.loads(pickle.dumps(got))
    assert (back.numerator, back.denominator) == (want.numerator, want.denominator)


_NONZERO_INTS = st.one_of(st.integers(-50, 50), st.integers(-(2**200), 2**200)).filter(bool)


class TestCoprimeConstruction:
    """The exact round trip builds its Fractions from coprime pairs without
    the constructor; each one must be the Fraction the constructor builds."""

    def test_the_fraction_layout_is_the_one_the_helpers_fill(self):
        # _from_coprime sets these two slots and nothing else, as CPython's
        # Fraction._from_coprime_ints does; a release that changes them fails here
        assert Fraction.__slots__ == ("_numerator", "_denominator")
        assert not hasattr(Fraction(1, 2), "__dict__")

    @given(st.integers(-(2**200), 2**200), _NONZERO_INTS)
    @example(0, -7)
    @example(-6, -4)
    @example(5, 1)
    @settings(max_examples=kernel_examples(300), deadline=None)
    def test_ratio_is_the_constructor(self, p, q):
        assert_same_fraction(_ratio(p, q), Fraction(p, q))

    @given(st.integers(-(2**200), 2**200), _NONZERO_INTS)
    @settings(max_examples=kernel_examples(300), deadline=None)
    def test_a_coprime_pair_is_the_constructor(self, p, q):
        want = Fraction(p, q)
        assert_same_fraction(_from_coprime(want.numerator, want.denominator), want)

    @pytest.mark.parametrize("p", [0, 1, -3])
    def test_ratio_refuses_a_zero_denominator(self, p):
        with pytest.raises(ZeroDivisionError):
            _ratio(p, 0)

    @pytest.mark.parametrize(
        "text, want",
        [
            ("2/4", Fraction(1, 2)), ("-6/4", Fraction(-3, 2)), ("10/5", Fraction(2)),
            ("-7/7", Fraction(-1)), ("3/7", Fraction(3, 7)),
        ],
    )
    def test_canonical_strings_parse_to_lowest_terms(self, text, want):
        assert_same_fraction(_frac(text), want)

    @pytest.mark.parametrize("text, want", [("7/7", _ONE), ("1", _ONE), ("0/7", _ZERO), ("0", _ZERO)])
    def test_canonical_zero_and_one_are_interned(self, text, want):
        assert _frac(text) is want

    @given(st.lists(_NONZERO, max_size=6), st.integers(0, 4))
    @settings(max_examples=kernel_examples(100), deadline=None)
    def test_halved_rows_hold_each_entry_over_two(self, values, offset):
        row = tuple(enumerate(values))
        got = classical._halved(row, offset)
        assert [j for j, _ in got] == [j + offset for j, _ in row]
        for (_, x), (_, y) in zip(row, got):
            assert_same_fraction(y, x / 2)

    @given(rat_matrices())
    @settings(max_examples=kernel_examples(100), deadline=None)
    def test_negation_negates_each_entry(self, m):
        neg = -m
        want = from_grid([[-x for x in row] for row in m.tolist()], m.cols)
        assert neg == want and hash(neg) == hash(want)

    @given(walk_forms())
    @settings(max_examples=kernel_examples(50), deadline=None)
    def test_every_pair_handed_to_the_helper_is_reduced(self, form):
        # every value the round trip builds, the defect of a broken process and
        # rref's negative pivots: a pair stored unreduced compares unequal to
        # its value, and the walk's scales reach no output unconverted, so the
        # check sits at the helper itself
        def checked(p, q):
            assert q > 0 and math.gcd(p, q) == 1, (p, q)
            return _from_coprime(p, q)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_from_coprime", checked)
            mp.setattr(classical, "_from_coprime", checked)
            c = general_cloner(form)
            assert verify_cloning(c).passed
            assert CloningProcess.from_json(json.loads(json.dumps(c.to_json()))) == c
            assert (-c.phi).rref()[0] == c.phi.rref()[0]
            grid = c.phi.tolist()
            if grid:
                grid[0][0] += Fraction(1, 3)
            total = c.total_form()
            symplectic_defect(from_grid(grid, c.phi.cols), total, total)

    def test_a_dim_16_round_trip_calls_the_constructor_rarely(self):
        # only the walk's few Fraction operations per pair call it: 84 times
        # on Python 3.10-3.11, 36 from 3.12 on, whose arithmetic skips the
        # constructor too.  Building every entry through the constructor
        # takes 1,222 calls here (1,054 from 3.12 on)
        form = random_skew_form(16, random.Random(16))
        new = Fraction.__new__.__code__
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is new:
                calls += 1

        was = sys.getprofile()
        sys.setprofile(count)
        try:
            c = general_cloner(form)
            report = verify_cloning(c)
            back = CloningProcess.from_json(json.loads(json.dumps(c.to_json())))
        finally:
            sys.setprofile(was)
        assert report.passed and back == c
        assert calls <= 150
