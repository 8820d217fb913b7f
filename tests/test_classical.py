import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symclone
from symclone import classical, probe
from symclone import (
    CloningProcess,
    CloningVerificationError,
    InfeasibleError,
    NotApplicableError,
    RatMatrix,
    SkewForm,
    basic_cloner,
    clone_residual_probe,
    darboux_basis,
    defect_floor,
    direct_sum,
    general_cloner,
    is_symplectic_map,
    mirror_cloner,
    product_cloner,
    readout_solver,
    size_witness,
    standard_cloner,
    standard_form,
    symplectic_defect,
    verify_cloning,
    vec,
    zero_vec,
)
from conftest import kernel_examples, random_skew_form
import oracles
from oracles import shuffle_permutation

EXPECTED_PHI = RatMatrix(
    [
        [1, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, -1],
        [1, 0, -1, 0, 1, 0],
        [0, 1, 0, -1, 0, -1],
        [1, 0, 0, 0, 1, 0],
        [0, -1, 0, 1, 0, 2],
    ]
)


class TestBasicCloner:
    def test_matrix_is_the_explicit_one(self):
        assert basic_cloner().phi == EXPECTED_PHI

    def test_readout_is_sign_flip(self):
        assert basic_cloner().readout == RatMatrix([[1, 0], [0, -1]])

    def test_copies_basis_states(self):
        c = basic_cloner()
        assert c.phi.apply((1, 0, 0, 0, 0, 0)) == vec([1, 0, 1, 0, 1, 0])
        assert c.phi.apply((0, 1, 0, 0, 0, 0)) == vec([0, 1, 0, 1, 0, -1])

    def test_phi_is_symplectic_for_the_product_form(self):
        c = basic_cloner()
        xi = c.total_form()
        assert is_symplectic_map(c.phi, xi, xi)

    def test_passes_verification_with_zero_residuals(self):
        rep = verify_cloning(basic_cloner())
        assert rep.passed
        assert rep.symplectic_defect_norm == 0
        assert rep.cloning_residual == 0


class TestShufflePermutation:
    def test_all_empty(self):
        assert shuffle_permutation((0, 0, 0, 0, 0, 0)).shape == (0, 0)

    def test_second_factor_empty_is_identity(self):
        assert shuffle_permutation((2, 2, 2, 0, 0, 0)) == RatMatrix.identity(6)

    def test_full_case_is_orthogonal_and_symplectic(self):
        dims = (2, 2, 2, 2, 2, 2)
        p = shuffle_permutation(dims)
        assert p.shape == (12, 12)
        assert p @ p.T == RatMatrix.identity(12)
        j = standard_form(1)
        source = SkewForm(
            RatMatrix.block_diag(*[j.matrix] * 6)
        )  # per-factor block order
        target = source  # all blocks equal here, so the permuted form coincides
        assert is_symplectic_map(p, source, target)

    def test_mixed_sizes_move_blocks_correctly(self):
        p = shuffle_permutation((2, 2, 0, 4, 4, 2))
        v = vec([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14])
        # source blocks: A1=(1,2) B1=(3,4) C1=() A2=(5..8) B2=(9..12) C2=(13,14)
        assert p.apply(v) == vec([1, 2, 5, 6, 7, 8, 3, 4, 9, 10, 11, 12, 13, 14])


class TestProductCloner:
    def test_product_of_basics_verifies(self):
        c = product_cloner(basic_cloner(), basic_cloner())
        assert c.phi.shape == (12, 12)
        rep = verify_cloning(c)
        assert rep.passed

    def test_product_with_empty_process(self):
        c = basic_cloner()
        empty = standard_cloner(0)
        left = product_cloner(c, empty)
        right = product_cloner(empty, c)
        assert left.phi == c.phi and right.phi == c.phi
        assert verify_cloning(left).passed and verify_cloning(right).passed

    def test_pre_shuffle_action_is_componentwise(self):
        c = basic_cloner()
        combined = RatMatrix.block_diag(c.phi, c.phi)
        x1, x2 = (1, 2), (3, 5)
        out = combined.apply(x1 + (0, 0) + (0, 0) + x2 + (0, 0) + (0, 0))
        f1 = c.readout.apply(x1)
        f2 = c.readout.apply(x2)
        assert out == vec(x1 + x1) + f1 + vec(x2 + x2) + f2

    def test_invalid_input_rejected(self):
        c = basic_cloner()
        broken = CloningProcess(
            c.object_form, c.blank, c.machine_form, c.ready,
            RatMatrix.identity(6), c.readout,
        )
        with pytest.raises(CloningVerificationError):
            product_cloner(c, broken)

    def test_associative_up_to_nothing_for_equal_factors(self):
        c = basic_cloner()
        left = product_cloner(product_cloner(c, c), c)
        right = product_cloner(c, product_cloner(c, c))
        assert left.phi == right.phi
        assert left.readout == right.readout
        assert verify_cloning(left).passed and verify_cloning(right).passed

    @staticmethod
    def _shuffled(c1, c2):
        """The product's phi by its definition: conjugate the side-by-side map
        by the canonical block shuffle."""
        m1, k1, m2, k2 = c1.object_dim, c1.machine_dim, c2.object_dim, c2.machine_dim
        p = shuffle_permutation((m1, m1, k1, m2, m2, k2))
        return p @ RatMatrix.block_diag(c1.phi, c2.phi) @ p.T

    @pytest.mark.parametrize("pair", ["basic-basic", "basic-general", "general-basic",
                                      "basic-empty", "empty-basic"])
    def test_phi_is_the_shuffled_block_diagonal(self, pair):
        factors = {
            "basic": basic_cloner(),
            "general": general_cloner(random_skew_form(4, random.Random(7))),
            "empty": standard_cloner(0),
        }
        c1, c2 = (factors[name] for name in pair.split("-"))
        c = product_cloner(c1, c2)
        assert c.phi == self._shuffled(c1, c2)
        assert c.readout == RatMatrix.block_diag(c1.readout, c2.readout)
        forms = (c1.object_form.matrix, c2.object_form.matrix)
        assert c.object_form.matrix == RatMatrix.block_diag(*forms)

    def test_standard_cloner_equals_the_shuffled_fold(self):
        for n in range(1, 5):
            expected = self._shuffled(standard_cloner(n - 1), basic_cloner())
            assert standard_cloner(n).phi == expected

    def test_standard_cloner_equals_the_fold(self):
        folded = basic_cloner()
        for n in (2, 3):
            folded = product_cloner(folded, basic_cloner())
            direct = standard_cloner(n)
            assert direct.phi == folded.phi
            assert direct.readout == folded.readout


# The 3x3 matrix behind the mirror process, and the form it preserves
C = RatMatrix([[1, 1, 1], [1, "-1/2", "1/2"], [1, "1/2", "3/2"]])
D = RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])


def _bits(m: RatMatrix) -> int:
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length())
         for row in m.tolist() for x in row),
        default=0,
    )


def _machine_basis(form: SkewForm) -> RatMatrix:
    """G: the Darboux basis with each column pair swapped."""
    p = darboux_basis(form)
    return RatMatrix([[p[i, j ^ 1] for j in range(p.cols)] for i in range(p.rows)])


# forms of dims 2..12, as (dim, seed) pairs for conftest.random_skew_form
_FORMS = st.tuples(st.integers(1, 6), st.integers(0, 2**32)).map(
    lambda ns: random_skew_form(2 * ns[0], random.Random(ns[1]))
)


class TestMirrorCloner:
    def test_c_preserves_the_form_and_copies(self):
        assert C.T @ D @ C == D
        assert [C[i, 0] for i in range(3)] == [1, 1, 1]

    @pytest.mark.parametrize("dim", [0, 2, 6])
    def test_phi_is_c_tensor_identity(self, dim):
        form = random_skew_form(dim, random.Random(dim)) if dim else standard_form(0)
        c = mirror_cloner(form)
        expected = [
            [C[a, b] * (i == j) for b in range(3) for j in range(dim)]
            for a in range(3) for i in range(dim)
        ]
        assert c.phi == (RatMatrix(expected) if dim else RatMatrix.zeros(0, 0))
        assert c.readout == RatMatrix.identity(dim)
        assert c.machine_form.matrix == -form.matrix
        assert c.blank == zero_vec(dim) and c.ready == zero_vec(dim)

    @given(_FORMS)
    @settings(max_examples=30, deadline=None)
    def test_random_forms_clone_exactly(self, form):
        c = mirror_cloner(form)
        rep = verify_cloning(c)
        assert rep.passed, rep.reason
        assert c.readout.T @ c.machine_form.matrix @ c.readout == -form.matrix

    def test_entries_and_bit_height_do_not_depend_on_the_form(self):
        allowed = {Fraction(x) for x in ("0", "1/2", "-1/2", "1", "3/2")}
        for dim in (4, 32):
            phi = mirror_cloner(random_skew_form(dim, random.Random(dim))).phi
            assert {x for row in phi.tolist() for x in row} == allowed
            assert _bits(phi) == 2


class TestGeneralCloner:
    def test_standard_two_dim_matches_basic(self):
        g = general_cloner(standard_form(1))
        assert g.phi == basic_cloner().phi

    def test_standard_six_dim(self):
        g = general_cloner(standard_form(3))
        assert g.phi.shape == (18, 18)
        assert verify_cloning(g).passed

    def test_zero_dimensional_is_trivial(self):
        g = general_cloner(standard_form(0))
        assert g.phi.shape == (0, 0)
        assert verify_cloning(g).passed

    def test_fuzzed_forms_clone_exactly(self):
        rng = random.Random(99)
        for _ in range(20):
            dim = 2 * rng.randint(1, 6)
            form = random_skew_form(dim, rng)
            g = general_cloner(form)
            assert g.object_form == form
            assert g.machine_dim == dim
            rep = verify_cloning(g)
            assert rep.passed, rep.reason

    def test_readout_pulls_machine_form_back_to_minus_omega(self):
        rng = random.Random(5)
        for form in (standard_form(2), random_skew_form(4, rng)):
            g = general_cloner(form)
            pullback = g.readout.T @ g.machine_form.matrix @ g.readout
            assert pullback == -g.object_form.matrix

    @given(_FORMS)
    @settings(max_examples=30, deadline=None)
    def test_random_forms_clone_exactly(self, form):
        g = _machine_basis(form)
        d = form.dim
        assert g.T @ -form.matrix @ g == standard_form(d // 2).matrix
        c = general_cloner(form)
        assert verify_cloning(c).passed
        assert c.machine_form == standard_form(d // 2)
        assert c.readout.T @ c.machine_form.matrix @ c.readout == -form.matrix

    def test_phi_blocks(self):
        # [[I, I, G], [I, -I/2, G/2], [G^-1, G^-1/2, 3I/2]], readout G^-1
        form = random_skew_form(6, random.Random(6))
        g = _machine_basis(form)
        g_inv = g.inverse()
        eye = RatMatrix.identity(6)
        blocks = [
            [eye, eye, g],
            [eye, RatMatrix([["-1/2" if i == j else 0 for j in range(6)] for i in range(6)]),
             RatMatrix([[x / 2 for x in g.row(i)] for i in range(6)])],
            [g_inv, RatMatrix([[x / 2 for x in g_inv.row(i)] for i in range(6)]),
             RatMatrix([["3/2" if i == j else 0 for j in range(6)] for i in range(6)])],
        ]
        expected = RatMatrix(
            [sum((b.row(i) for b in block_row), ()) for block_row in blocks for i in range(6)]
        )
        c = general_cloner(form)
        assert c.phi == expected
        assert c.readout == g_inv

    def test_bit_height_at_dim_32(self):
        c = general_cloner(random_skew_form(32, random.Random(32)))
        assert _bits(c.phi) < 100

    @given(st.one_of(_FORMS, st.tuples(_FORMS, _FORMS).map(lambda ab: direct_sum(*ab))))
    @example(standard_form(0))
    @example(standard_form(2))
    @example(direct_sum(standard_form(1), random_skew_form(2, random.Random(1))))
    @settings(max_examples=kernel_examples(30), deadline=None)
    def test_equals_the_product_formula(self, form):
        # G^-1 comes from the Darboux walk, not from J (G^T omega); every
        # stored row of phi and of the readout must be the same
        assert general_cloner(form) == oracles.product_general_cloner(form)


class TestVerifyFailures:
    def test_identity_map_does_not_clone(self):
        c = basic_cloner()
        rep = verify_cloning(
            CloningProcess(c.object_form, c.blank, c.machine_form, c.ready,
                           RatMatrix.identity(6), c.readout)
        )
        assert not rep.passed
        assert rep.cloning_residual > 0

    def test_single_perturbed_entry_breaks_symplecticity(self):
        c = basic_cloner()
        rows = c.phi.tolist()
        rows[4][4] += 1
        rep = verify_cloning(
            CloningProcess(c.object_form, c.blank, c.machine_form, c.ready,
                           RatMatrix(rows), c.readout)
        )
        assert not rep.passed
        assert rep.symplectic_defect_norm > 0

    def test_nonzero_blank_offset_is_handled_affinely(self):
        # shift the blank state; the basic phi no longer copies
        c = basic_cloner()
        shifted = CloningProcess(
            c.object_form, vec([1, 0]), c.machine_form, c.ready, c.phi, c.readout
        )
        rep = verify_cloning(shifted)
        assert not rep.passed
        assert rep.symplectic_defect_norm == 0  # symplecticity is offset-free

    def test_machine_offset_cancels_in_the_readout_check(self):
        # phi(x, b, r) = (x, x, Fx + r): a nonzero ready state moves the
        # machine output of every basis state alike, and the readout check
        # takes that offset back out, so the inferred readout is phi[2m:, :m]
        f = RatMatrix([[1, 0], [0, -1]])
        phi = RatMatrix(
            [
                [1, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0],
                [1, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0],
                [1, 0, 0, 0, 1, 0],
                [0, -1, 0, 0, 0, 1],
            ]
        )
        j = standard_form(1)
        rep = verify_cloning(CloningProcess(j, zero_vec(2), j, vec([1, 0]), phi, f))
        assert rep.cloning_residual == 0
        assert rep.inferred_readout == f
        assert rep.reason == "map is not symplectic for the product form"


# one process of each construction, to be perturbed
_VERIFY_BASES = {
    "basic": basic_cloner(),
    "standard": standard_cloner(2),
    "general": general_cloner(random_skew_form(4, random.Random(3))),
    "mirror": mirror_cloner(random_skew_form(4, random.Random(5))),
}
_ENTRIES = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _with(c, phi=None, readout=None, blank=None, ready=None):
    return CloningProcess(
        c.object_form,
        c.blank if blank is None else vec(blank),
        c.machine_form,
        c.ready if ready is None else vec(ready),
        c.phi if phi is None else RatMatrix(phi),
        c.readout if readout is None else RatMatrix(readout),
    )


def _basic_phi_with(i, j, x):
    rows = basic_cloner().phi.tolist()
    rows[i][j] = x
    return rows


@st.composite
def _perturbed_processes(draw):
    """A constructed process with up to four entries of phi, the readout,
    the blank or the ready state overwritten."""
    c = _VERIFY_BASES[draw(st.sampled_from(sorted(_VERIFY_BASES)))]
    parts = {"phi": c.phi.tolist(), "readout": c.readout.tolist(),
             "blank": [list(c.blank)], "ready": [list(c.ready)]}
    edits = st.tuples(st.sampled_from(sorted(parts)), st.integers(0, 99), st.integers(0, 99), _ENTRIES)
    for part, i, j, x in draw(st.lists(edits, max_size=4)):
        grid = parts[part]
        row = grid[i % len(grid)]
        row[j % len(row)] = x
    return _with(c, parts["phi"], parts["readout"], parts["blank"][0], parts["ready"][0])


class TestVerifyAgainstReference:
    @given(_perturbed_processes())
    @example(_with(_VERIFY_BASES["general"], blank=[1, 0, "1/2", 0], ready=[0, -1, 0, 0]))
    @example(_with(_VERIFY_BASES["standard"], ready=[0, 0, "2/3", 0]))
    @settings(max_examples=200, deadline=None)
    def test_report_equals_the_dense_reference(self, c):
        # every field: verdict, reason, both residuals, the first defect
        # entry and the inferred readout
        assert verify_cloning(c) == oracles.verify_cloning(c)

    @pytest.mark.parametrize(
        "process, reason, residual",
        [
            # phi(0, b, 0) is phi's column 2, (1, 0, -1, 0, 0, 0)
            (_with(basic_cloner(), blank=[1, 0]),
             "offset image leaks into the object/copy blocks", 1),
            # the next three break the entry on an edge of its block
            (_with(basic_cloner(), phi=_basic_phi_with(1, 1, 3)),
             "first copy wrong on basis state 1", 2),
            (_with(basic_cloner(), phi=_basic_phi_with(2, 0, 0)),
             "second copy wrong on basis state 0", 1),
            (_with(basic_cloner(), readout=[[2, 0], [0, -1]]),
             "stored readout disagrees with the machine output on basis state 0", 1),
            # copies exactly with a zero readout, so only the pullback fails
            (_with(basic_cloner(), readout=[[0, 0], [0, 0]],
                   phi=[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
                        [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]),
             "readout does not pull the machine form back to -omega", 1),
        ],
        ids=["offset", "first copy", "second copy", "stored readout", "pullback"],
    )
    def test_each_reason(self, process, reason, residual):
        rep = verify_cloning(process)
        assert rep.verdict == "fail"
        assert rep.reason == reason
        assert rep.cloning_residual == residual
        assert rep == oracles.verify_cloning(process)


_CONJUGATION_BASES = {
    "basic": basic_cloner(),
    "standard": standard_cloner(3),
    "mirror": mirror_cloner(random_skew_form(6, random.Random(6))),
    "general": general_cloner(random_skew_form(8, random.Random(8))),
    "floor": defect_floor(3, 1)[0],  # copies, but is not symplectic
}


@st.composite
def _symplectic_maps(draw, form: SkewForm):
    """A product of one to three transvections of the form, and its inverse."""
    g = g_inv = RatMatrix.identity(form.dim)
    for _ in range(draw(st.integers(1, 3))):
        u = draw(st.lists(_ENTRIES, min_size=form.dim, max_size=form.dim))
        t, t_inv = oracles.transvection(form, u, draw(_ENTRIES))
        g, g_inv = t @ g, g_inv @ t_inv
    return g, g_inv


class TestConjugationLaw:
    """For g symplectic on (M, omega) and h on (N, sigma), phi' = (g + g + h)
    phi (g^-1 + I + I) with readout h F g^-1 is a cloning process iff phi is
    one: a symplectic change of coordinates on the object and the machine.
    The defect of phi' is that of phi congruent by g^-1 + I + I, so the two
    have the same rank."""

    @given(st.sampled_from(sorted(_CONJUGATION_BASES)), st.booleans(), st.data())
    @settings(max_examples=kernel_examples(30), deadline=None)
    def test_conjugate_clones_iff_the_process_does(self, name, perturb, data):
        c = _CONJUGATION_BASES[name]
        if perturb:  # one entry of phi raised by one
            grid = c.phi.tolist()
            i, j = (data.draw(st.integers(0, len(grid) - 1)) for _ in range(2))
            grid[i][j] += 1
            c = _with(c, phi=grid)
        g, g_inv = data.draw(_symplectic_maps(c.object_form))
        h, _ = data.draw(_symplectic_maps(c.machine_form))
        eye = RatMatrix.identity(c.object_dim + c.machine_dim)
        phi = RatMatrix.block_diag(g, g, h) @ c.phi @ RatMatrix.block_diag(g_inv, eye)
        conj = CloningProcess(
            c.object_form, c.blank, c.machine_form, c.ready, phi, h @ c.readout @ g_inv
        )
        before, after = verify_cloning(c), verify_cloning(conj)
        assert after.passed == before.passed
        assert perturb or before.passed == (name != "floor")
        total = c.total_form()
        rank = symplectic_defect(c.phi, total, total).rank()
        assert symplectic_defect(conj.phi, total, total).rank() == rank


def _scaled_machine(c: CloningProcess, scale: Fraction) -> CloningProcess:
    """c with phi's machine rows and the stored readout both times scale:
    the copying columns stay exactly (e_i, e_i, F e_i), and the readout
    defect of a passing c becomes (1 - scale^2) omega."""
    dm = c.object_dim
    phi = [row if i < 2 * dm else [scale * x for x in row] for i, row in enumerate(c.phi.tolist())]
    return _with(c, phi=phi, readout=[[scale * x for x in row] for row in c.readout.tolist()])


def _defect_calls(c: CloningProcess):
    """verify_cloning's report on c and its number of symplectic_defect calls."""
    kernel, calls = classical.symplectic_defect, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classical, "symplectic_defect", counted)
        rep = verify_cloning(c)
    return rep, len(calls)


_SCALES = _ENTRIES.filter(lambda x: x not in (0, 1, -1))
_OFFSETS = st.lists(_ENTRIES, min_size=2, max_size=2).filter(any)


class TestReadoutFromTheDefect:
    """With exact copying columns and no leaking offset, the readout defect
    F^T sigma F + omega is the object-object block of phi's defect, and the
    verifier reads it from there; otherwise it computes it on its own.
    Either way the report equals the dense reference."""

    @given(st.sampled_from(sorted(_VERIFY_BASES)), _SCALES)
    @example("basic", Fraction(2))
    @settings(max_examples=kernel_examples(50), deadline=None)
    def test_exact_copies_with_a_failing_readout(self, base, scale):
        c = _scaled_machine(_VERIFY_BASES[base], scale)
        rep, calls = _defect_calls(c)
        assert calls == 1
        assert rep.reason == "readout does not pull the machine form back to -omega"
        # F^T sigma F = -omega, so the defect is (1 - scale^2) omega
        assert rep.cloning_residual == abs(1 - scale**2) * c.object_form.matrix.max_abs()
        assert rep == oracles.verify_cloning(c)

    @given(st.sampled_from(sorted(_VERIFY_BASES)), _OFFSETS, st.data())
    @settings(max_examples=kernel_examples(50), deadline=None)
    def test_leaking_offsets_take_the_kernel(self, base, head, data):
        c = _VERIFY_BASES[base]
        # a nonzero blank leaks into the copy block of every base process
        blank = head + [data.draw(_ENTRIES) for _ in range(c.object_dim - 2)]
        ready = [data.draw(_ENTRIES) for _ in range(c.machine_dim)]
        if data.draw(st.booleans()):
            c = _scaled_machine(c, data.draw(_SCALES))
        c = _with(c, blank=blank, ready=ready)
        rep, calls = _defect_calls(c)
        assert calls == 2
        assert rep.reason == "offset image leaks into the object/copy blocks"
        assert rep == oracles.verify_cloning(c)

    def test_copying_columns_that_absorb_the_leak_take_the_kernel(self):
        # each copying column is (e_i, e_i, F e_i) minus the leak, so every
        # basis state copies exactly while the offset still leaks, and the
        # object-object block of the defect is not the readout defect
        c = _with(basic_cloner(), blank=[1, 0])
        leak = c.phi.apply(zero_vec(2) + c.blank + c.ready)[:4]
        phi = c.phi.tolist()
        for row, x in zip(phi, leak):
            row[0] -= x
            row[1] -= x
        c = _with(c, phi=phi)
        rep, calls = _defect_calls(c)
        assert calls == 2
        assert rep.reason == "offset image leaks into the object/copy blocks"
        assert rep == oracles.verify_cloning(c)

    def test_a_passing_process_makes_one_defect_call(self):
        rep, calls = _defect_calls(_VERIFY_BASES["general"])
        assert rep.passed and calls == 1


class TestReadoutSolver:
    def test_square_case_is_the_sign_flip(self):
        assert readout_solver(1, 1) == RatMatrix([[1, 0], [0, -1]])

    def test_machineless_case_is_infeasible(self):
        with pytest.raises(InfeasibleError) as exc:
            readout_solver(1, 0)
        assert exc.value.reason == "rank"

    def test_wide_case_pads_with_zero_rows(self):
        f = readout_solver(2, 3)
        assert f.shape == (6, 4)
        assert f.T @ standard_form(3).matrix @ f == -standard_form(2).matrix

    def test_exhaustive_grid(self):
        for m in range(9):
            for k in range(9):
                if k >= m:
                    f = readout_solver(m, k)
                    assert f.T @ standard_form(k).matrix @ f == -standard_form(m).matrix
                else:
                    with pytest.raises(InfeasibleError) as exc:
                        readout_solver(m, k)
                    assert exc.value.reason == "rank"


def _undersized_candidate(m: int, k: int, readout: RatMatrix) -> CloningProcess:
    dm, dn = 2 * m, 2 * k
    total = 2 * dm + dn
    return CloningProcess(
        object_form=standard_form(m),
        blank=zero_vec(dm),
        machine_form=standard_form(k),
        ready=zero_vec(dn),
        phi=RatMatrix.identity(total),
        readout=readout,
    )


class TestSizeWitness:
    def test_machineless_candidate(self):
        cand = _undersized_candidate(1, 0, RatMatrix.zeros(0, 2))
        w = size_witness(cand)
        assert any(x != 0 for x in w.vector)
        assert all(x == 0 for x in w.pullback_row)
        assert w.pairing != 0

    def test_undersized_readout_always_has_kernel(self):
        cand = _undersized_candidate(2, 1, RatMatrix([[1, 2, 3, 4], [0, 1, 0, 1]]))
        w = size_witness(cand)
        assert all(x == 0 for x in cand.readout.apply(w.vector))
        assert w.pairing != 0
        # the row is F^T sigma F applied to w, the pullback never formed
        F = cand.readout
        pullback = oracles.matmul(oracles.matmul(F.T, cand.machine_form.matrix), F)
        assert w.pullback_row == pullback.apply(w.vector)

    def test_equal_dims_not_applicable(self):
        cand = _undersized_candidate(1, 1, RatMatrix.identity(2))
        with pytest.raises(NotApplicableError):
            size_witness(cand)


class TestResidualProbe:
    def test_machineless_defect_matches_forced_bound(self):
        for m in (1, 2):
            best = clone_residual_probe(m, 0, 300, seed=4)
            assert best >= (2 * m) ** 0.5 - 1e-6

    def test_deterministic_for_fixed_seed(self):
        a = clone_residual_probe(2, 1, 200, seed=8)
        b = clone_residual_probe(2, 1, 200, seed=8)
        assert a == b
        assert a > 0

    @pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (4, 2)])
    def test_reaches_the_rank_bound(self, m, k):
        # the least defect with a 2k-dimensional machine is the one
        # defect_floor attains exactly: the search must find it, not merely
        # stay above it
        floor = math.sqrt(defect_floor(m, k)[1])
        best = clone_residual_probe(m, k, 5000, seed=0)
        assert floor - 1e-6 <= best <= floor + 1e-6

    @pytest.mark.parametrize("m,k", [(1, 0), (2, 0), (2, 1), (3, 1)])
    @pytest.mark.parametrize("iterations", [1, 9, 200, 2000])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_agrees_with_restarts_run_in_turn(self, m, k, iterations, seed):
        # the batch sums in another order than one restart at a time, so the
        # results agree to rounding, not bit for bit
        best = clone_residual_probe(m, k, iterations, seed)
        assert best == pytest.approx(oracles.clone_residual_probe(m, k, iterations, seed), rel=1e-6)

    def test_runs_without_scipy(self):
        code = (
            "import sys; sys.modules['scipy'] = None; import symclone.cli; "
            "from symclone import clone_residual_probe; "
            "print(clone_residual_probe(2, 1, 200, seed=8))"
        )
        src = str(Path(symclone.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert float(out.stdout) == clone_residual_probe(2, 1, 200, seed=8)

    def test_feasible_regime_rejected(self):
        with pytest.raises(NotApplicableError):
            clone_residual_probe(1, 1, 10, seed=0)
        with pytest.raises(NotApplicableError):
            clone_residual_probe(1, 2, 10, seed=0)

    def test_bad_iterations_rejected(self):
        with pytest.raises(ValueError):
            clone_residual_probe(2, 0, 0, seed=0)


def _tagged_objective(x):
    """Rows (tag, z1, z2): the tag picks the function of z, and its gradient
    entry is zero, so no step changes it."""
    f, g = np.empty(len(x)), np.zeros_like(x)
    for r, (tag, a, b) in enumerate(x):
        if tag in (0, 1):  # |z|^2 plus 1, or plus 1e12
            f[r] = (1.0 if tag == 0 else 1e12) + a * a + b * b
            g[r, 1:] = 2 * a, 2 * b
        elif tag == 2:  # Rosenbrock
            f[r] = (1 - a) ** 2 + 100 * (b - a * a) ** 2
            g[r, 1:] = -2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)
        elif tag == 3:  # |z|^2 with its gradient reversed
            f[r] = a * a + b * b
            g[r, 1:] = -2 * a, -2 * b
        elif tag == 4:  # an ill-conditioned quadratic
            f[r] = a * a + 10 * b * b
            g[r, 1:] = 2 * a, 20 * b
        else:  # cos z1 + cos z2, which curves down near 0
            f[r] = math.cos(a) + math.cos(b)
            g[r, 1:] = -math.sin(a), -math.sin(b)
    return f, g


class TestBatchedLbfgs:
    """Each row of the batch runs by its own rules, as if it ran alone."""

    STARTS = [[0, 0, 0], [1, 1, 1], [2, -1.2, 1], [3, 1, 2], [4, 1, 1], [5, 0.3, 0.2]]

    @staticmethod
    def alone(row, maxiter):
        def objective(z):
            f, g = _tagged_objective(z[None])
            return f[0], g[0]

        return oracles.lbfgs(objective, np.array(row, dtype=float), maxiter)

    @pytest.mark.parametrize("maxiter", [1, 2, 12, 40])
    def test_rows_match_their_runs_alone(self, maxiter):
        got = probe._lbfgs(_tagged_objective, np.array(self.STARTS, dtype=float), maxiter)
        want = [self.alone(row, maxiter) for row in self.STARTS]
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize(
        "m, k, seed, maxiter",
        [(m, k, seed, maxiter) for m, k in [(1, 0), (2, 1), (3, 1), (4, 2)] for seed in (0, 1)
         for maxiter in (9, 200)] + [(4, 2, 0, 625)],
    )
    def test_rows_equal_their_runs_alone_on_the_probe(self, m, k, seed, maxiter):
        # the probe's own objective on a full batch of eight rows, at the
        # numeric benchmark's sizes: the batch's shortcuts for rows that
        # agree run here, and every row must return exactly its lone run
        pinned, free, objective = oracles.probe_objective(m, k)

        def alone(z):
            f, g = objective(z.reshape(pinned.shape))
            return f, g.reshape(-1)

        def batch(x):
            values, grads = zip(*map(alone, x))
            return np.array(values), np.array(grads)

        rng = np.random.default_rng(seed)
        starts = (pinned + free * rng.standard_normal((8, *pinned.shape))).reshape(8, -1)
        got = probe._lbfgs(batch, starts, maxiter)
        assert got.tolist() == [oracles.lbfgs(alone, row, maxiter) for row in starts]

    def test_backtracking_takes_at_most_twenty_halvings(self):
        # row (c, z) minimizes c z^2 - z from z = 0; the first step has
        # length 1 along -grad and meets the Armijo test once halved to
        # at most 0.9999 / c: 0 to 20 halvings below c = 0.9999 * 2^20,
        # more beyond, where the row stops with its start value
        cs = [0.5, 6.0, 0.75 * 2**10, 0.75 * 2**19, 0.75 * 2**20, 0.99 * 2**20, 0.75 * 2**21, 0.75 * 2**25]

        def objective(x):
            c, z = x[:, 0], x[:, 1]
            return c * z * z - z, np.stack([np.zeros_like(z), 2 * c * z - 1], axis=1)

        def alone(row):
            f, g = objective(row[None])
            return f[0], g[0]

        starts = np.array([[c, 0.0] for c in cs])
        for maxiter in (1, 5):
            got = probe._lbfgs(objective, starts, maxiter)
            assert got.tolist() == [oracles.lbfgs(alone, row, maxiter) for row in starts]
            # 0, 3, 10, 19, 20 and 20 halvings move the first six rows; the
            # last two would need 21 and 25, and return their start value 0
            assert [x < 0 for x in got] == [True] * 6 + [False] * 2

    def test_rows_stop_for_different_reasons(self):
        stationary, ftol, maxiter, uphill, gtol, curved = self.STARTS
        # max |grad| <= _GTOL before the first step: the start is returned
        assert self.alone(stationary, 12) == 1.0
        # the first step lowers 1e12 + |z|^2 by less than _FTOL relative
        assert self.alone(ftol, 1) == self.alone(ftol, 40) < 1e12 + 2
        # Rosenbrock from (-1.2, 1) is still descending after 12 iterations
        assert self.alone(maxiter, 13) < self.alone(maxiter, 12)
        # every trial step goes uphill: 21 trials fail and the start is returned
        assert self.alone(uphill, 12) == 5.0
        # the quadratic converges to its gradient tolerance within 12
        assert self.alone(gtol, 12) == self.alone(gtol, 40) < 1e-10
        # the first step of the cos row (length 1 along -grad, accepted)
        # stays in |z| < pi/2, where cos curves down, so its pair has
        # s.y < 0 and is not kept: the row's ring turns without it
        z = np.array(curved[1:])
        new = z + np.sin(z) / np.linalg.norm(np.sin(z))
        assert np.cos(new).sum() < np.cos(z).sum() and np.abs(new).max() < math.pi / 2
        assert (new - z) @ (np.sin(z) - np.sin(new)) < 0


class TestDefectFloor:
    @pytest.mark.parametrize("m,k", [(m, k) for m in range(1, 6) for k in range(m)])
    def test_squared_defect_is_exactly_the_floor(self, m, k):
        process, squared = defect_floor(m, k)
        assert squared == 2 * (m - k)
        assert (process.object_dim, process.machine_dim) == (2 * m, 2 * k)
        # the copying columns are (x, x, Fx): a point of the probe's search space
        dm = 2 * m
        grid = process.phi.tolist()
        eye = RatMatrix.identity(dm).tolist()
        assert [row[:dm] for row in grid[: 2 * dm]] == eye + eye
        assert [row[:dm] for row in grid[2 * dm :]] == process.readout.tolist()
        # the squared defect again, from the dense reference product
        total = process.total_form().matrix
        pushed = oracles.matmul(oracles.matmul(process.phi.T, total), process.phi)
        assert sum((x - y) ** 2 for a, b in zip(pushed.tolist(), total.tolist()) for x, y in zip(a, b)) == squared

    def test_outside_the_infeasible_regime_is_rejected(self):
        with pytest.raises(NotApplicableError):
            defect_floor(2, 2)
        with pytest.raises(ValueError):
            defect_floor(2, -1)


class TestProcessSerialization:
    def test_round_trip(self):
        c = product_cloner(basic_cloner(), basic_cloner())
        data = c.to_json()
        again = CloningProcess.from_json(data)
        assert again.phi == c.phi
        assert again.blank == c.blank
        assert verify_cloning(again).passed

    def test_report_serializes_rationals_as_strings(self):
        rep = verify_cloning(basic_cloner())
        data = rep.to_json()
        assert data["symplectic_defect_norm"] == "0"
        assert data["verdict"] == "pass"


class TestBlankAndReadyCoercion:
    """Blank and ready are stored as exact vectors, however they are given."""

    @staticmethod
    def _process(**fields):
        c = basic_cloner()
        return CloningProcess(
            c.object_form, fields.get("blank", c.blank), c.machine_form,
            fields.get("ready", c.ready), c.phi, c.readout,
        )

    @pytest.mark.parametrize(
        "fields",
        [{"blank": (0.1, 0)}, {"blank": [0, 0.0]}, {"ready": (0, True)}, {"ready": [False, 0]}],
        ids=repr,
    )
    def test_floats_and_booleans_are_refused(self, fields):
        with pytest.raises(TypeError):
            self._process(**fields)

    def test_lists_and_strings_are_stored_as_exact_tuples(self):
        c = self._process(blank=[0, "0"], ready=["0/3", Fraction(0)])
        for v in (c.blank, c.ready):
            assert type(v) is tuple and all(type(x) is Fraction for x in v)
        assert c == basic_cloner()
        assert verify_cloning(c).passed

    def test_a_nonzero_ready_state_given_as_strings_verifies_and_round_trips(self):
        # an identity machine with ready state (1, 2) and no object
        c = CloningProcess(standard_form(0), [], standard_form(1), ["1", "2"],
                           RatMatrix.identity(2), RatMatrix.zeros(2, 0))
        assert c.blank == () and c.ready == (Fraction(1), Fraction(2))
        assert verify_cloning(c).passed
        assert verify_cloning(product_cloner(basic_cloner(), c)).passed
        again = CloningProcess.from_json(json.loads(json.dumps(c.to_json())))
        assert again == c
