import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symclone import (
    HypothesisViolationError,
    ShapeError,
    basis_cloner,
    hilbert_cloning_diagram,
    is_isometry,
    kron,
    refute_cloning,
    standard_refutation,
)
from symclone.quantum import (
    complex_matrix_from_json,
    complex_vector_from_json,
    isometry_defect,
    random_isometry,
    random_state,
)
from conftest import kernel_examples
from oracles import complex_matrix_to_json, hilbert_readout, slice_amplitudes

CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


class TestKron:
    def test_identity_times_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_block_structure_against_elementwise_definition(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = kron(a, b)
        assert out.shape == (6, 6)
        for i in range(6):
            for j in range(6):
                assert out[i, j] == pytest.approx(a[i // 3, j // 3] * b[i % 3, j % 3])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_inner_product_multiplicativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c, d = (random_state(3, rng) for _ in range(4))
        lhs = np.vdot(np.kron(a, b), np.kron(c, d))
        rhs = np.vdot(a, c) * np.vdot(b, d)
        assert abs(lhs - rhs) < 1e-12

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        c, d = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        assert np.allclose(kron(a @ c, b @ d), kron(a, b) @ kron(c, d))

    @pytest.mark.parametrize(
        "shape_a, shape_b", [((1,), (1,)), ((), (1,)), ((1, 1), (1, 1))],
        ids=["1 by 1", "0-d by 1", "1x1 by 1x1"],
    )
    def test_single_entries_equal_np_kron_bit_for_bit(self, shape_a, shape_b):
        # numpy multiplies a fully contiguous (1, 1) outer product in another
        # loop, which rounds about half of all complex products differently
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
            b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
            assert np.array_equal(kron(a, b), np.kron(a, b))

    @given(
        st.lists(st.integers(0, 3), max_size=3),
        st.lists(st.integers(0, 3), max_size=3),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=kernel_examples(100), deadline=None)
    def test_equals_np_kron_bit_for_bit(self, shape_a, shape_b, complex_a, complex_b, transposed, seed):
        rng = np.random.default_rng(seed)

        def draw(shape, is_complex):
            # entries spread over many binades, so that any change of rounding shows
            x = rng.standard_normal(shape) * 2.0 ** rng.integers(-40, 40, shape)
            if is_complex:
                x = x + 1j * rng.standard_normal(shape) * 2.0 ** rng.integers(-40, 40, shape)
            return x.T if transposed else x  # a strided view for 2 or more axes

        a, b = draw(shape_a, complex_a), draw(shape_b, complex_b)
        out = kron(a, b)
        expected = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
        assert out.dtype == np.complex128
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)


class TestIsIsometry:
    def test_qr_unitary_passes(self):
        rng = np.random.default_rng(2)
        u = random_isometry(5, 5, rng)
        assert is_isometry(u)

    def test_scaling_fails(self):
        assert not is_isometry(2.0 * np.eye(2))

    def test_column_embedding_passes(self):
        # psi -> psi tensor |0>
        v = np.zeros((4, 2), dtype=complex)
        v[0, 0] = 1.0
        v[2, 1] = 1.0
        assert is_isometry(v)

    def test_wide_matrix_can_never_be_an_isometry(self):
        assert not is_isometry(np.ones((2, 4)))

    @pytest.mark.parametrize(
        "u",
        [random_isometry(n, n, np.random.default_rng(n)) for n in (1, 2, 5, 16, 64, 256)]
        + [random_isometry(9, 4, np.random.default_rng(9)), 2.0 * np.eye(3), np.zeros((0, 0)), np.zeros((3, 0)),
           np.random.default_rng(7).standard_normal((6, 6))],
        ids=["1", "2", "5", "16", "64", "256", "9x4", "2I", "0x0", "3x0", "not an isometry"],
    )
    def test_defect_equals_the_eye_difference_bit_for_bit(self, u):
        gram = u.conj().T @ u
        old = float(np.max(np.abs(gram - np.eye(u.shape[1])), initial=0.0))
        assert isometry_defect(u) == old

    @pytest.mark.parametrize(
        "u", [np.ones(4), np.stack([np.eye(2)] * 2), np.ones(())], ids=["vector", "stack", "scalar"]
    )
    def test_an_array_that_is_no_matrix_is_refused_by_shape(self, u):
        # a vector used to raise IndexError, and the stack of two identities
        # to give a defect of 1.0 and a plain False
        message = f"U must be a matrix, got an array of shape {u.shape}"
        for check in (isometry_defect, is_isometry):
            with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                check(u)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0)])
    def test_map_with_no_columns_is_vacuously_an_isometry(self, shape):
        assert isometry_defect(np.zeros(shape)) == 0.0
        assert is_isometry(np.zeros(shape))

    def test_random_isometry_needs_rows_at_least_cols(self):
        with pytest.raises(ValueError, match="^an isometry needs rows >= cols$"):
            random_isometry(2, 3, np.random.default_rng(0))

    def test_preserves_inner_products_on_random_pairs(self):
        rng = np.random.default_rng(3)
        u = random_isometry(6, 4, rng)
        for _ in range(100):
            x, y = random_state(4, rng), random_state(4, rng)
            assert abs(np.vdot(u @ x, u @ y) - np.vdot(x, y)) <= 1e-8


class TestBasisCloner:
    def test_dimension_two_is_cnot(self):
        assert np.allclose(basis_cloner(2), CNOT)

    def test_copies_basis_states(self):
        for d in (2, 3, 4):
            u = basis_cloner(d)
            for i in range(d):
                inp = np.kron(np.eye(d)[:, i], np.eye(d)[:, 0])
                expected = np.kron(np.eye(d)[:, i], np.eye(d)[:, i])
                assert np.allclose(u @ inp, expected)

    def test_unitary_for_small_dims(self):
        for d in (1, 2, 3, 4):
            assert is_isometry(basis_cloner(d))
            assert isometry_defect(basis_cloner(d)) == 0.0

    @pytest.mark.parametrize("d", range(1, 9))
    def test_is_an_isometry(self, d):
        # standard_refutation relies on this and skips the check
        assert is_isometry(basis_cloner(d))

    def test_fails_on_sampled_superpositions(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4):
            u = basis_cloner(d)
            for _ in range(10):
                psi = random_state(d, rng)
                if max(abs(psi)) > 0.99:  # effectively a basis state; skip
                    continue
                out = u @ np.kron(psi, np.eye(d)[:, 0])
                residual = np.linalg.norm(out - np.kron(psi, psi))
                assert residual > 0.1


class TestRefutation:
    def test_cnot_example_values(self):
        r = standard_refutation(2)
        assert r.cauchy_schwarz_excess == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
        assert r.cloning_residual == pytest.approx(math.sqrt(2 - math.sqrt(2)), abs=1e-12)
        assert abs(r.preserved_overlap - r.overlap) < 1e-12

    @pytest.mark.parametrize("overlap", [0.3, 2 ** -0.5, 0.9])
    @pytest.mark.parametrize("d", range(2, 7))
    def test_standard_refutation_is_refute_cloning_on_the_basis_cloner(self, d, overlap):
        e0, e1 = np.eye(d)[:, 0], np.eye(d)[:, 1]
        psi2 = overlap * e0 + np.sqrt(1.0 - overlap**2) * e1
        want = refute_cloning(basis_cloner(d), e0, [1.0], e0, psi2)
        got = standard_refutation(d, overlap)
        assert got.to_json() == want.to_json()
        for name in ("overlap", "preserved_overlap", "implied_machine_overlap",
                     "cauchy_schwarz_excess", "cloning_residual", "residual_per_state"):
            assert getattr(got, name) == getattr(want, name)

    def test_dimension_one_has_no_valid_pair(self):
        with pytest.raises(HypothesisViolationError, match="no valid state pair"):
            standard_refutation(1)

    def test_orthogonal_pair_rejected(self):
        e0, e1 = np.eye(2)[:, 0], np.eye(2)[:, 1]
        with pytest.raises(HypothesisViolationError):
            refute_cloning(CNOT, e0, [1.0], e0, e1)

    def test_parallel_pair_rejected(self):
        e0 = np.eye(2)[:, 0]
        with pytest.raises(HypothesisViolationError):
            refute_cloning(CNOT, e0, [1.0], e0, e0)

    def test_non_isometry_rejected(self):
        e0 = np.eye(2)[:, 0]
        psi2 = np.array([1.0, 1.0]) / math.sqrt(2)
        with pytest.raises(ValueError, match="isometry"):
            refute_cloning(2.0 * np.eye(4), e0, [1.0], e0, psi2)

    @pytest.mark.parametrize("u", [np.ones(4), np.stack([np.eye(4)] * 2)], ids=["vector", "stack"])
    def test_an_array_that_is_no_matrix_is_refused(self, u):
        e0 = np.eye(2)[:, 0]
        psi2 = np.array([1.0, 1.0]) / math.sqrt(2)
        with pytest.raises(ShapeError, match="U must be a matrix"):
            refute_cloning(u, e0, [1.0], e0, psi2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["beta", "rho", "psi", "psi2"])
    def test_non_finite_state_is_refused_by_name(self, name, bad):
        args = {"beta": [1.0, 0.0], "rho": [1.0], "psi": [1.0, 0.0], "psi2": [2**-0.5, 2**-0.5]}
        args[name] = [bad] + args[name][1:]
        with pytest.raises(ValueError, match=f"^{name} must be a unit vector"):
            refute_cloning(basis_cloner(2), **args)

    @pytest.mark.parametrize("overlap", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_standard_refutation_needs_an_overlap_inside_the_unit_interval(self, overlap):
        with pytest.raises(HypothesisViolationError, match="^overlap must lie strictly between 0 and 1$"):
            standard_refutation(2, overlap)

    def test_standard_refutation_at_the_cli_cap_stays_small(self):
        # the d^2 x d^2 basis cloner alone would take 256 MB at d = 64
        tracemalloc.start()
        try:
            standard_refutation(64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_per_state_reference(self, seed):
        # the refuter reads W psi with W = U (I x beta x rho); the reference
        # applies U to psi x beta x rho, one state at a time
        rng = np.random.default_rng(seed)
        for d, dk in [(2, 1), (2, 3), (3, 2), (4, 1)]:
            n = d * d * dk
            u = random_isometry(n, n, rng)
            beta, rho, psi, psi2 = (random_state(k, rng) for k in (d, dk, d, d))
            r = refute_cloning(u, beta, rho, psi, psi2)
            outputs = [u @ np.kron(np.kron(x, beta), rho) for x in (psi, psi2)]
            assert abs(r.preserved_overlap - np.vdot(*outputs)) <= 1e-12
            for x, out, got in zip((psi, psi2), outputs, r.residual_per_state):
                amps = [np.vdot(np.kron(np.kron(x, x), np.eye(dk)[:, j]), out) for j in range(dk)]
                assert abs(got - math.sqrt(max(0.0, 2.0 - 2.0 * np.linalg.norm(amps)))) <= 1e-12

    @pytest.mark.parametrize(
        "u, beta, psi, message",
        [
            (np.eye(8), [1.0, 0.0], [1.0, 0.0], "candidate arrow does not act on object x copy x machine"),
            (random_isometry(8, 4, np.random.default_rng(0)), [1.0, 0.0], [1.0, 0.0],
             "candidate arrow does not act on object x copy x machine"),
            (np.eye(8), [1.0, 0.0, 0.0, 0.0], [1.0, 0.0], "candidate arrow does not act on object x copy x machine"),
            (CNOT, [1.0, 0.0], [1.0, 0.0, 0.0], "state length does not match the object dimension"),
        ],
        ids=["square, not d^2 dk", "not square", "blank longer than psi", "psi longer than blank"],
    )
    def test_a_wrong_shape_is_refused(self, u, beta, psi, message):
        psi2 = np.ones(len(psi)) / math.sqrt(len(psi))
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            refute_cloning(u, beta, [1.0], psi, psi2)
        if message.startswith("candidate"):  # the same check as the diagram's
            with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                hilbert_cloning_diagram(u, beta)

    def test_excess_positive_for_random_isometries_and_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            dk = int(rng.integers(1, 3))
            u = random_isometry(d * d * dk, d * d * dk, rng)
            beta = random_state(d, rng)
            rho = random_state(dk, rng)
            while True:
                psi, psi2 = random_state(d, rng), random_state(d, rng)
                t = abs(np.vdot(psi, psi2))
                if 1e-6 < t <= 0.99:
                    break
            r = refute_cloning(u, beta, rho, psi, psi2)
            assert r.cauchy_schwarz_excess >= 1e-6
            # isometry preserves the prepared overlap
            assert abs(r.preserved_overlap - r.overlap) < 1e-8


class TestSliceAmplitudes:
    @pytest.mark.parametrize("d, dk", [(2, 1), (2, 3), (3, 2), (4, 16)])
    def test_matches_the_per_basis_projection(self, d, dk):
        rng = np.random.default_rng(11 * d + dk)
        for _ in range(5):
            U = random_isometry(d * d * dk, d * d * dk, rng)
            x, beta, rho = random_state(d, rng), random_state(d, rng), random_state(dk, rng)
            out = U @ np.kron(np.kron(x, beta), rho)
            expected = [np.vdot(np.kron(np.kron(x, x), np.eye(dk)[:, j]), out) for j in range(dk)]
            assert np.max(np.abs(slice_amplitudes(U, x, beta, rho) - expected)) <= 1e-12

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=kernel_examples(50), deadline=None)
    def test_equals_the_np_kron_expression_bit_for_bit(self, d, dk, seed):
        rng = np.random.default_rng(seed)
        U = random_isometry(d * d * dk, d * d * dk, rng)
        x, beta, rho = random_state(d, rng), random_state(d, rng), random_state(dk, rng)
        expected = np.kron(x, x).conj() @ (U @ np.kron(np.kron(x, beta), rho)).reshape(d * d, dk)
        assert np.array_equal(slice_amplitudes(U, x, beta, rho), expected)


class TestDiagramReadout:
    """The readout takes a block of states, the columns of Psi, and makes one
    product with W; the reference reads out one state at a time."""

    @staticmethod
    def assert_columns_match_the_reference(U, beta, rho, states):
        _, diagram = hilbert_cloning_diagram(U, beta, rho)
        got = diagram.readout(np.stack(states, axis=1))
        assert got.shape == (len(rho), len(states))
        reference = hilbert_readout(U, beta, rho)
        for col, x in zip(got.T, states):
            assert np.max(np.abs(col - reference(x))) <= 1e-12
        return got

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=kernel_examples(50), deadline=None)
    def test_reads_the_slice_amplitudes_of_the_output(self, d, dk, seed):
        # the readout multiplies Psi by U (I x beta x rho), formed once; the
        # reference multiplies psi x beta x rho by U
        rng = np.random.default_rng(seed)
        U = random_isometry(d * d * dk, d * d * dk, rng)
        beta, rho = random_state(d, rng), random_state(dk, rng)
        _, diagram = hilbert_cloning_diagram(U, beta, rho)
        xs = [random_state(d, rng) for _ in range(3)]
        for x, col in zip(xs, diagram.readout(np.stack(xs, axis=1)).T):
            amps = slice_amplitudes(U, x, beta, rho)
            norm = float(np.linalg.norm(amps))
            if norm >= 1e-2:  # a smaller norm magnifies the rounding of both
                assert np.max(np.abs(col - amps / norm)) <= 1e-12

    @pytest.mark.parametrize("count", [1, 256, 257])
    def test_a_block_matches_the_per_state_reference(self, count):
        # the numeric benchmark's size, d = 4 beside a 16-dimensional machine
        rng = np.random.default_rng(count)
        U = random_isometry(256, 256, rng)
        beta, rho = random_state(4, rng), random_state(16, rng)
        self.assert_columns_match_the_reference(U, beta, rho, [random_state(4, rng) for _ in range(count)])

    def test_fallback_and_ordinary_columns_in_one_block(self):
        # the basis cloner beside an idle machine maps psi to amplitudes
        # sum_a |psi_a|^2 conj(psi_a) rho on the slice, which vanish at the
        # Fourier state (1, w, w^2) / sqrt(3); the identity's slice has the
        # one amplitude conj(psi_1), below FLOAT_TOL at psi_1 = 1e-10
        rng = np.random.default_rng(3)
        w = np.exp(2j * np.pi / 3)
        fourier = np.array([1, w, w * w]) / math.sqrt(3)
        states = [fourier, np.eye(3)[:, 1], random_state(3, rng), fourier.conj(), random_state(3, rng)]
        U = np.kron(basis_cloner(3), np.eye(2))
        got = self.assert_columns_match_the_reference(U, np.eye(3)[:, 0], random_state(2, rng), states)
        assert [np.array_equal(col, [1, 0]) for col in got.T] == [True, False, False, True, False]
        states = [np.array([1.0, eps]) / math.hypot(1.0, eps) for eps in (1.0, 0.0, 1e-8, 1e-10, 2e-9)]
        got = self.assert_columns_match_the_reference(np.eye(8), [0.0, 1.0], [0.0, 1.0], states)
        assert [np.array_equal(col, [1, 0]) for col in got.T] == [False, True, False, True, False]


class TestComplexSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        data = complex_matrix_to_json(a)
        assert data["rows"] == 3 and data["cols"] == 2
        assert np.allclose(complex_matrix_from_json(data), a)

    @pytest.mark.parametrize(
        "part, error",
        [(math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
         (10**400, ValueError), (True, TypeError), (False, TypeError), ("1", TypeError)],
        ids=["nan", "inf", "-inf", "int past the double range", "true", "false", "string"],
    )
    def test_parts_must_be_finite_json_numbers(self, part, error):
        # json.load reads NaN and Infinity tokens, and complex() takes booleans
        with pytest.raises(error):
            complex_matrix_from_json({"rows": 1, "cols": 1, "entries": [[[part, 0.0]]]})
        with pytest.raises(error):
            complex_vector_from_json([[1.0, 0.0], [0.0, part]])
