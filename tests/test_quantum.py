import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symclone import (
    HypothesisViolationError,
    basis_cloner,
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
    slice_amplitudes,
)
from oracles import complex_matrix_to_json

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
