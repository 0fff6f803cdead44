import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefel_retract import (
    DimensionError,
    DomainError,
    NonFiniteError,
    NotOrthonormalError,
    RankDeficientError,
    UpperTriangularPositive,
    include_frame,
    retract,
    tri_solve_inverse,
    validate_frame,
    validate_injective,
    validate_rotation,
)
from stiefel_retract.core import max_abs, orthonormality_defect
from stiefel_retract.sampling import (
    conditioned_injective,
    generate_injective,
    random_dims,
)


class TestValidateInjective:
    def test_orthonormal_columns_accepted(self):
        raw = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        alpha = validate_injective(raw)
        assert np.array_equal(alpha.matrix, raw)
        assert alpha.condition_estimate == 1.0
        # Orthogonal columns of equal norm with entries +-1.5e308, where an
        # unscaled SVD overflows.
        raw = np.column_stack([np.ones(16), np.resize([1.0, -1.0], 16)]) * 1.5e308
        alpha = validate_injective(raw)
        assert np.array_equal(alpha.matrix, raw)
        assert abs(alpha.condition_estimate - 1.0) <= 4 * np.finfo(float).eps

    def test_duplicate_direction_rejected(self):
        raw = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(RankDeficientError):
            validate_injective(raw)

    def test_near_duplicate_direction_rejected(self):
        # Independent oracle: closed-form eigenvalues of the 2x2 Gram matrix
        # [[1, 1], [1, 1 + eps^2]] (trace 2 + eps^2, determinant eps^2 by
        # direct expansion), whose square roots are the singular values.
        eps = 1e-15
        trace = 2.0 + eps**2
        det = eps**2
        lam_hi = (trace + math.sqrt(trace**2 - 4.0 * det)) / 2.0
        lam_lo = det / lam_hi
        ratio = math.sqrt(lam_lo / lam_hi)
        assert ratio < 1e-10

        raw = np.array([[1.0, 1.0], [0.0, eps], [0.0, 0.0]])
        with pytest.raises(RankDeficientError):
            validate_injective(raw, tol_rank=1e-10)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            validate_injective(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        raw = np.eye(3)
        raw[1, 1] = bad
        with pytest.raises(NonFiniteError):
            validate_injective(raw)

    @pytest.mark.parametrize("tol", [0.0, 1.0, -0.5])
    def test_tol_rank_domain(self, tol):
        with pytest.raises(DomainError):
            validate_injective(np.eye(2), tol_rank=tol)

    def test_gram_matrix_positive_definite(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m, d = random_dims(rng, 64)
            alpha, _ = generate_injective(rng, m, d)
            np.linalg.cholesky(alpha.matrix.T @ alpha.matrix)


class TestValidateFrame:
    def test_standard_basis_columns(self):
        raw = np.eye(5)[:, :3]
        frame = validate_frame(raw)
        assert np.array_equal(frame.matrix, raw)

    def test_unit_vector(self):
        frame = validate_frame(np.array([[0.6], [0.8]]))
        assert frame.shape == (2, 1)

    def test_shear_rejected_with_deviation(self):
        with pytest.raises(NotOrthonormalError) as excinfo:
            validate_frame(np.array([[1.0, 1.0], [0.0, 1.0]]))
        # max-abs deviation of [[1,1],[1,2]] from the identity
        assert excinfo.value.deviation == pytest.approx(1.0)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            validate_frame(np.eye(2)[:1, :])

    def test_overflowing_gram_rejected_with_infinite_deviation(self):
        # Gram entries of both signs overflow and would sum to NaN, which no
        # tolerance comparison rejects; the defect must read inf instead.
        raw = conditioned_injective(np.random.default_rng(3), 16, 12, 1.0).matrix
        with pytest.raises(NotOrthonormalError) as excinfo:
            validate_frame(raw * 2.0**900)
        assert excinfo.value.deviation == math.inf
        turn = np.array([[0.6, -0.8], [0.8, 0.6]])
        with pytest.raises(NotOrthonormalError) as excinfo:
            validate_rotation(turn * 2.0**900)
        assert excinfo.value.deviation == math.inf


class TestIncludeFrame:
    def test_identity_on_entries(self):
        frame = validate_frame(np.array([[0.6], [0.8]]))
        alpha = include_frame(frame)
        assert np.array_equal(alpha.matrix, frame.matrix)
        assert alpha.condition_estimate == 1.0
        rng = np.random.default_rng(9)
        for _ in range(50):
            m, d = random_dims(rng, 32)
            frame = retract(generate_injective(rng, m, d, max_condition=1e6)[0])
            alpha = include_frame(frame)
            assert np.array_equal(alpha.matrix, frame.matrix)
            assert alpha.condition_estimate == 1.0

    def test_round_trip_revalidates(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m, d = random_dims(rng, 32)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
            frame = retract(alpha)
            validate_frame(include_frame(frame).matrix)


class TestValidateRotation:
    def test_identity(self):
        rot = validate_rotation(np.eye(4))
        assert rot.dim == 4

    def test_reflection_rejected(self):
        with pytest.raises(DomainError):
            validate_rotation(np.diag([1.0, -1.0]))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(NotOrthonormalError):
            validate_rotation(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        for raw in (np.eye(3)[:, :2], np.eye(3)[:2, :]):
            with pytest.raises(DimensionError):
                validate_rotation(raw)


class TestUpperTriangularPositive:
    def test_from_dense_round_trip(self):
        dense = np.array([[1.0, 2.0, 3.0], [0.0, 4.0, 5.0], [0.0, 0.0, 6.0]])
        u = UpperTriangularPositive.from_dense(dense)
        assert np.array_equal(u.to_dense(), dense)
        assert np.array_equal(u.diagonal(), [1.0, 4.0, 6.0])
        assert np.array_equal(u.packed, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(DomainError):
            UpperTriangularPositive.from_dense(np.diag([1.0, 0.0]))
        with pytest.raises(DomainError):
            UpperTriangularPositive.from_dense(np.diag([1.0, -2.0]))

    def test_nonzero_lower_rejected(self):
        with pytest.raises(DomainError):
            UpperTriangularPositive.from_dense(np.array([[1.0, 0.0], [0.1, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_lower_rejected(self, bad):
        with pytest.raises(DomainError):
            UpperTriangularPositive.from_dense(np.array([[1.0, 2.0], [bad, 3.0]]))

    def test_packed_length_checked(self):
        with pytest.raises(DimensionError):
            UpperTriangularPositive(dim=2, packed=np.array([1.0, 2.0]))


class TestTriSolveInverse:
    def test_identity(self):
        u = UpperTriangularPositive.from_dense(np.eye(3))
        assert np.array_equal(tri_solve_inverse(u).to_dense(), np.eye(3))

    def test_diagonal(self):
        u = UpperTriangularPositive.from_dense(np.diag([2.0, 4.0]))
        assert np.array_equal(tri_solve_inverse(u).to_dense(), np.diag([0.5, 0.25]))

    def test_hand_case_multiplies_back(self):
        u = UpperTriangularPositive.from_dense(np.array([[1.0, 2.0], [0.0, 4.0]]))
        v = tri_solve_inverse(u)
        assert np.array_equal(v.to_dense(), np.array([[1.0, -0.5], [0.0, 0.25]]))
        assert max_abs(u.to_dense() @ v.to_dense() - np.eye(2)) == 0.0
        assert max_abs(v.to_dense() @ u.to_dense() - np.eye(2)) == 0.0

    def test_diagonal_entries_are_reciprocals(self):
        rng = np.random.default_rng(5)
        diag = 10.0 ** rng.uniform(-3, 3, size=12)
        dense = np.triu(diag[:, None] * rng.uniform(-0.2, 0.2, size=(12, 12)), k=1)
        dense[np.diag_indices(12)] = diag
        v = tri_solve_inverse(UpperTriangularPositive.from_dense(dense))
        assert np.array_equal(v.diagonal(), 1.0 / diag)

    @settings(max_examples=50, deadline=None)
    @given(dim=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_involution_property(self, dim, seed):
        # Diagonals span [1e-3, 1e3]; off-diagonals scale with the row
        # diagonal so the triangle stays well conditioned.
        rng = np.random.default_rng(seed)
        diag = 10.0 ** rng.uniform(-3, 3, size=dim)
        noise = np.triu(rng.uniform(-0.25, 0.25, size=(dim, dim)), k=1)
        u = UpperTriangularPositive.from_dense(
            np.triu(diag[:, None] * (np.eye(dim) + noise))
        )
        again = tri_solve_inverse(tri_solve_inverse(u))
        assert max_abs(again.packed - u.packed) <= 1e-12


def test_matrices_are_read_only():
    alpha = validate_injective(np.eye(3))
    with pytest.raises(ValueError):
        alpha.matrix[0, 0] = 2.0


def test_orthonormality_defect_zero_for_identity():
    assert orthonormality_defect(np.eye(4)) == 0.0
