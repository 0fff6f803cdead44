import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefel_retract import (
    DimensionError,
    DomainError,
    MatrixFormatError,
    NonFiniteError,
    NotOrthonormalError,
    RankDeficientError,
    StiefelRetractError,
    UpperTriangularPositive,
    include_frame,
    random_rotation,
    retract,
    sphere_interpolant,
    tri_solve_inverse,
    validate_frame,
    validate_injective,
    validate_rotation,
)
from stiefel_retract import core
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
            validate_injective(raw)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            validate_injective(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "raw, message",
        [
            (np.ones(3), "2-d"),
            (np.ones((2, 2, 2)), "2-d"),
            (np.ones((0, 2)), "positive"),
            (np.ones((2, 0)), "positive"),
        ],
        ids=["vector", "stack", "no-rows", "no-columns"],
    )
    def test_not_a_nonempty_matrix_rejected(self, raw, message):
        with pytest.raises(DimensionError, match=message):
            validate_injective(raw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        raw = np.eye(3)
        raw[1, 1] = bad
        with pytest.raises(NonFiniteError):
            validate_injective(raw)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "raw",
        [
            np.array([[1.0 + 1.0j], [2.0]]),
            [[1.0, 2.0], [3.0]],
            [["a"], ["b"]],
            [["1.5"], ["2"]],
            np.array([[b"1.5"], [b"2"]]),
            [[None], [1.0]],
        ],
        ids=["complex", "ragged", "text", "numeric-text", "bytes", "object"],
    )
    def test_unreadable_input_raises_a_library_error(self, raw):
        # Complex entries would lose their imaginary part to numpy's cast;
        # text, numeric or not, is the parsers' to read.
        with pytest.raises(MatrixFormatError):
            validate_injective(raw)

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

    @pytest.mark.parametrize(
        "rotation, scale",
        [
            (random_rotation(32, 7).matrix, 1 + 0.45e-10),
            (np.eye(8), 1 + 0.4e-10),
            (np.eye(64), 1 + 0.4e-10),
        ],
        ids=["haar-32", "identity-8", "identity-64"],
    )
    def test_orthonormal_within_tolerance_accepted(self, rotation, scale):
        # Once the columns pass the frame rule, the determinant is +-1
        # within roundoff and its sign alone decides; here it is about
        # 1 + d * (scale - 1), further from 1 than the Gram defect.
        raw = rotation * scale
        assert orthonormality_defect(raw) <= 1e-10
        assert np.array_equal(validate_rotation(raw).matrix, raw)

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

    def test_non_square_one_d_and_empty_rejected(self):
        for raw in (np.ones((2, 3)), np.ones(3), np.ones((0, 0))):
            with pytest.raises(DimensionError):
                UpperTriangularPositive(matrix=raw)


@pytest.mark.parametrize(
    "build, raw",
    [
        (validate_injective, [[2.0, 1.0], [0.0, 3.0]]),
        (validate_frame, [[0.0], [1.0]]),
        (validate_rotation, [[0.0, -1.0], [1.0, 0.0]]),
        (UpperTriangularPositive, [[2.0, 1.0], [0.0, 3.0]]),
    ],
    ids=["InjectiveMap", "StiefelFrame", "Rotation", "UpperTriangularPositive"],
)
def test_every_type_wraps_a_read_only_matrix(build, raw):
    wrapped = build(raw)
    assert np.array_equal(wrapped.matrix, raw)
    with pytest.raises(ValueError):
        wrapped.matrix[0, 0] = 5.0


def test_to_dense_is_a_writable_copy_of_the_matrix():
    u = UpperTriangularPositive(matrix=[[2.0, 1.0], [0.0, 3.0]])
    dense = u.to_dense()
    assert np.array_equal(dense, u.matrix) and dense is not u.matrix
    dense[0, 0] = 5.0
    assert u.matrix[0, 0] == 2.0


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
        assert max_abs(again.matrix - u.matrix) <= 1e-12


def test_matrices_are_read_only():
    alpha = validate_injective(np.eye(3))
    with pytest.raises(ValueError):
        alpha.matrix[0, 0] = 2.0


def test_orthonormality_defect_zero_for_identity():
    assert orthonormality_defect(np.eye(4)) == 0.0


#: Per kind of unreadable input: the entries of a 1 x 1 triangle, given to
#: the constructor and to from_dense, and of a vector.
UNREADABLE = {
    "complex": (
        np.array([[1.0 + 1.0j]]),
        np.array([[1.0 + 1.0j]]),
        np.array([1.0 + 1.0j, 2.0]),
    ),
    "ragged": ([[1.0, 2.0], [3.0]],) * 3,
    "text": ([["2"]], [["1"]], ["3", "4"]),
}
READERS = (
    lambda raw: UpperTriangularPositive(matrix=raw),
    UpperTriangularPositive.from_dense,
    lambda raw: sphere_interpolant(raw, 0.5),
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(UNREADABLE))
@pytest.mark.parametrize("reader", range(3), ids=["matrix", "from_dense", "sphere_interpolant"])
def test_every_array_reader_rejects_unreadable_input(reader, kind):
    # Triangles and vectors are read by the same rule as matrices.
    with pytest.raises(MatrixFormatError):
        READERS[reader](UNREADABLE[kind][reader])


@pytest.mark.parametrize("condition", [0.5, float("nan")])
def test_conditioned_injective_rejects_a_condition_below_one(condition):
    # A library error, and NaN stops here rather than in validation.
    with pytest.raises(DomainError):
        conditioned_injective(np.random.default_rng(0), 4, 2, condition)


def test_conditioned_injective_rejects_an_infinite_condition():
    # A DomainError before any numpy call: np.logspace would warn and the
    # NaN matrix would be blamed on the caller.
    with pytest.raises(DomainError, match="finite"):
        conditioned_injective(np.random.default_rng(0), 4, 2, float("inf"))


def _conditioned_family():
    rng = np.random.default_rng(24)
    for _ in range(40):
        m = int(rng.integers(1, 301))
        d = int(rng.integers(1, min(m, 120) + 1))
        yield m, d, float(10.0 ** rng.uniform(0.0, 6.0)), int(rng.integers(2**31))
    yield from [(2000, 100, 9e5, 1), (256, 256, 9e5, 2), (40, 1, 1e5, 3), (9, 5, 1.0, 4)]


def test_conditioned_estimate_agrees_with_the_svd_of_the_returned_matrix():
    for m, d, condition, seed in _conditioned_family():
        alpha = conditioned_injective(np.random.default_rng(seed), m, d, condition)
        sv = np.linalg.svd(alpha.matrix, compute_uv=False)
        assert alpha.condition_estimate == pytest.approx(sv[0] / sv[-1], rel=1e-8)
        if d == 1 or condition == 1.0:
            assert alpha.condition_estimate == 1.0


def test_conditioned_injective_returns_the_prescribed_product():
    for m, d, condition, seed in list(_conditioned_family())[::4]:
        rng = np.random.default_rng(seed)
        twin = copy.deepcopy(rng)
        alpha = conditioned_injective(rng, m, d, condition)
        u, _ = np.linalg.qr(twin.standard_normal((m, d)))
        v, _ = np.linalg.qr(twin.standard_normal((d, d)))
        sigma = np.logspace(0.0, -np.log10(condition), num=d)
        assert alpha.matrix.tobytes() == (u @ (sigma[:, None] * v.T)).tobytes()
        assert alpha.matrix.flags.f_contiguous and not alpha.matrix.flags.writeable
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("shape", [(8, 4), (60, 12)])
def test_conditioned_injective_keeps_the_rank_rule(shape):
    # The prescribed ratio meets the rule's threshold exactly at 1e10; a
    # verdict taken from the spectrum without the rule would accept 1e300.
    rng = np.random.default_rng(7)
    assert conditioned_injective(rng, *shape, 9.99e9).condition_estimate < 1e10
    for condition in (1e10, 1e16, 1e300):
        with pytest.raises(RankDeficientError, match=f"{1 / condition:.3e}"):
            conditioned_injective(rng, *shape, condition)
    assert conditioned_injective(rng, shape[0], 1, 1e300).condition_estimate == 1.0


def test_conditioned_injective_runs_no_svd_of_the_product(monkeypatch):
    def refuse(a):
        raise AssertionError("condition_estimates called")

    monkeypatch.setattr(core, "condition_estimates", refuse)
    alpha = conditioned_injective(np.random.default_rng(0), 30, 10, 1e5)
    assert alpha.condition_estimate == pytest.approx(1e5, rel=1e-12)


@pytest.mark.parametrize(
    "draw, error",
    [
        (lambda rng: generate_injective(rng, 4, 2.0), DomainError),
        (lambda rng: generate_injective(rng, 4.0, 2), DomainError),
        (lambda rng: conditioned_injective(rng, 4.0, 2, 10.0), DomainError),
        (lambda rng: conditioned_injective(rng, 4, 2, "10"), MatrixFormatError),
        (lambda rng: random_dims(rng, 4.5), DomainError),
    ],
    ids=["generate_d", "generate_m", "conditioned_m", "conditioned_text", "random_dims"],
)
def test_sampling_reads_counts_as_integers(draw, error):
    # Library errors, not numpy's TypeError or a shape drawn from 4.5.
    with pytest.raises(error):
        draw(np.random.default_rng(0))


@pytest.mark.parametrize(
    "max_condition, error",
    [("x", MatrixFormatError), ([1.0, 2.0], DomainError), (1 + 2j, MatrixFormatError)],
    ids=["text", "list", "complex"],
)
def test_generate_injective_reads_max_condition_before_drawing(max_condition, error):
    # Library errors instead of the builtin TypeError from comparing a
    # condition estimate with the bound, and raised before the first draw.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(error):
        generate_injective(rng, 3, 2, max_condition=max_condition)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("m, d", [(3, 4), (0, 1), (3, 0), (-1, -2)])
def test_conditioned_injective_rejects_a_shape_before_drawing(m, d):
    # A library error instead of numpy's matmul or shape ValueError, and the
    # generator is left as it was.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DimensionError, match=f"d <= m for an injective map, got {m}x{d}"):
        conditioned_injective(rng, m, d, 10.0)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("m, d", [(3, 4), (0, 1), (3, 0), (-1, 2)])
def test_generate_injective_rejects_a_shape_before_drawing(m, d):
    # The same rule and message as conditioned_injective: a library error
    # instead of numpy's "negative dimensions" ValueError, and no draw.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DimensionError, match=f"d <= m for an injective map, got {m}x{d}"):
        generate_injective(rng, m, d)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda rng: generate_injective(rng, 2**70, 1), DimensionError),
        (lambda rng: conditioned_injective(rng, 2**70, 1, 10.0), DimensionError),
        (lambda rng: random_rotation(2**70, 0), DomainError),
        (lambda rng: random_rotation(2**40, 0), DomainError),
        (lambda rng: random_dims(rng, 2**70), DomainError),
    ],
    ids=["generate", "conditioned", "rotation-dim", "rotation-size", "random-dims"],
)
def test_counts_past_the_largest_array_rejected_before_drawing(call, error):
    # Library errors instead of numpy's "Maximum allowed dimension
    # exceeded", "array is too big" and "high is out of bounds for int64",
    # raised by arithmetic on the count, so nothing is drawn or allocated.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(error):
        call(rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("max_m", [0, -3])
def test_random_dims_rejects_a_bound_below_one(max_m):
    # A library error instead of numpy's "low >= high".
    with pytest.raises(DomainError, match=f"max_m must be positive, got {max_m}"):
        random_dims(np.random.default_rng(0), max_m)


class _Draws:
    """A generator stand-in whose ``uniform`` returns the given draws in
    turn and then repeats the last one."""

    def __init__(self, *draws):
        self.draws = [np.array(d, dtype=float) for d in draws]

    def uniform(self, low, high, size):
        draw = self.draws.pop(0) if len(self.draws) > 1 else self.draws[0]
        assert draw.shape == size
        return draw


def test_generate_injective_counts_each_rejected_draw():
    # A rank-deficient draw, then one past max_condition (condition 1e3),
    # then the identity.
    draws = _Draws(np.zeros((3, 2)), [[1.0, 0.0], [0.0, 1e-3], [0.0, 0.0]], np.eye(3)[:, :2])
    alpha, resamples = generate_injective(draws, 3, 2, max_condition=10.0)
    assert resamples == 2
    assert np.array_equal(alpha.matrix, np.eye(3)[:, :2])


def test_generate_injective_gives_up_after_max_tries():
    with pytest.raises(StiefelRetractError, match="could not generate a valid 2x1"):
        generate_injective(_Draws(np.zeros((2, 1))), 2, 1)


@pytest.mark.filterwarnings("error")
def test_orthonormality_defect_of_a_matrix_is_that_of_its_stack_of_one():
    rng = np.random.default_rng(57)
    matrices = [
        np.eye(4),
        rng.standard_normal((10, 5)),
        retract(validate_injective(rng.standard_normal((16, 12)))).matrix,
        # The Gram product overflows to inf, and in the second sums
        # overflows of both signs to NaN; both defects read inf.
        1e160 * np.eye(3)[:, :2],
        np.array([[1e200, -1e200], [1e200, 1e200]]),
    ]
    for a in matrices:
        single = orthonormality_defect(a)
        assert type(single) is float
        assert single == orthonormality_defect(a[None])[0]
    assert math.isinf(single)
