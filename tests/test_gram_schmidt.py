import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefel_retract import (
    DimensionError,
    InjectiveMap,
    InternalRankLossError,
    NumericalRankLossError,
    RankDeficientError,
    coefficient_matrix,
    homotopy_step,
    householder_qr_oracle,
    include_frame,
    orthonormalize,
    qr_decompose,
    retract,
    trace_path,
    validate_injective,
)
from stiefel_retract import core, gram_schmidt
from stiefel_retract.equivariance import check_equivariance, random_rotation
from stiefel_retract.core import DEFAULT_TOL_RANK, max_abs, orthonormality_defect
from stiefel_retract.sampling import (
    conditioned_injective,
    generate_injective,
    random_dims,
)

HAND_INPUT = np.array([[2.0, 1.0], [0.0, 3.0]])
HAND_COEFF = np.array([[0.5, -1.0 / 6.0], [0.0, 1.0 / 3.0]])
# Subnormal entries: valid input whose coefficients (about 1e310) overflow.
TINY_INPUT = np.random.default_rng(0).standard_normal((5, 3)) * 1e-310

# Orthogonal columns of norm about 2.1e308: valid input with condition 1,
# whose R (and with it M) lies past the float range while its frame does not.
HUGE_INPUT = np.array([[1.5e308, 1.5e308], [1.5e308, -1.5e308]])


def _inductive_coefficients(a: np.ndarray) -> np.ndarray:
    """Dense upper-triangular coefficients built by the inductive update.

    Column i is accumulated from the expansion of the projections in the
    previous columns' coefficients, then scaled by the residual norm. Used
    only as an independent cross-check of the triangular-solve route.
    """
    d = a.shape[1]
    lam = np.zeros((d, d))
    for i in range(d):
        lam_t = np.zeros(d)
        lam_t[i] = 1.0
        if i:
            prev = a @ lam[:, :i]
            proj = prev.T @ a[:, i]
            lam_t[:i] = -(lam[:i, :i] @ proj)
        residual = a @ lam_t
        lam[:, i] = lam_t / np.linalg.norm(residual)
    return lam


class TestOrthonormalize:
    def test_standard_basis_columns_fixed(self):
        alpha = validate_injective(np.eye(5)[:, :3])
        res = orthonormalize(alpha)
        assert np.array_equal(res.frame.matrix, alpha.matrix)
        assert np.array_equal(res.coefficient_matrix.to_dense(), np.eye(3))

    def test_hand_case(self):
        alpha = validate_injective(HAND_INPUT)
        res = orthonormalize(alpha)
        assert max_abs(_inductive_coefficients(HAND_INPUT) - res.coefficient_matrix.to_dense()) <= 1e-8
        assert max_abs(res.frame.matrix - np.eye(2)) <= 1e-14
        assert max_abs(res.coefficient_matrix.to_dense() - HAND_COEFF) <= 1e-14
        # reconstruction: input @ coefficients lands on the frame
        assert max_abs(HAND_INPUT @ res.coefficient_matrix.to_dense() - np.eye(2)) <= 1e-14
        assert np.array_equal(res.triangular_factor.diagonal(), [2.0, 3.0])

    def test_single_column(self):
        alpha = validate_injective(np.array([[3.0], [4.0]]))
        res = orthonormalize(alpha)
        assert np.array_equal(res.frame.matrix, np.array([[0.6], [0.8]]))
        assert np.array_equal(res.coefficient_matrix.to_dense(), [[0.2]])
        assert np.array_equal(res.triangular_factor.diagonal(), [5.0])

    def test_one_by_one_is_reciprocal_norm(self):
        res = orthonormalize(validate_injective([[2.0]]))
        assert np.array_equal(res.coefficient_matrix.to_dense(), [[0.5]])

    def test_diagonal_reciprocal_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m, d = random_dims(rng, 24)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
            res = orthonormalize(alpha)
            rel = np.abs(
                res.coefficient_matrix.diagonal() * res.triangular_factor.diagonal() - 1.0
            )
            assert rel.max() <= 1e-12

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            m, d = random_dims(rng, 48)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
            res = orthonormalize(alpha)
            assert orthonormality_defect(res.frame.matrix) <= 1e-10
            assert (
                max_abs(alpha.matrix @ res.coefficient_matrix.to_dense() - res.frame.matrix)
                <= 1e-10
            )

    def test_inductive_replay_matches_triangular_route(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m, d = random_dims(rng, 12)
            alpha = conditioned_injective(rng, m, d, 10.0 ** rng.uniform(0, 3))
            res = orthonormalize(alpha)
            replay = _inductive_coefficients(alpha.matrix)
            assert max_abs(replay - res.coefficient_matrix.to_dense()) <= 1e-8

    def test_orthonormal_to_working_precision_near_guarantee_boundary(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            m, d = random_dims(rng, 64)
            alpha = conditioned_injective(rng, m, d, 9e5)
            assert orthonormality_defect(orthonormalize(alpha).frame.matrix) <= 1e-14

    @pytest.mark.filterwarnings("error")
    def test_rank_collapse_raises(self):
        # Built without validation, which would reject it, so that the sweep
        # meets a collapse at its own tolerance.
        raw = np.array([[1.0, 1.0], [0.0, 1e-12]], order="F")
        alpha = InjectiveMap(matrix=raw, condition_estimate=float(np.linalg.cond(raw)))
        with pytest.raises(NumericalRankLossError):
            orthonormalize(alpha)
        # Accepted by validation, but the coefficients overflow the float range.
        tiny = validate_injective(TINY_INPUT)
        for fn in (orthonormalize, coefficient_matrix, lambda a: trace_path(a, 3)):
            with pytest.raises(NumericalRankLossError):
                fn(tiny)

    def test_fault_hook_breaks_orthogonality(self, monkeypatch):
        real_sweep = gram_schmidt._sweep

        def broken(a):
            q, r = real_sweep(a)
            q[:, -1] += q[:, 0]
            return q, r

        monkeypatch.setattr(gram_schmidt, "_sweep", broken)
        alpha = validate_injective(np.array([[2.0, 1.0], [0.0, 3.0]]))
        with pytest.raises(NumericalRankLossError):
            orthonormalize(alpha)


class TestRetract:
    def test_frame_is_fixed_point(self):
        rng = np.random.default_rng(10)
        inputs = [
            generate_injective(rng, *random_dims(rng, 24), max_condition=1e6)[0]
            for _ in range(10)
        ]
        # The coefficients of TINY_INPUT overflow the float range; its frame does not.
        for alpha in inputs + [validate_injective(TINY_INPUT)]:
            frame = retract(alpha)
            again = retract(include_frame(frame))
            assert max_abs(again.matrix - frame.matrix) <= 1e-10

    def test_single_column(self):
        assert np.array_equal(
            retract(validate_injective([[3.0], [4.0]])).matrix, [[0.6], [0.8]]
        )

    def test_same_frame_as_orthonormalize(self):
        # retract runs the sweep without building the coefficient matrix; its
        # frame must be orthonormalize's, bit for bit.
        rng = np.random.default_rng(22)
        for condition in (1.0, 1e3, 1e5, 9e5) * 5:
            m, d = random_dims(rng, 32)
            alpha = conditioned_injective(rng, m, d, condition)
            assert np.array_equal(retract(alpha).matrix, orthonormalize(alpha).frame.matrix)

    def test_builds_no_triangle(self, monkeypatch):
        # retract skips R's packing and the triangular inverse; counting their
        # calls keeps that saving from coming back unnoticed.
        from stiefel_retract import UpperTriangularPositive, core

        calls = []
        from_dense = UpperTriangularPositive.from_dense.__func__
        inverse = core.tri_solve_inverse

        def counted_from_dense(cls, dense):
            calls.append("from_dense")
            return from_dense(cls, dense)

        def counted_inverse(u):
            calls.append("tri_solve_inverse")
            return inverse(u)

        monkeypatch.setattr(
            UpperTriangularPositive, "from_dense", classmethod(counted_from_dense)
        )
        monkeypatch.setattr(core, "tri_solve_inverse", counted_inverse)
        monkeypatch.setattr(gram_schmidt, "tri_solve_inverse", counted_inverse)
        rng = np.random.default_rng(24)
        for m, d in ((3, 2), (6, 6), (16, 12)):
            retract(conditioned_injective(rng, m, d, 1e3))
        assert calls == []
        coefficient_matrix(conditioned_injective(rng, 6, 3, 1e3))
        assert calls.count("from_dense") == 2 and calls.count("tri_solve_inverse") == 1

    def test_positive_column_scaling_ignored(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m, d = random_dims(rng, 16)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e4)
            frame = retract(alpha)
            scales = 10.0 ** rng.uniform(-1, 1, size=d)
            scaled = validate_injective(frame.matrix * scales)
            assert max_abs(retract(scaled).matrix - frame.matrix) <= 1e-14

    def test_right_triangular_scaling_ignored(self):
        from stiefel_retract import UpperTriangularPositive

        rng = np.random.default_rng(14)
        for _ in range(100):
            m, d = random_dims(rng, 32)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e4)
            dense = np.triu(rng.uniform(-0.5, 0.5, size=(d, d)), k=1)
            dense[np.diag_indices(d)] = 10.0 ** rng.uniform(-1, 1, size=d)
            t = UpperTriangularPositive.from_dense(dense)
            scaled = validate_injective(alpha.matrix @ t.to_dense())
            assert max_abs(retract(scaled).matrix - retract(alpha).matrix) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    common=st.integers(-1000, 1000),
    spread=st.lists(st.integers(-8, 8), min_size=8, max_size=8),
)
def test_power_of_two_column_scaling_is_exact(seed, common, spread):
    # Scaling column j by 2**k_j leaves the frame unchanged, scales row j of
    # the coefficient matrix by 2**-k_j and column j of R by 2**k_j; all of
    # it is exact while every entry stays a normal float. Near the ends of
    # the range the defects of intermediate path samples overflow to inf,
    # without a warning.
    rng = np.random.default_rng(seed)
    m, d = random_dims(rng, 8)
    exps = np.clip(common + np.array(spread[:d]), -1000, 1000)
    scale = np.ldexp(1.0, exps)
    alpha, _ = generate_injective(rng, m, d, max_condition=1e4)
    square, _ = generate_injective(rng, d, d, max_condition=1e4)
    scaled = validate_injective(alpha.matrix * scale)
    assert np.array_equal(retract(scaled).matrix, retract(alpha).matrix)
    assert np.array_equal(
        coefficient_matrix(scaled).to_dense(),
        coefficient_matrix(alpha).to_dense() / scale[:, None],
    )
    _, r = qr_decompose(square)
    _, r_scaled = qr_decompose(validate_injective(square.matrix * scale))
    assert np.array_equal(r_scaled.to_dense(), r.to_dense() * scale)
    trace_path(scaled, 5)


class TestCoefficientMatrix:
    def test_orthonormal_input_gives_identity(self):
        alpha = validate_injective(np.eye(4)[:, :2])
        assert np.array_equal(coefficient_matrix(alpha).to_dense(), np.eye(2))

    def test_hand_case(self):
        coeff = coefficient_matrix(validate_injective(HAND_INPUT))
        assert max_abs(coeff.to_dense() - HAND_COEFF) <= 1e-14

    def test_positive_diagonal(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            m, d = random_dims(rng, 24)
            alpha, _ = generate_injective(rng, m, d)
            assert np.all(coefficient_matrix(alpha).diagonal() > 0.0)

    def test_reconstruction_and_triangle_over_acceptance_family(self):
        # The 1000 maps of acceptance criterion 1 (m <= 64, condition <= 1e6).
        from stiefel_retract import selftest

        family = selftest._Context(selftest.DEFAULT_SEED).family()
        assert len(family) == 1000
        for alpha, _ in family:
            res = orthonormalize(alpha)
            coeff = res.coefficient_matrix
            dense = coeff.to_dense()
            assert max_abs(alpha.matrix @ dense - res.frame.matrix) <= 1e-10
            assert np.all(coeff.diagonal() > 0.0)
            assert np.all(dense[np.tril_indices(coeff.matrix.shape[0], k=-1)] == 0.0)


class TestHomotopyStepOnFactor:
    """``homotopy_step`` and ``trace_path`` need only the sweep's Q and R, so
    they build no coefficient matrix; ``homotopy_step`` shares ``retract``'s
    domain."""

    def test_subnormal_columns_give_the_straight_line_point(self):
        alpha = validate_injective(TINY_INPUT)
        frame = retract(alpha).matrix
        for t in (0.25, 0.5, 0.75):
            point = homotopy_step(alpha, t)
            assert np.array_equal(point.matrix, (1.0 - t) * alpha.matrix + t * frame)
            assert np.isfinite(point.condition_estimate)

    def test_builds_no_triangle(self, monkeypatch):
        from stiefel_retract import UpperTriangularPositive, core, homotopy

        calls = []
        from_dense = UpperTriangularPositive.from_dense.__func__
        inverse = core.tri_solve_inverse

        def counted_from_dense(cls, dense):
            calls.append("from_dense")
            return from_dense(cls, dense)

        def counted_inverse(u):
            calls.append("tri_solve_inverse")
            return inverse(u)

        monkeypatch.setattr(
            UpperTriangularPositive, "from_dense", classmethod(counted_from_dense)
        )
        # homotopy does not import the inverse; binding it there too keeps
        # a new import from escaping the count.
        for module in (core, gram_schmidt, homotopy):
            monkeypatch.setattr(module, "tri_solve_inverse", counted_inverse, raising=False)
        rng = np.random.default_rng(26)
        for m, d in ((3, 2), (6, 6), (16, 12)):
            alpha = conditioned_injective(rng, m, d, 1e3)
            for t in (0.5, 1.0):
                homotopy_step(alpha, t)
        trace_path(conditioned_injective(rng, 6, 3, 1e3), 3)
        assert calls == []



class TestTriangleOutsideTheFloatRange:
    @pytest.mark.filterwarnings("error")
    def test_every_caller_that_needs_r_raises_a_rank_error(self):
        alpha = validate_injective(HUGE_INPUT)
        assert alpha.condition_estimate <= 1.0 + 4 * np.finfo(float).eps
        for fn in (
            orthonormalize,
            coefficient_matrix,
            qr_decompose,
            lambda a: trace_path(a, 3),
            lambda a: check_equivariance(a, random_rotation(2, seed=5)),
        ):
            with pytest.raises(NumericalRankLossError, match="outside the float range"):
                fn(alpha)
        with pytest.raises(InternalRankLossError, match=r"t=0\.5 failed revalidation"):
            homotopy_step(alpha, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_retract_still_returns_the_frame(self):
        alpha = validate_injective(HUGE_INPUT)
        frame = retract(alpha).matrix
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert max_abs(frame - expected) <= 1e-15
        assert np.array_equal(homotopy_step(alpha, 1.0).matrix, frame)

class TestQrDecompose:
    def test_identity(self):
        q, r = qr_decompose(validate_injective(np.eye(3)))
        assert np.array_equal(q.matrix, np.eye(3))
        assert np.array_equal(r.to_dense(), np.eye(3))

    def test_hand_case(self):
        q, r = qr_decompose(validate_injective(HAND_INPUT))
        assert max_abs(q.matrix - np.eye(2)) <= 1e-14
        assert max_abs(r.to_dense() - HAND_INPUT) <= 1e-14

    def test_random_eight_by_eight(self):
        rng = np.random.default_rng(42)
        alpha = validate_injective(rng.standard_normal((8, 8)))
        q, r = qr_decompose(alpha)
        assert max_abs(q.matrix @ r.to_dense() - alpha.matrix) <= 1e-10
        assert orthonormality_defect(q.matrix) <= 1e-10
        qh, rh = householder_qr_oracle(alpha.matrix)
        assert max_abs(q.matrix - qh.matrix) <= 1e-9
        assert max_abs(r.matrix - rh.matrix) <= 1e-9

    def test_rectangular_rejected(self):
        with pytest.raises(DimensionError, match="square"):
            qr_decompose(validate_injective(np.eye(3)[:, :2]))

    def test_r_is_the_triangular_factor(self):
        rng = np.random.default_rng(20)
        for m in (1, 4, 12):
            alpha = conditioned_injective(rng, m, m, 1e4)
            _, r = qr_decompose(alpha)
            res = orthonormalize(alpha)
            assert np.array_equal(res.triangular_factor.matrix, r.matrix)

    def test_agrees_with_oracle_across_sizes(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            m = int(rng.integers(1, 33))
            alpha, _ = generate_injective(rng, m, m)
            q, r = qr_decompose(alpha)
            qh, rh = householder_qr_oracle(alpha.matrix)
            assert max_abs(q.matrix - qh.matrix) <= 1e-9
            assert max_abs(r.matrix - rh.matrix) <= 1e-9


class TestHouseholderOracle:
    def test_identity(self):
        q, r = householder_qr_oracle(np.eye(4))
        assert np.array_equal(q.matrix, np.eye(4))
        assert np.array_equal(r.to_dense(), np.eye(4))

    def test_hand_case(self):
        q, r = householder_qr_oracle(HAND_INPUT)
        assert max_abs(q.matrix - np.eye(2)) <= 1e-15
        assert max_abs(r.to_dense() - HAND_INPUT) <= 1e-15

    def test_permutation(self):
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        q, r = householder_qr_oracle(perm)
        assert np.array_equal(q.matrix, perm)
        assert np.array_equal(r.to_dense(), np.eye(2))
        assert np.all(r.diagonal() > 0.0)

    def test_singular_rejected(self):
        with pytest.raises(RankDeficientError):
            householder_qr_oracle(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_rectangular_rejected(self):
        with pytest.raises(DimensionError):
            householder_qr_oracle(np.eye(3)[:, :2])


def _reference_sweep(a: np.ndarray):
    """The sweep as it was before its loop ran in place, kept verbatim as
    the bit-for-bit reference for ``gram_schmidt._sweep``."""
    _, exps = np.frexp(np.max(np.abs(a), axis=0))
    a = np.ldexp(a, -exps)
    m, d = a.shape
    input_norms = np.linalg.norm(a, axis=0)
    q = np.zeros((m, d), order="F")
    r = np.zeros((d, d))
    for i in range(d):
        w = a[:, i]
        if i:
            basis = q[:, :i]
            h = w @ basis
            w = w - basis @ h
            h2 = w @ basis
            w -= basis @ h2
            # Starting from +0.0 stores a zero coefficient as +0.0, never -0.0.
            r[:i, i] = 0.0 + h + h2
        nrm = math.sqrt(w @ w)
        if nrm < DEFAULT_TOL_RANK * input_norms[i]:
            raise NumericalRankLossError(f"column {i} collapsed during the sweep")
        r[i, i] = nrm
        np.divide(w, nrm, out=q[:, i])
    return q, np.ldexp(r, exps)


def _reference_back_substitution(a: np.ndarray) -> np.ndarray:
    """The back substitution as it was before it updated rows in place, kept
    verbatim as the bit-for-bit reference for ``tri_solve_inverse``."""
    n = a.shape[0]
    x = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1):
            x[i] = (x[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def _guard_family():
    """Inputs for the bit-for-bit guard: shapes 1x1 to 64x64, 500x40 and
    500x131 (65,500 entries, just below the blocked sweep's threshold),
    conditions 1 to 9e5, scales 2^-900 to 2^900, and exact-zero
    coefficients."""
    rng = np.random.default_rng(50)
    for m, d in ((1, 1), (2, 2), (3, 2), (7, 5), (16, 12), (24, 24), (40, 9), (64, 64),
                 (500, 40), (500, 131)):
        for condition in (1.0, 1e3, 1e5, 9e5):
            base = conditioned_injective(rng, m, d, condition).matrix
            for scale in (2.0**-900, 1.0, 2.0**900):
                yield base * scale
    yield TINY_INPUT
    yield np.eye(6)[:, [4, 0, 2]] * [3.0, -2.0, 0.5]
    yield np.array([[1.0, -0.0], [0.0, 2.0], [-0.0, 0.0]])
    yield np.array([[2.0, 1.0, 0.0], [0.0, -0.0, 5.0], [0.0, 3.0, -0.0]])


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


class TestInPlaceLoopsBitForBit:
    def test_sweep_and_inverse_match_reference_loops(self):
        for raw in _guard_family():
            alpha = validate_injective(raw)
            q_ref, r_ref = _reference_sweep(alpha.matrix)
            q, r = gram_schmidt._sweep(alpha.matrix)
            assert _same_bits(q, q_ref) and _same_bits(r, r_ref)
            m_ref = _reference_back_substitution(r_ref)
            if not np.isfinite(m_ref).all():
                # TINY_INPUT: coefficients past the float range.
                with pytest.raises(NumericalRankLossError):
                    orthonormalize(alpha)
                continue
            res = orthonormalize(alpha)
            assert _same_bits(res.frame.matrix, q_ref)
            assert _same_bits(res.triangular_factor.to_dense(), r_ref)
            assert _same_bits(res.coefficient_matrix.to_dense(), m_ref)
            packed = core.UpperTriangularPositive.from_dense(r_ref)
            assert _same_bits(core.tri_solve_inverse(packed).to_dense(), m_ref)

    def test_sweep_never_writes_its_argument(self):
        # Column maxima in [0.5, 1) give exponent 0, so the scaling leaves
        # every value unchanged; the in-place loop must still work on a copy.
        rng = np.random.default_rng(51)
        a = np.asfortranarray(rng.uniform(0.5, 0.99, size=(9, 6)))
        assert np.array_equal(np.frexp(np.max(np.abs(a), axis=0))[1], np.zeros(6))
        assert a.flags.writeable and a.flags.f_contiguous
        before = a.copy()
        gram_schmidt._sweep(a)
        assert _same_bits(a, before)


def _lauchli(n: int, condition: float) -> np.ndarray:
    """The (n + 1) x n Läuchli matrix: a row of ones over eps * I, with eps
    chosen so that its condition number is ``condition``."""
    return np.vstack([np.ones(n), math.sqrt(n) / condition * np.eye(n)])


def _blocked_family():
    rng = np.random.default_rng(52)
    for m, d in ((256, 256), (2000, 100)):
        for condition in (1.0, 1e3, 1e5, 9e5):
            yield conditioned_injective(rng, m, d, condition).matrix, condition
    # 301x300 also cuts the frame side of the block products into two pieces.
    for n in (256, 300):
        yield _lauchli(n, 9e5), 9e5


# Square inputs to the near-dependence tests. Weight 10 would make them rank
# deficient, so they take weight 0 only; at 301x300 the Gram product of a
# block is cut into two pieces.
_SQUARE_NEAR_DEPENDENT = [
    pytest.param(256, 256, 0.0, 1e-4, id="256x256-0.0-0.0001"),
    pytest.param(256, 256, 0.0, 1e-8, id="256x256-0.0-1e-08"),
    pytest.param(301, 300, 0.0, 1e-4, id="301x300-0.0-0.0001"),
]


class TestBlockedSweep:
    """Inputs of at least ``BLOCKED_ENTRIES`` entries, swept in blocks of
    ``BLOCK_WIDTH`` columns."""

    def test_frame_residual_and_distance_to_the_column_sweep(self):
        eps = np.finfo(float).eps
        for raw, condition in _blocked_family():
            alpha = validate_injective(raw)
            assert alpha.matrix.size >= gram_schmidt.BLOCKED_ENTRIES
            q, r = gram_schmidt._sweep(alpha.matrix)
            assert orthonormality_defect(q) <= 1e-14
            assert max_abs(q @ r - alpha.matrix) <= 1e3 * eps * max_abs(alpha.matrix)
            q_ref, _ = _reference_sweep(alpha.matrix)
            assert max_abs(q - q_ref) <= 1e3 * eps * condition

    def test_collapse_inside_a_later_block_is_caught(self):
        # Column 40 lies in a later block, so its copy of column 3 is taken
        # out by the block projections before the collapse floor is read.
        a = np.random.default_rng(53).standard_normal((2000, 100))
        a[:, 40] = a[:, 3]
        assert 40 >= gram_schmidt.BLOCK_WIDTH
        with pytest.raises(NumericalRankLossError, match="column 40 collapsed"):
            gram_schmidt._sweep(a)

    def test_collapse_of_a_whole_later_block_is_caught(self):
        # Every column of the third block lies within 1e-12 of the first
        # block's span: the projected block is tiny but well conditioned, so
        # only the collapse floor sends it to the column pass.
        rng = np.random.default_rng(57)
        a = rng.standard_normal((2000, 100))
        a[:, 32:48] = a[:, :16] @ rng.standard_normal((16, 16))
        a[:, 32:48] += 1e-12 * rng.standard_normal((2000, 16))
        with pytest.raises(NumericalRankLossError, match="column 32 collapsed"):
            gram_schmidt._sweep(a)

    @pytest.mark.parametrize(
        "m, d, weight, delta",
        [
            pytest.param(2000, 100, 0.0, 1e-4, id="0.0-0.0001"),
            pytest.param(2000, 100, 0.0, 1e-8, id="0.0-1e-08"),
            pytest.param(2000, 100, 10.0, 1e-8, id="10.0-1e-08"),
            *_SQUARE_NEAR_DEPENDENT,
        ],
    )
    def test_near_dependence_inside_a_later_block(self, m, d, weight, delta):
        a = _near_dependent_in_block(m, d, weight, delta)
        alpha = validate_injective(a)
        result = orthonormalize(alpha)
        q = result.frame.matrix
        assert orthonormality_defect(q) <= 1e-14
        eps = np.finfo(float).eps
        r = result.triangular_factor.matrix
        assert max_abs(q @ r - a) <= 1e3 * eps * max_abs(a)

    @pytest.mark.parametrize("m, d", [(2000, 100), (256, 256)])
    def test_conditioned_blocks_take_no_column_pass(self, m, d, monkeypatch):
        alpha = conditioned_injective(np.random.default_rng(55), m, d, 9e5)
        calls = _count_column_passes(monkeypatch)
        gram_schmidt._sweep(alpha.matrix)
        assert calls == []

    @pytest.mark.parametrize(
        "m, d, weight, delta",
        [
            pytest.param(2000, 100, 0.0, 1e-8, id="0.0-1e-08"),
            pytest.param(2000, 100, 10.0, 1e-8, id="10.0-1e-08"),
            *_SQUARE_NEAR_DEPENDENT,
        ],
    )
    def test_near_dependence_inside_a_block_takes_the_column_pass(
        self, m, d, weight, delta, monkeypatch
    ):
        alpha = validate_injective(_near_dependent_in_block(m, d, weight, delta))
        calls = _count_column_passes(monkeypatch)
        gram_schmidt._sweep(alpha.matrix)
        assert 16 in calls

    @pytest.mark.parametrize("delta", [1e-3, 1e-6])
    def test_near_dependence_across_blocks(self, delta):
        # Column 40 is column 3 plus delta times noise: the block projection
        # leaves column 40 a residual of about delta, and what it left of the
        # frame is then divided by that residual.
        rng = np.random.default_rng(56)
        a = rng.standard_normal((2000, 100))
        a[:, 40] = a[:, 3] + delta * rng.standard_normal(2000)
        assert 3 < gram_schmidt.BLOCK_WIDTH <= 40
        result = orthonormalize(validate_injective(a))
        q = result.frame.matrix
        assert orthonormality_defect(q) <= 1e-14
        eps = np.finfo(float).eps
        r = result.triangular_factor.matrix
        assert max_abs(q @ r - a) <= 1e3 * eps * max_abs(a)

    def test_a_failed_second_pass_raises_a_rank_loss_error(self, monkeypatch):
        # The second pass factors a block within about 2e-10 of orthonormal,
        # so its guard trips on no input tried; if it did, the sweep would
        # raise the library's error, not numpy's or an unpacking error.
        guarded_cholesky = gram_schmidt._guarded_cholesky

        def failing_second_pass(p, floor):
            return None if np.ndim(floor) == 0 else guarded_cholesky(p, floor)

        monkeypatch.setattr(gram_schmidt, "_guarded_cholesky", failing_second_pass)
        a = np.random.default_rng(58).standard_normal((2000, 100))
        with pytest.raises(NumericalRankLossError, match="column 0 "):
            gram_schmidt._sweep(a)


def _near_dependent_in_block(m: int, d: int, weight: float, delta: float) -> np.ndarray:
    """An m x d input whose column 17 is column 16 plus delta times noise,
    where column 16 also carries ``weight`` times the sum of the first
    block's columns. Both lie in the second block, so only the step inside
    that block can separate them, and what the block projection left of the
    frame is then divided by a residual of about delta."""
    rng = np.random.default_rng(54)
    a = rng.standard_normal((m, d))
    a[:, 16] += weight * a[:, :16].sum(axis=1)
    a[:, 17] = a[:, 16] + delta * rng.standard_normal(m)
    return a


def _count_column_passes(monkeypatch) -> list[int]:
    """Patch ``gram_schmidt._column_pass`` to record the first input column
    of each call, and return the record."""
    calls = []
    column_pass = gram_schmidt._column_pass

    def counted(src, dst, r, norms, start):
        calls.append(start)
        return column_pass(src, dst, r, norms, start)

    monkeypatch.setattr(gram_schmidt, "_column_pass", counted)
    return calls
