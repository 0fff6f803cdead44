import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stiefel_retract
from stiefel_retract import (
    DomainError,
    InternalRankLossError,
    NonFiniteError,
    NumericalRankLossError,
    RankDeficientError,
    ZeroVectorError,
    check_equivariance,
    coefficient_matrix,
    homotopy_step,
    include_frame,
    interpolant,
    orthonormalize,
    random_rotation,
    retract,
    sphere_interpolant,
    trace_path,
    validate_frame,
    validate_injective,
)
from stiefel_retract import homotopy
from stiefel_retract.core import (
    InjectiveMap,
    condition_estimates,
    gram,
    max_abs,
    orthonormality_defect,
)
from stiefel_retract.equivariance import act
from stiefel_retract.homotopy import path_to_csv, path_to_json_obj
from stiefel_retract.matio import MatrixFormatError, matrix_from_object
from stiefel_retract.sampling import (
    conditioned_injective,
    generate_injective,
    random_dims,
)

HAND_INPUT = np.array([[2.0, 1.0], [0.0, 3.0]])


def _refuse_certificates(monkeypatch, error):
    """Make the step's certificate, ``condition_estimates`` as ``homotopy``
    binds it, raise ``error``."""

    def refuse(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(homotopy, "condition_estimates", refuse)


def _decline_bound(monkeypatch):
    """Make the step's Cholesky certificate certify nothing, so every
    interior triangle goes through ``condition_estimates``."""
    monkeypatch.setattr(homotopy, "_certified", lambda grams: np.zeros(len(grams), dtype=bool))


def parse_path_csv(text: str) -> list[dict]:
    """Parse :func:`path_to_csv` output back into sample dicts with keys
    t, point (matrix), min_diag, ortho_defect."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise MatrixFormatError("path CSV needs a header and at least one row")
    header = lines[0].split(",")
    if header[0] != "t" or header[-2:] != ["min_diag", "ortho_defect"]:
        raise MatrixFormatError("unrecognized path CSV header")
    entry_names = header[1:-2]
    rows = cols = 0
    for name in entry_names:
        try:
            _, i, j = name.split("_")
            rows = max(rows, int(i) + 1)
            cols = max(cols, int(j) + 1)
        except ValueError as exc:
            raise MatrixFormatError(f"bad header field {name!r}") from exc
    if rows * cols != len(entry_names):
        raise MatrixFormatError("path CSV header does not cover a full matrix")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise MatrixFormatError(f"line {lineno}: ragged row")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise MatrixFormatError(f"line {lineno}: {exc}") from exc
        out.append(
            {
                "t": values[0],
                "point": np.array(values[1:-2]).reshape(rows, cols),
                "min_diag": values[-2],
                "ortho_defect": values[-1],
            }
        )
    return out


def parse_path_json_obj(obj) -> list[dict]:
    if not isinstance(obj, list) or not obj:
        raise MatrixFormatError("path JSON must be a nonempty array")
    out = []
    for item in obj:
        if not isinstance(item, dict):
            raise MatrixFormatError("path JSON entries must be objects")
        for key in ("t", "point", "min_diag", "ortho_defect"):
            if key not in item:
                raise MatrixFormatError(f"path JSON entry missing {key!r}")
        out.append(
            {
                "t": float(item["t"]),
                "point": matrix_from_object(item["point"]),
                "min_diag": float(item["min_diag"]),
                "ortho_defect": float(item["ortho_defect"]),
            }
        )
    return out


class TestInterpolant:
    def test_t_zero_is_identity(self):
        alpha = validate_injective(HAND_INPUT)
        assert np.array_equal(interpolant(alpha, 0.0).to_dense(), np.eye(2))

    def test_t_one_is_coefficient_matrix(self):
        alpha = validate_injective(HAND_INPUT)
        assert np.array_equal(
            interpolant(alpha, 1.0).matrix, coefficient_matrix(alpha).matrix
        )

    def test_hand_midpoint(self):
        alpha = validate_injective(HAND_INPUT)
        expected = np.array([[0.75, -1.0 / 12.0], [0.0, 2.0 / 3.0]])
        assert max_abs(interpolant(alpha, 0.5).to_dense() - expected) <= 1e-15

    @pytest.mark.parametrize("t", [-0.1, 1.1, np.nan, 2.0])
    def test_out_of_interval_rejected(self, t):
        alpha = validate_injective(HAND_INPUT)
        with pytest.raises(DomainError):
            interpolant(alpha, t)

    def test_linearity_in_t(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m, d = random_dims(rng, 32)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
            coeff = coefficient_matrix(alpha)
            eye = interpolant(alpha, 0.0).matrix
            for t in (0.25, float(rng.uniform(0, 1)), 0.75):
                lhs = (1.0 - t) * eye + t * coeff.matrix
                rhs = interpolant(alpha, t).matrix
                assert max_abs(lhs - rhs) <= 4e-16 * max(1.0, max_abs(coeff.matrix))

    def test_diagonal_stays_positive(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m, d = random_dims(rng, 24)
            alpha, _ = generate_injective(rng, m, d)
            for t in np.linspace(0.0, 1.0, 11):
                assert np.all(interpolant(alpha, float(t)).diagonal() > 0.0)


class TestHomotopyStep:
    def test_t_zero_returns_source_object(self):
        alpha = validate_injective(HAND_INPUT)
        out = homotopy_step(alpha, 0.0)
        assert out is alpha
        assert np.array_equal(out.matrix, alpha.matrix)

    def test_hand_case_lands_on_identity(self):
        alpha = validate_injective(HAND_INPUT)
        assert max_abs(homotopy_step(alpha, 1.0).matrix - np.eye(2)) <= 1e-14

    def test_single_column_midpoint(self):
        alpha = validate_injective(np.array([[3.0], [4.0]]))
        moved = homotopy_step(alpha, 0.5)
        # scalar interpolant is (1 - 0.5) + 0.5 / 5 = 0.6
        assert max_abs(moved.matrix - np.array([[1.8], [2.4]])) <= 1e-15
        assert abs(np.linalg.norm(moved.matrix) - 3.0) <= 1e-15

    def test_t_one_matches_retract(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            m, d = random_dims(rng, 32)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
            assert max_abs(homotopy_step(alpha, 1.0).matrix - retract(alpha).matrix) <= 1e-10

    @pytest.mark.parametrize("t", [-1e-9, 1.0000001])
    def test_out_of_interval_rejected(self, t):
        with pytest.raises(DomainError):
            homotopy_step(validate_injective(HAND_INPUT), t)


def _seeded_maps():
    rng = np.random.default_rng(46)
    for condition in (1.0, 1e2, 1e4, 1e5, 9e5):
        for _ in range(4):
            m, d = random_dims(rng, 24)
            yield conditioned_injective(rng, m, d, condition)


class TestStraightLineStep:
    def test_t_one_is_retract_bit_for_bit(self):
        for alpha in _seeded_maps():
            assert np.array_equal(homotopy_step(alpha, 1.0).matrix, retract(alpha).matrix)

    def test_condition_estimate_matches_svd_of_point(self):
        # The d x d certificate against an m x d SVD of the returned point.
        for alpha in _seeded_maps():
            for t in (0.25, 0.5, 0.9, 1.0):
                point = homotopy_step(alpha, t)
                sv = np.linalg.svd(point.matrix, compute_uv=False)
                expected = sv[0] / sv[-1]
                assert abs(point.condition_estimate - expected) <= 1e-8 * expected

    def test_multiplies_out_no_interpolant(self, monkeypatch):
        # interpolant is the one homotopy code that forms a coefficient matrix.
        calls = []
        coefficients = homotopy.coefficient_matrix

        def counted(alpha):
            calls.append(alpha)
            return coefficients(alpha)

        monkeypatch.setattr(homotopy, "coefficient_matrix", counted)
        alpha = validate_injective(HAND_INPUT)
        for t in (0.0, 0.5, 1.0):
            homotopy_step(alpha, t)
        assert calls == []
        interpolant(alpha, 0.5)
        assert len(calls) == 1 and calls[0] is alpha

    @pytest.mark.parametrize("error", [RankDeficientError])
    def test_certificate_failure_names_t(self, monkeypatch, error):
        alpha = validate_injective(HAND_INPUT)
        _refuse_certificates(monkeypatch, error)
        with pytest.raises(InternalRankLossError, match=r"t=0\.5 failed revalidation: injected"):
            homotopy_step(alpha, 0.5)

    def test_t_one_needs_no_certificate(self, monkeypatch):
        # At t = 1 the triangle is I, so the point is the frame with
        # condition 1 exactly and no SVD runs.
        alpha = validate_injective(HAND_INPUT)
        _refuse_certificates(monkeypatch, RankDeficientError)
        point = homotopy_step(alpha, 1.0)
        assert point.condition_estimate == 1.0
        assert np.array_equal(point.matrix, retract(alpha).matrix)
        with pytest.raises(InternalRankLossError, match=r"t=0\.5 failed revalidation"):
            homotopy_step(alpha, 0.5)


class TestSphereInterpolant:
    def test_unit_vector_fixed(self):
        v = np.array([0.6, 0.8])
        for t in (0.0, 0.3, 1.0):
            assert np.array_equal(sphere_interpolant(v, t), v)

    def test_normalization_endpoint(self):
        out = sphere_interpolant(np.array([3.0, 4.0]), 1.0)
        assert max_abs(out - np.array([0.6, 0.8])) <= 1e-15

    def test_midpoint(self):
        out = sphere_interpolant(np.array([3.0, 4.0]), 0.5)
        assert max_abs(out - np.array([1.8, 2.4])) <= 1e-15

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            sphere_interpolant(np.zeros(3), 0.5)

    def test_empty_vector_rejected(self):
        with pytest.raises(DomainError, match="nonempty"):
            sphere_interpolant(np.zeros(0), 0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            sphere_interpolant(np.array([np.nan, 1.0]), 0.5)

    def test_out_of_interval_rejected(self):
        with pytest.raises(DomainError):
            sphere_interpolant(np.array([1.0, 2.0]), 1.5)

    def test_matches_homotopy_on_columns(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            m = int(rng.integers(1, 65))
            v = rng.uniform(-1.0, 1.0, size=m)
            if np.linalg.norm(v) <= 1e-10:
                continue
            t = float(rng.uniform(0.0, 1.0))
            embedded = validate_injective(v[:, None])
            assert (
                max_abs(sphere_interpolant(v, t) - homotopy_step(embedded, t).matrix[:, 0])
                <= 1e-12
            )


    @pytest.mark.filterwarnings("error")
    def test_large_columns_match_homotopy_without_overflow(self):
        # The squared norm of these columns overflows; the closed form must
        # still agree with the homotopy point, which scales by powers of two.
        v = np.array([1e200, 1e200])
        assert np.array_equal(sphere_interpolant(v, 0.5), [5e199, 5e199])
        rng = np.random.default_rng(48)
        for k in range(500, 1001, 25):
            v = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 9))) * 2.0**k
            embedded = validate_injective(v[:, None])
            for t in (0.25, 0.5, 0.75):
                expected = homotopy_step(embedded, t).matrix[:, 0]
                gap = max_abs(sphere_interpolant(v, t) - expected)
                assert gap <= 1e-12 * max_abs(expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_homotopy_near_the_sphere_at_any_scale(self):
        # Near t = 1 the point is about v / |v|; a factor formed as
        # t * (1 - |v|) / |v| + 1 cancels there once |v| is far from 1.
        assert max_abs(sphere_interpolant([1e200, 1e200], 1.0) - 0.5**0.5) <= 1e-15
        rng = np.random.default_rng(49)
        for k in range(-1074, 1001, 10):
            # Near 2^-1074 a draw can round to the zero vector, which has no
            # direction; it is drawn again.
            v = np.zeros(1)
            while not v.any():
                v = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 9))) * 2.0**k
            embedded = validate_injective(v[:, None])
            for t in (0.9, 0.99, 1.0):
                expected = homotopy_step(embedded, t).matrix[:, 0]
                gap = max_abs(sphere_interpolant(v, t) - expected)
                assert gap <= 1e-12 * max_abs(expected), (k, t)


class TestTracePath:
    def test_orthonormal_source_is_constant(self):
        frame = validate_frame(np.eye(4)[:, :2])
        path = trace_path(include_frame(frame), 3)
        assert len(path.samples) == 3
        for sample in path.samples:
            assert max_abs(sample.point.matrix - frame.matrix) <= 1e-12
            assert sample.ortho_defect <= 1e-12

    def test_hand_case_two_samples(self):
        path = trace_path(validate_injective(HAND_INPUT), 2)
        assert [s.t for s in path.samples] == [0.0, 1.0]
        assert np.array_equal(path.samples[0].point.matrix, HAND_INPUT)
        assert max_abs(path.samples[1].point.matrix - np.eye(2)) <= 1e-14

    def test_seeded_four_by_two(self):
        alpha, _ = generate_injective(np.random.default_rng(7), 4, 2)
        path = trace_path(alpha, 11)
        ts = [s.t for s in path.samples]
        assert ts[0] == 0.0 and ts[-1] == 1.0
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert all(s.min_interpolant_diag > 0.0 for s in path.samples)
        assert path.samples[-1].ortho_defect <= 1e-10

    def test_revalidation_along_dense_grid(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            m, d = random_dims(rng, 32)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
            trace_path(alpha, 101)  # every sample revalidates

    def test_too_few_samples_rejected(self):
        with pytest.raises(DomainError):
            trace_path(validate_injective(HAND_INPUT), 1)

    @pytest.mark.filterwarnings("error")
    def test_large_scale_input_warns_nothing(self):
        # Intermediate samples near 2^900 overflow the Gram product; their
        # defect is inf, never NaN, and no warning is printed. The 16 x 12
        # map overflows with products of both signs.
        rng = np.random.default_rng(33)
        sources = [
            (conditioned_injective(rng, 12, 4, 1e2), 5),
            (conditioned_injective(rng, 12, 4, 1e6), 5),
            (conditioned_injective(np.random.default_rng(3), 16, 12, 1.0), 3),
        ]
        for source, n in sources:
            path = trace_path(validate_injective(source.matrix * 2.0**900), n)
            assert path.samples[0].ortho_defect == math.inf
            assert not any(math.isnan(s.ortho_defect) for s in path.samples)
            assert path.samples[-1].ortho_defect <= 1e-10


def test_endpoint_meets_tolerance_near_guarantee_boundary():
    rng = np.random.default_rng(43)
    for _ in range(400):
        m, d = random_dims(rng, 24)
        path = trace_path(conditioned_injective(rng, m, d, 9e5), 2)
        assert path.samples[-1].ortho_defect <= 1e-10


def test_endpoint_is_the_frame_on_lauchli_matrices():
    # [1 ... 1; eps * I_n], the textbook hard case for Gram-Schmidt (Läuchli,
    # Numer. Math. 3, 1961), at condition estimates between 5e5 and 9.9e5.
    for n in (30, 40, 50, 63, 100, 200):
        for c in (5e5, 9e5, 9.7e5, 9.9e5):
            eps = math.sqrt(n + 1) / c
            alpha = validate_injective(np.vstack([np.ones((1, n)), eps * np.eye(n)]))
            assert alpha.condition_estimate <= 9.9e5
            end = trace_path(alpha, 2).samples[-1].point
            assert np.array_equal(end.matrix, retract(alpha).matrix)


def _seeded_paths(n=33):
    rng = np.random.default_rng(44)
    for condition in (1.0, 1e2, 1e4, 1e5, 9e5):
        for _ in range(4):
            m, d = random_dims(rng, 24)
            alpha = conditioned_injective(rng, m, d, condition)
            yield alpha, trace_path(alpha, n)


class TestStraightLinePath:
    def test_condition_estimate_matches_svd_of_point(self):
        # The d x d certificate against an m x d SVD of the returned point.
        for _, path in _seeded_paths():
            for s in path.samples:
                sv = np.linalg.svd(s.point.matrix, compute_uv=False)
                expected = sv[0] / sv[-1]
                assert abs(s.point.condition_estimate - expected) <= 1e-8 * expected

    def test_points_match_interpolant_product(self):
        eps = np.finfo(float).eps
        for alpha, path in _seeded_paths():
            scale = max_abs(alpha.matrix)
            for s in path.samples:
                product = alpha.matrix @ interpolant(alpha, s.t).to_dense()
                bound = 1e3 * eps * scale + s.t * 1e3 * eps * alpha.condition_estimate
                assert max_abs(s.point.matrix - product) <= bound

    def test_endpoint_is_the_retraction_bit_for_bit(self):
        for alpha, path in _seeded_paths():
            assert np.array_equal(path.samples[-1].point.matrix, retract(alpha).matrix)
            assert path.samples[0].point is alpha

    @pytest.mark.filterwarnings("error")
    def test_endpoint_is_the_frame_where_m_inverts_past_the_float_range(self):
        # M = 1 / R is subnormal here, and inverting it back overflows; the
        # path needs only the sweep's Q and R, as retract does.
        alpha = validate_injective([[1.7976931348623157e308]])
        path = trace_path(alpha, 3)
        assert np.array_equal(path.samples[-1].point.matrix, retract(alpha).matrix)
        assert path.samples[1].point.matrix.tolist() == [[0.5 * 1.7976931348623157e308 + 0.5]]

    @pytest.mark.filterwarnings("error")
    def test_traced_where_only_some_coefficients_overflow(self):
        # M = diag(1 / 1e-300, 1 / 1e-309) overflows in its second entry, but
        # the interpolant's least diagonal entry, 1 / max(diag(R)), is finite.
        alpha = validate_injective([[1e-300, 0.0], [0.0, 1e-309]])
        path = trace_path(alpha, 5)
        for s in path.samples:
            assert math.isfinite(s.min_interpolant_diag)
            assert s.min_interpolant_diag == (1.0 - s.t) + s.t * (1.0 / 1e-300)
            step = homotopy_step(alpha, s.t)
            assert s.point.matrix.tobytes() == step.matrix.tobytes()
            assert s.point.condition_estimate == step.condition_estimate

    @pytest.mark.filterwarnings("error")
    def test_r_past_the_float_range_off_its_diagonal_raises_a_rank_error(self):
        # r_12 overflows while r_11 and r_22 do not; the path needs all of R.
        alpha = validate_injective([[1e308, 1.5e308], [1e308, 1.5e308], [0.0, 1e299]])
        with pytest.raises(NumericalRankLossError, match="outside the float range"):
            trace_path(alpha, 3)

    @pytest.mark.filterwarnings("error")
    def test_two_samples_read_only_the_diagonal_of_r(self):
        # r_12 overflows while r_11 and r_22 do not. Two samples are alpha
        # and the frame, as retract gives them; every interior point needs
        # all of R, and t = 1 none of it.
        alpha = validate_injective([[1e308, 1.5e308], [1e308, 1.5e308], [0.0, 1e299]])
        r = homotopy._factor(alpha)[1]
        frame = retract(alpha).matrix
        path = trace_path(alpha, 2)
        assert path.samples[0].point is alpha
        assert np.array_equal(path.samples[1].point.matrix, frame)
        assert [s.min_interpolant_diag for s in path.samples] == [1.0, 1.0 / r.diagonal().max()]
        for fn in (lambda a: trace_path(a, 3), lambda a: homotopy_step(a, 0.5)):
            with pytest.raises(NumericalRankLossError, match="outside the float range"):
                fn(alpha)
        assert np.array_equal(homotopy_step(alpha, 1.0).matrix, frame)

    def test_points_are_read_only_column_major(self):
        for _, path in _seeded_paths(n=5):
            for s in path.samples:
                assert not s.point.matrix.flags.writeable
                assert s.point.matrix.flags.f_contiguous

    @pytest.mark.parametrize("error", [RankDeficientError])
    def test_certificate_failure_names_t(self, monkeypatch, error):
        alpha = validate_injective(HAND_INPUT)
        _decline_bound(monkeypatch)
        _refuse_certificates(monkeypatch, error)
        with pytest.raises(InternalRankLossError, match=r"t=0\.5 failed revalidation: injected"):
            trace_path(alpha, 3)

    def test_every_sample_goes_through_the_step(self, monkeypatch):
        calls = []
        step = homotopy._step

        def counted(alpha, end, r, ts):
            calls.append(list(ts))
            return step(alpha, end, r, ts)

        monkeypatch.setattr(homotopy, "_step", counted)
        _decline_bound(monkeypatch)
        alpha = validate_injective(HAND_INPUT)
        for n in (2, 3, 11):
            calls.clear()
            path = trace_path(alpha, n)
            times = [t for ts in calls for t in ts]
            assert times == [s.t for s in path.samples]
            assert len(calls) == 1

    def test_endpoints_need_no_certificate(self, monkeypatch):
        # t = 0 is the input and t = 1 the frame with condition 1, so a
        # two-sample path certifies nothing.
        alpha = validate_injective(HAND_INPUT)
        end = retract(alpha).matrix
        _refuse_certificates(monkeypatch, RankDeficientError)
        path = trace_path(alpha, 2)
        assert path.samples[0].point is alpha
        assert np.array_equal(path.samples[1].point.matrix, end)
        assert path.samples[1].point.condition_estimate == 1.0

def _per_t_reference(alpha):
    """The t = 1 point Q, R and M's diagonal, as trace_path forms them from
    one sweep, for comparing its samples with the per-t formula."""
    res = orthonormalize(alpha)
    return res.frame.matrix, res.triangular_factor.to_dense(), res.coefficient_matrix.diagonal()


def _refuse_triangles_of(monkeypatch, r, bad_ts):
    """A step certificate that rejects exactly the triangles (1 - t) R + t I
    of the times in ``bad_ts``, naming the first one's position in the stack."""
    bad = [(1.0 - t) * r + t * np.eye(r.shape[0]) for t in bad_ts]
    real = homotopy.condition_estimates

    def certify(a, *args, **kwargs):
        for index, triangle in enumerate(a):
            if any(np.array_equal(triangle, b) for b in bad):
                raise RankDeficientError("injected", index=index)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(homotopy, "condition_estimates", certify)


def _counted_certificates(monkeypatch):
    calls = []
    real = homotopy.condition_estimates

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(homotopy, "condition_estimates", counted)
    return calls


class TestStackedStep:
    def test_samples_match_the_per_t_formula_bit_for_bit(self):
        # trace_path reads M's least diagonal entry off R; the reference
        # reads M itself, also with column j scaled by 2^(k + k_j), |k| <= 900
        # and |k_j| <= 2.
        rng = np.random.default_rng(47)
        shapes = [(8, 3), (24, 24), (64, 16), (70, 64)]
        for condition in (1.0, 1e2, 1e4, 1e5, 9e5):
            for m, d in shapes:
                base = conditioned_injective(rng, m, d, condition).matrix
                exps = int(rng.integers(-900, 901)) + rng.integers(-2, 3, size=d)
                for raw in (base, np.ldexp(base, exps)):
                    self._assert_per_t_formula(validate_injective(raw))

    @staticmethod
    def _assert_per_t_formula(alpha):
        d = alpha.shape[1]
        end, r, diag = _per_t_reference(alpha)
        path = trace_path(alpha, 33)
        for s in path.samples:
            assert s.min_interpolant_diag == float(np.min((1.0 - s.t) + s.t * diag))
        for s in path.samples[1:-1]:
            t = s.t
            expected = (1.0 - t) * alpha.matrix + t * end
            certificate = validate_injective((1.0 - t) * r + t * np.eye(d))
            assert np.array_equal(s.point.matrix, expected)
            assert s.point.condition_estimate == certificate.condition_estimate
        for s in (path.samples[0], path.samples[-1]):
            assert s.ortho_defect == orthonormality_defect(s.point.matrix)

    def test_lone_time_matches_the_same_time_in_a_stack(self):
        # homotopy_step asks for one time; its stack of one must give the
        # point, triangle and certificate that a longer stack gives.
        rng = np.random.default_rng(55)
        for m, d in ((3, 2), (10, 5), (16, 12), (256, 64)):
            for condition in (1.0, 1e4, 9e5):
                alpha = conditioned_injective(rng, m, d, condition)
                frame, r, _ = homotopy._factor(alpha)
                end = include_frame(frame)
                for t in (0.1, 0.5, 0.9):
                    [lone], lone_triangles, _ = homotopy._step(alpha, end, r, (t,))
                    points, triangles, _ = homotopy._step(alpha, end, r, (t / 2, t, (1 + t) / 2))
                    assert lone.matrix.tobytes() == points[1].matrix.tobytes()
                    assert lone.condition_estimate == points[1].condition_estimate
                    assert lone_triangles.tobytes() == triangles[1:2].tobytes()

    def test_interior_defect_is_the_triangle_defect(self):
        # The point is Q @ triangle, so both defects agree in exact
        # arithmetic; the point carries rounding of about eps * condition.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(50)
        for condition in (1.0, 1e3, 9e5):
            alpha = conditioned_injective(rng, 40, 12, condition)
            _, r, _ = _per_t_reference(alpha)
            for s in trace_path(alpha, 9).samples[1:-1]:
                triangle = (1.0 - s.t) * r + s.t * np.eye(12)
                assert s.ortho_defect == orthonormality_defect(triangle)
                gap = abs(s.ortho_defect - orthonormality_defect(s.point.matrix))
                assert gap <= 100 * eps * alpha.condition_estimate

    def test_end_defect_is_the_one_the_sweep_compared(self, monkeypatch):
        # The sweep's gate has measured the frame; trace_path measures only
        # alpha and reports the gate's value at t = 1, bit for bit.
        real = homotopy.orthonormality_defect
        measured = []

        def counted(a):
            measured.append(a)
            return real(a)

        monkeypatch.setattr(homotopy, "orthonormality_defect", counted)
        rng = np.random.default_rng(64)
        for (m, d), condition, n in (((9, 4), 1.0, 2), ((40, 12), 9e5, 3), ((300, 220), 1e3, 2)):
            alpha = conditioned_injective(rng, m, d, condition)
            measured.clear()
            path = trace_path(alpha, n)
            assert len(measured) == 1 and measured[0] is alpha.matrix
            end = path.samples[-1].ortho_defect
            assert np.float64(end).tobytes() == np.float64(homotopy._factor(alpha)[2]).tobytes()

    def test_frame_source_has_orthonormal_interior(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            m, d = random_dims(rng, 48)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
            path = trace_path(include_frame(retract(alpha)), 11)
            assert max(s.ortho_defect for s in path.samples[1:-1]) <= 1e-12

    def test_path_names_the_smaller_of_two_failing_times(self, monkeypatch):
        _decline_bound(monkeypatch)
        alpha = conditioned_injective(np.random.default_rng(52), 9, 4, 1e3)
        _, r, _ = _per_t_reference(alpha)
        _refuse_triangles_of(monkeypatch, r, (0.75, 0.5))
        with pytest.raises(InternalRankLossError, match=r"t=0\.5 failed revalidation: injected"):
            trace_path(alpha, 5)

    def test_check_names_the_smaller_of_two_failing_times(self, monkeypatch):
        # Two of the check's times fail; the smaller one is named.
        _decline_bound(monkeypatch)
        alpha = conditioned_injective(np.random.default_rng(53), 9, 4, 1e3)
        r = orthonormalize(alpha).triangular_factor.to_dense()
        o = random_rotation(9, seed=7)
        _refuse_triangles_of(monkeypatch, r, (0.75, 0.5))
        with pytest.raises(InternalRankLossError, match=r"t=0\.5 failed revalidation: injected"):
            check_equivariance(alpha, o)

    def test_one_certificate_call_per_path_and_per_check_side(self, monkeypatch):
        _decline_bound(monkeypatch)
        alpha = conditioned_injective(np.random.default_rng(54), 20, 6, 1e4)
        calls = _counted_certificates(monkeypatch)
        trace_path(alpha, 33)
        assert calls == [(31, 6, 6)]
        calls.clear()
        trace_path(alpha, 2)
        assert calls == []
        check_equivariance(alpha, random_rotation(20, seed=6))
        assert calls == [(3, 6, 6), (3, 6, 6)]
        calls.clear()
        # A lone interior time is certified as a stack of one.
        homotopy_step(alpha, 0.3)
        trace_path(alpha, 3)
        assert calls == [(1, 6, 6), (1, 6, 6)]

    def test_well_conditioned_path_makes_no_eager_certificate_call(self):
        # The Cholesky certificate covers every interior sample here; each
        # estimate comes from its own triangle when it is read, with the bits
        # that the batched certificate gives.
        alpha = conditioned_injective(np.random.default_rng(56), 20, 6, 10.0)
        with pytest.MonkeyPatch.context() as patch:
            calls = _counted_certificates(patch)
            path = trace_path(alpha, 33)
            assert calls == []
            path.samples[5].point.condition_estimate
            assert calls == [(1, 6, 6)]
        with pytest.MonkeyPatch.context() as patch:
            _decline_bound(patch)
            eager = trace_path(alpha, 33)
        for s, e in zip(path.samples, eager.samples):
            assert s.point.matrix.tobytes() == e.point.matrix.tobytes()
            assert s.point.condition_estimate == e.point.condition_estimate
        # A lone interior sample goes through the same certificate.
        with pytest.MonkeyPatch.context() as patch:
            calls = _counted_certificates(patch)
            middle = trace_path(alpha, 3).samples[1].point
            assert calls == []
            assert "condition_estimate" not in vars(middle)
        with pytest.MonkeyPatch.context() as patch:
            _decline_bound(patch)
            eager = trace_path(alpha, 3).samples[1].point
        assert middle.matrix.tobytes() == eager.matrix.tobytes()
        assert middle.condition_estimate == eager.condition_estimate

    def test_points_the_bound_declines_are_exactly_the_eager_ones(self):
        # At condition 1e8 the certificate declines the triangle at t = 1e-9
        # and certifies the one at t = 0.5. Only a declined one's point holds
        # an estimate from the step; every estimate, stored or read, is its
        # own triangle's.
        alpha = conditioned_injective(np.random.default_rng(58), 24, 12, 1e8)
        frame, r, _ = homotopy._factor(alpha)
        points, triangles, grams = homotopy._step(alpha, include_frame(frame), r, (1e-9, 0.5))
        declined = (~homotopy._certified(grams)).tolist()
        assert declined == [True, False]
        for point, triangle, eager in zip(points, triangles, declined):
            assert ("condition_estimate" in vars(point)) == eager
            assert point.condition_estimate == condition_estimates(triangle[None])[0]

    def test_lazy_points_behave_as_eager_ones(self):
        # The constructor, ==, repr, dataclasses.replace (through
        # equivariance.act) and pickling see the estimate the SVD gives.
        rng = np.random.default_rng(57)
        for alpha in (validate_injective([[3.0]]), conditioned_injective(rng, 12, 4, 10.0)):
            lazy = trace_path(alpha, 5).samples[2].point
            assert "condition_estimate" not in vars(lazy)
            with pytest.MonkeyPatch.context() as patch:
                _decline_bound(patch)
                eager = trace_path(alpha, 5).samples[2].point
            assert repr(lazy) == repr(eager)
            assert lazy == lazy and (alpha.matrix.size > 1 or lazy == eager)
            rebuilt = InjectiveMap(matrix=lazy.matrix, condition_estimate=lazy.condition_estimate)
            assert rebuilt.condition_estimate == eager.condition_estimate
            again = trace_path(alpha, 5).samples[2].point
            o = random_rotation(alpha.shape[0], seed=3)
            assert act(o, again).condition_estimate == eager.condition_estimate
            copy = pickle.loads(pickle.dumps(trace_path(alpha, 5).samples[2].point))
            assert copy.condition_estimate == eager.condition_estimate


def _fixed_frame(d):
    """The Q of the QR of a (d + 3) x d Gaussian seeded with d."""
    return np.linalg.qr(np.random.default_rng(d).standard_normal((d + 3, d)))[0]


def _bisected(make, lo, hi, level=9e5):
    """The largest p in [lo, hi] found by bisection with kappa(make(p)) below
    ``level``, for a family whose condition grows with p."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.linalg.cond(make(mid)) < level:
            lo = mid
        else:
            hi = mid
    return make(lo)


def _shift_family():
    """Q @ R with R = (I - aN)^-1, N the d x d upper shift, so r_ij = a^(j - i)
    above the diagonal, and a bisected to kappa(R) = 9e5. R^-1 is
    bidiagonal, its large terms cancelled, which the shift (1 - t) R + t I
    breaks: the path's triangles are far worse conditioned than R."""
    for d in (4, 6, 10, 16, 30, 64):
        powers = np.arange(d) - np.arange(d)[:, None]
        yield _fixed_frame(d) @ _bisected(lambda a: np.triu(a ** powers), 1.0, 1e3)


def _kahan_family():
    """Q @ K with K the Kahan triangle of cos(theta) = c, bisected to
    kappa(K) = 9e5."""
    for d in (4, 6, 10, 16, 30, 64):

        def kahan(c):
            upper = np.eye(d) - c * np.triu(np.ones((d, d)), 1)
            return math.sqrt(1.0 - c * c) ** np.arange(d)[:, None] * upper

        yield _fixed_frame(d) @ _bisected(kahan, 0.0, 1.0)


def _bound_gallery():
    """Hard cases for the step's certificate: Läuchli matrices near
    condition 9e5, Kahan triangles, orthogonal columns graded by 2^k (R is
    diagonal), conditioned maps and those maps with columns scaled by
    2^(±900 + j), |j| <= 2, and the shift family."""
    for n in (2, 10, 25, 40):
        eps = math.sqrt(n + 1) / 9e5
        yield np.vstack([np.ones((1, n)), eps * np.eye(n)])
    for n, theta in ((6, 1.2), (12, 1.2), (20, 1.0)):
        upper = np.eye(n) - math.cos(theta) * np.triu(np.ones((n, n)), 1)
        yield math.sin(theta) ** np.arange(n)[:, None] * upper
    rng = np.random.default_rng(60)
    for d in (6, 20):
        q, _ = np.linalg.qr(rng.standard_normal((d + 5, d)))
        yield q * 2.0 ** np.arange(d)
    for condition in (1.0, 1e3, 1e5, 9e5):
        base = conditioned_injective(rng, 24, 12, condition).matrix
        yield base
        for sign in (1, -1):
            yield np.ldexp(base, sign * 900 + rng.integers(-2, 3, size=12))
    yield from _shift_family()


def _eigenvalue_bound_certifies(r, times):
    """The step's former certificate, for comparison: sigma_min(T) >= low =
    t + (1 - t) lambda_min((R + R^T) / 2) - 8 d eps high, with
    high = (1 - t) |R|_F + t, certifying where low > 1e-8 high."""
    with np.errstate(over="ignore", invalid="ignore"):
        nu = np.linalg.eigvalsh(0.5 * r + 0.5 * r.T)[0]
        high = (1.0 - times) * np.linalg.norm(r) + times
        low = times + (1.0 - times) * nu - 8 * len(r) * np.finfo(float).eps * high
    return low > 1e-8 * high


@pytest.mark.filterwarnings("error")
def test_cholesky_certificate_is_sound_on_the_gallery():
    inner = np.arange(1, 100) / 100
    counts = []
    for raw in _bound_gallery():
        alpha = validate_injective(raw)
        _, r, _ = homotopy._factor(alpha)
        d = len(r)
        triangles = (1.0 - inner[:, None, None]) * r + inner[:, None, None] * np.eye(d)
        certified = homotopy._certified(gram(triangles))
        # Every certified triangle passes the rank rule with two decades to
        # spare, and its lazy estimate reads cleanly.
        condition_estimates(triangles[certified])
        sv = np.linalg.svd(triangles[certified], compute_uv=False)
        assert (sv[:, -1] > 1e-8 * sv[:, 0]).all()
        samples = trace_path(alpha, 101).samples[1:-1]
        for s, triangle in zip(samples, triangles):
            assert s.point.condition_estimate == condition_estimates(triangle[None])[0]
        # It certifies whatever the eigenvalue bound did, and nothing past
        # the float range (columns scaled by 2^+900).
        eigen = _eigenvalue_bound_certifies(r, inner)
        assert (certified >= eigen).all()
        if max_abs(r) > 1e154:
            assert not certified.any()
        counts.append((int(certified.sum()), int(eigen.sum())))
    assert sum(c for c, _ in counts) > sum(e for _, e in counts) > 0


def test_path_condition_stays_a_decade_below_the_rank_rule():
    # Inputs inside the 1e6 guarantee whose paths are the worst known: the
    # shift family's interior reaches up to about 270 times kappa(R). Every
    # path returns, and its largest interior estimate stays at most 1e9,
    # one decade below the 1e10 rank rule.
    for raw in (*_shift_family(), *_kahan_family()):
        alpha = validate_injective(raw)
        assert 8.9e5 < alpha.condition_estimate <= 1e6
        worst = max(s.point.condition_estimate for s in trace_path(alpha, 101).samples[1:-1])
        assert worst <= 1e9


def test_past_the_guarantee_an_accepted_path_can_fail_the_rank_rule():
    # d = 3, a = 1000: validation accepts condition 1.0e9, and the interior
    # reaches 1.5e11 at t = 1/3, past the rank rule. The path keeps raising
    # InternalRankLossError there, at its first failing sample.
    powers = np.arange(3) - np.arange(3)[:, None]
    alpha = validate_injective(_fixed_frame(3) @ np.triu(1000.0**powers))
    assert 1e9 < alpha.condition_estimate < 1.1e9
    with pytest.raises(InternalRankLossError, match=r"t=0\.02 failed revalidation"):
        trace_path(alpha, 101)
    with pytest.raises(InternalRankLossError, match=r"t=0\.333333 "):
        homotopy_step(alpha, 1 / 3)


def test_coefficient_matrix_meets_its_residual_bound_with_a_decade_to_spare():
    # README: max|alpha @ M - frame| <= 10 eps kappa, kappa the condition
    # estimate; on the gallery it stays below a tenth of that.
    eps = np.finfo(float).eps
    for raw in (*_bound_gallery(), *_kahan_family()):
        alpha = validate_injective(raw)
        result = orthonormalize(alpha)
        residual = alpha.matrix @ result.coefficient_matrix.matrix - result.frame.matrix
        assert max_abs(residual) <= eps * alpha.condition_estimate


def test_cholesky_certificate_declines_triangles_just_below_its_level():
    # The certified level of sigma_min / |T|_F is sqrt(1e-16 + 3 (d + 1) eps).
    # Triangles at 0.3 to 0.9 of it are declined; without the shift's
    # rounding term they would be certified (a level of 1e-8).
    eps = np.finfo(float).eps
    rng = np.random.default_rng(62)
    for d in (4, 12, 32, 64):
        level = math.sqrt(1e-16 + 3 * (d + 1) * eps)
        rest = np.logspace(0, -2, d - 1)
        triangles = []
        for fraction in np.linspace(0.3, 0.9, 7):
            ratio = fraction * level
            smallest = ratio * np.linalg.norm(rest) / math.sqrt(1.0 - ratio**2)
            u, _ = np.linalg.qr(rng.standard_normal((d, d)))
            v, _ = np.linalg.qr(rng.standard_normal((d, d)))
            _, t = np.linalg.qr((u * np.append(rest, smallest)) @ v.T)
            t *= np.sign(t.diagonal())[:, None]
            sv = np.linalg.svd(t, compute_uv=False)
            assert 0.29 < sv[-1] / np.linalg.norm(t) / level < 0.91
            triangles.append(t)
        triangles = np.stack(triangles)
        assert not homotopy._certified(gram(triangles)).any()
        assert not any(homotopy._certified(gram(t[None]))[0] for t in triangles)


class TestContinuity:
    def test_steps_bounded_by_coefficient_gap(self):
        rng = np.random.default_rng(31)
        h = 1e-3
        for _ in range(50):
            m, d = random_dims(rng, 32)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
            coeff = coefficient_matrix(alpha)
            bound = 2.0 * max_abs(alpha.matrix) * max_abs(coeff.to_dense() - np.eye(d))
            for t in np.linspace(0.0, 1.0 - h, 11):
                diff = max_abs(
                    homotopy_step(alpha, float(t) + h).matrix
                    - homotopy_step(alpha, float(t)).matrix
                )
                assert diff <= bound * h


class TestPathSerialization:
    def test_csv_round_trip_exact(self):
        alpha, _ = generate_injective(np.random.default_rng(7), 4, 2)
        path = trace_path(alpha, 5)
        rows = parse_path_csv(path_to_csv(path))
        assert len(rows) == 5
        for row, sample in zip(rows, path.samples):
            assert row["t"] == sample.t
            assert np.array_equal(row["point"], sample.point.matrix)
            assert row["min_diag"] == sample.min_interpolant_diag
            assert row["ortho_defect"] == sample.ortho_defect

    def test_json_round_trip_exact(self):
        alpha, _ = generate_injective(np.random.default_rng(9), 3, 3)
        path = trace_path(alpha, 4)
        rows = parse_path_json_obj(json.loads(json.dumps(path_to_json_obj(path))))
        for row, sample in zip(rows, path.samples):
            assert row["t"] == sample.t
            assert np.array_equal(row["point"], sample.point.matrix)

    def test_csv_header_layout(self):
        path = trace_path(validate_injective(HAND_INPUT), 2)
        header = path_to_csv(path).splitlines()[0]
        assert header == "t,entry_0_0,entry_0_1,entry_1_0,entry_1_1,min_diag,ortho_defect"


def test_trace_path_rejects_a_count_past_the_largest_array_at_once():
    # The count is checked by arithmetic before the list of times or the
    # stack of points is built; a list of 2**70 times would never finish.
    with pytest.raises(DomainError, match="samples of 4 entries hold more than"):
        trace_path(validate_injective(HAND_INPUT), 2**70)


# Caps the child's address space at 512 MB, asks for 2**40 samples of a 3x2
# map and prints the child's peak resident set in kB once MemoryError is
# raised.
OVERSIZED_PATH = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))
from stiefel_retract import trace_path, validate_injective
alpha = validate_injective([[2.0, 1.0], [0.0, 3.0], [1.0, 1.0]])
try:
    trace_path(alpha, 2**40)
except MemoryError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_trace_path_fails_at_once_when_the_samples_do_not_fit():
    # Under the bound on counts, but far past memory: the times and the stack
    # of points are arrays, so the call fails before it builds any per-sample
    # Python object, and the child never grows towards its cap.
    package_root = str(Path(stiefel_retract.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", OVERSIZED_PATH],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.strip(), f"no MemoryError: {proc.stderr}"
    assert int(proc.stdout) < 200 * 1024


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda alpha: homotopy_step(alpha, "0.5"), MatrixFormatError),
        (lambda alpha: sphere_interpolant([3.0, 4.0], "0.5"), MatrixFormatError),
        (lambda alpha: interpolant(alpha, b"0.5"), MatrixFormatError),
        (lambda alpha: homotopy_step(alpha, [0.5]), DomainError),
        (lambda alpha: trace_path(alpha, 3.0), DomainError),
        (lambda alpha: random_rotation(2.5, 0), DomainError),
        (lambda alpha: random_rotation(2, 1.5), DomainError),
    ],
    ids=["text-t", "text-t-vector", "bytes-t", "list-t", "float-n", "float-m", "float-seed"],
)
def test_scalar_arguments_are_numbers_of_the_right_kind(call, error):
    # Text is the parsers' job, and a float count or seed is a library
    # error rather than the builtin TypeError.
    with pytest.raises(error):
        call(validate_injective(HAND_INPUT))
