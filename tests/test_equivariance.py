import numpy as np
import pytest

from stiefel_retract import (
    DimensionError,
    DomainError,
    MatrixFormatError,
    act,
    check_equivariance,
    coefficient_matrix,
    include_frame,
    interpolant,
    random_rotation,
    retract,
    validate_injective,
    validate_rotation,
)
from stiefel_retract import homotopy
from stiefel_retract.core import max_abs, orthonormality_defect
from stiefel_retract.equivariance import DEFAULT_T_SAMPLES, report_to_json_obj
from stiefel_retract.sampling import (
    conditioned_injective,
    generate_injective,
    random_dims,
)

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestRandomRotation:
    def test_dimension_one_is_trivial_group(self):
        for seed in (0, 1, 99):
            assert np.array_equal(random_rotation(1, seed).matrix, [[1.0]])

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
    def test_output_validates(self, m):
        rot = random_rotation(m, seed=m * 7 + 1)
        validate_rotation(rot.matrix)

    def test_deterministic_given_seed(self):
        a = random_rotation(6, seed=123)
        b = random_rotation(6, seed=123)
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_bad_dimension_rejected(self):
        with pytest.raises(DomainError):
            random_rotation(0, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            random_rotation(3, seed=-1)

    @pytest.mark.parametrize("m", range(1, 65))
    def test_is_sign_fixed_lapack_q(self, m):
        for seed in (0, 1, 7, 2**62 + 3):
            q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
            signs = np.sign(np.diagonal(r))
            q = q * np.where(signs == 0.0, 1.0, signs)
            if np.linalg.det(q) < 0.0:
                q[:, -1] = -q[:, -1]
            rot = random_rotation(m, seed).matrix
            assert rot.tobytes() == np.asfortranarray(q).tobytes()
            assert rot.flags.f_contiguous and not rot.flags.writeable
            validate_rotation(rot)

    def test_orthogonal_with_unit_determinant(self):
        for m in range(1, 33):
            for seed in range(5):
                rot = random_rotation(m, seed).matrix
                assert orthonormality_defect(rot) <= 1e-14
                assert abs(np.linalg.det(rot) - 1.0) <= 1e-12

    def test_first_moment_vanishes(self):
        # Haar measure is invariant under negating a row, so every entry has
        # mean zero; entry [0, 0] of a 4 x 4 rotation has standard deviation
        # 1/2, so the mean of 10 000 draws sits within 0.05 at 10 sigma.
        mean = np.mean([random_rotation(4, seed).matrix[0, 0] for seed in range(10_000)])
        assert abs(mean) <= 0.05

    def test_independent_of_the_sweep(self, monkeypatch):
        # The rotation checks the sweep's equivariance, so it must not be
        # built by the sweep or gated by the rank validator.
        from stiefel_retract import core, equivariance, gram_schmidt

        def refuse(*args):
            raise AssertionError("the Gram-Schmidt sweep ran")

        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(gram_schmidt, "_sweep", refuse)
        for module in (core, gram_schmidt, equivariance):
            for name in ("validate_injective", "qr_decompose"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for m in (1, 2, 6, 16):
            random_rotation(m, seed=m)
        assert calls == []
        equivariance.act(random_rotation(3, seed=1), validate_injective(np.eye(3)[:, :2]))
        assert calls == []

    def test_one_determinant(self, monkeypatch):
        # The determinant that decides the flip also settles the sign; no
        # second one gates the result.
        calls = []
        det = np.linalg.det

        def counted(a):
            calls.append(a.shape)
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counted)
        for m in (1, 2, 6, 16):
            random_rotation(m, seed=m)
            assert calls == [(m, m)]
            calls.clear()


class TestAct:
    def test_identity_acts_trivially(self):
        alpha, _ = generate_injective(np.random.default_rng(1), 5, 3)
        identity = validate_rotation(np.eye(5))
        assert np.array_equal(act(identity, alpha).matrix, alpha.matrix)

    def test_quarter_turn(self):
        alpha = validate_injective(np.array([[1.0], [0.0]]))
        turned = act(validate_rotation(ROT90), alpha)
        assert np.array_equal(turned.matrix, np.array([[0.0], [1.0]]))

    def test_composition_law(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            m, d = random_dims(rng, 16)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e6)
            identity = validate_rotation(np.eye(m))
            assert np.array_equal(act(identity, alpha).matrix, alpha.matrix)
            o1 = random_rotation(m, int(rng.integers(0, 2**63)))
            o2 = random_rotation(m, int(rng.integers(0, 2**63)))
            composed = validate_rotation(o1.matrix @ o2.matrix)
            assert (
                max_abs(act(o1, act(o2, alpha)).matrix - act(composed, alpha).matrix)
                <= 1e-12
            )

    def test_dimension_mismatch_rejected(self):
        alpha, _ = generate_injective(np.random.default_rng(2), 4, 2)
        with pytest.raises(DimensionError):
            act(validate_rotation(np.eye(3)), alpha)

    def test_runs_no_rank_rule(self, monkeypatch):
        from stiefel_retract import core

        def refuse(a):
            raise AssertionError("condition_estimates called")

        alpha, _ = generate_injective(np.random.default_rng(5), 6, 3)
        o = random_rotation(6, seed=3)
        monkeypatch.setattr(core, "condition_estimates", refuse)
        assert act(o, alpha).condition_estimate == alpha.condition_estimate

    def test_keeps_the_source_verdict(self):
        # Rotations keep singular values, so the rotated map carries its
        # source's estimate exactly; its matrix is the product, stored as
        # every validated map is.
        rng = np.random.default_rng(51)
        family = [generate_injective(rng, *random_dims(rng, 32))[0] for _ in range(40)]
        family += [
            conditioned_injective(rng, *random_dims(rng, 32), condition)
            for condition in (1e3, 1e4, 1e5, 9e5)
            for _ in range(5)
        ]
        family.append(include_frame(retract(family[0])))
        for alpha in family:
            o = random_rotation(alpha.shape[0], int(rng.integers(0, 2**63)))
            rotated = act(o, alpha)
            assert rotated.condition_estimate == alpha.condition_estimate
            product = o.matrix @ alpha.matrix
            assert rotated.matrix.tobytes(order="F") == product.tobytes(order="F")
            assert rotated.matrix.flags.f_contiguous and not rotated.matrix.flags.writeable


class TestCheckEquivariance:
    def test_identity_rotation_gives_zero_defects(self):
        alpha, _ = generate_injective(np.random.default_rng(3), 6, 3)
        report = check_equivariance(alpha, validate_rotation(np.eye(6)), tolerance=1e-9)
        assert report.frame_defect <= 1e-14
        assert report.coefficient_defect <= 1e-14
        assert all(d <= 1e-14 for _, d in report.homotopy_defects)
        assert report.passed

    def test_quarter_turn_on_axis_vector(self):
        alpha = validate_injective(np.array([[1.0], [0.0]]))
        report = check_equivariance(alpha, validate_rotation(ROT90), tolerance=1e-12)
        # both branches normalize the same rotated vector
        assert report.frame_defect <= 1e-15
        assert report.passed

    def test_random_pair_within_tolerance(self):
        rng = np.random.default_rng(37)
        alpha, _ = generate_injective(rng, 16, 5, max_condition=1e4)
        o = random_rotation(16, seed=int(rng.integers(0, 2**63)))
        report = check_equivariance(alpha, o, tolerance=1e-9)
        assert report.passed
        assert report.frame_defect <= 1e-9
        assert report.coefficient_defect <= 1e-9
        assert max(d for _, d in report.homotopy_defects) <= 1e-9

    def test_coefficient_invariance_direct(self):
        rng = np.random.default_rng(39)
        for _ in range(50):
            m, d = random_dims(rng, 32)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e4)
            o = random_rotation(m, int(rng.integers(0, 2**63)))
            rotated = act(o, alpha)
            ca = coefficient_matrix(alpha)
            cr = coefficient_matrix(rotated)
            assert max_abs(ca.matrix - cr.matrix) <= 1e-9
            for t in DEFAULT_T_SAMPLES:
                drift = interpolant(rotated, t).matrix - interpolant(alpha, t).matrix
                assert max_abs(drift) <= 1e-9

    def test_t_one_defect_is_frame_defect(self):
        # At t = 1 both homotopy points are the frames themselves.
        rng = np.random.default_rng(43)
        for _ in range(10):
            m, d = random_dims(rng, 16)
            alpha, _ = generate_injective(rng, m, d, max_condition=1e5)
            o = random_rotation(m, int(rng.integers(0, 2**63)))
            report = check_equivariance(alpha, o, tolerance=1e-9)
            assert report.homotopy_defects[-1] == (1.0, report.frame_defect)

    def test_multiplies_out_no_interpolant(self, monkeypatch):
        # interpolant is the one homotopy code that forms a coefficient matrix.
        calls = []
        coefficients = homotopy.coefficient_matrix

        def counted(alpha):
            calls.append(alpha)
            return coefficients(alpha)

        monkeypatch.setattr(homotopy, "coefficient_matrix", counted)
        alpha, _ = generate_injective(np.random.default_rng(45), 6, 3)
        check_equivariance(alpha, random_rotation(6, seed=2))
        assert calls == []
        interpolant(alpha, 0.5)
        assert len(calls) == 1 and calls[0] is alpha

    def test_unreachable_tolerance_fails(self):
        rng = np.random.default_rng(41)
        alpha, _ = generate_injective(rng, 8, 3)
        o = random_rotation(8, seed=5)
        report = check_equivariance(alpha, o, tolerance=1e-30)
        assert not report.passed

    @pytest.mark.parametrize("tolerance", [0.0, float("nan")])
    def test_nonpositive_tolerance_rejected(self, tolerance):
        alpha, _ = generate_injective(np.random.default_rng(4), 4, 2)
        with pytest.raises(DomainError):
            check_equivariance(alpha, random_rotation(4, 1), tolerance)

    @pytest.mark.parametrize(
        "tolerance, error",
        [("1e-9", MatrixFormatError), (np.array([1e-9, 1e-9]), DomainError)],
        ids=["text", "array"],
    )
    def test_tolerance_read_by_the_scalar_rule_of_t(self, tolerance, error):
        # Text is unreadable and an array is not a single number, as for t.
        alpha, _ = generate_injective(np.random.default_rng(4), 4, 2)
        with pytest.raises(error):
            check_equivariance(alpha, random_rotation(4, 1), tolerance)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_passes_at_every_condition_and_scale(self):
        # The defects grow with the entries of M and of the input; judged
        # against that size, every pair of a well-posed input passes.
        rng = np.random.default_rng(47)
        for condition in (1.0, 1e2, 1e4, 1e6):
            for exponent in (-900, 0, 900):
                for _ in range(6):
                    m, d = random_dims(rng, 16)
                    base = conditioned_injective(rng, m, d, condition)
                    alpha = validate_injective(np.ldexp(base.matrix, exponent))
                    o = random_rotation(m, int(rng.integers(0, 2**63)))
                    report = check_equivariance(alpha, o, 1e-9)
                    assert report.passed, (condition, exponent, report)

    def test_report_json_layout(self):
        alpha, _ = generate_injective(np.random.default_rng(6), 3, 2)
        report = check_equivariance(alpha, random_rotation(3, 2), 1e-9)
        obj = report_to_json_obj(report)
        assert set(obj) == {"frame_defect", "coefficient_defect", "homotopy_defects", "passed"}
        assert obj["homotopy_defects"][0][0] == 0.0
        # The check steps at its fixed times, in order and all of them.
        assert tuple(t for t, _ in report.homotopy_defects) == DEFAULT_T_SAMPLES


def test_frame_equivariance_small_sweep():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(25):
        m, d = random_dims(rng, 32)
        alpha, _ = generate_injective(rng, m, d, max_condition=1e4)
        o = random_rotation(m, int(rng.integers(0, 2**63)))
        left = retract(act(o, alpha)).matrix
        right = o.matrix @ retract(alpha).matrix
        worst = max(worst, max_abs(left - right))
    assert worst <= 1e-9
