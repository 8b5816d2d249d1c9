"""SE(3) exponential / logarithm / adjoint tests.

Expected values come from independent constructions: a truncated matrix
exponential series for exp, plain 4x4 homogeneous algebra for compose and
inverse, and the conjugation identity for the adjoint.
"""

import pickle

import numpy as np
import pytest

from licov import se3
from licov.errors import AngleNearPi

from conftest import random_pose, random_twist, random_spd


def series_exp(xi, order=14):
    """Truncated power series of the 4x4 twist matrix. Independent of licov."""
    m = np.zeros((4, 4))
    m[:3, :3] = se3.skew(np.asarray(xi)[3:])
    m[:3, 3] = np.asarray(xi)[:3]
    out = np.eye(4)
    term = np.eye(4)
    for k in range(1, order + 1):
        term = term @ m / k
        out = out + term
    return out


# value of series_exp((0.1, -0.2, 0.05, 0.01, 0.02, -0.03)) at order 14,
# frozen so a regression in either code path is visible
XI0 = np.array([0.1, -0.2, 0.05, 0.01, 0.02, -0.03])
T_XI0 = np.array([
    [0.99935007582979452, 0.030092988823861425, 0.019845351159172464, 0.097469460477983966],
    [-0.029893012156105903, 0.99950005833061129, -0.010297631831627846, -0.20171813139278696],
    [-0.020145316160805754, 0.0096977018283612628, 0.99975002916530553, 0.04801106589747],
    [0.0, 0.0, 0.0, 1.0],
])


class TestExp:
    def test_matches_series_small_twist(self):
        t = se3.exp(XI0)
        assert np.allclose(t.matrix(), T_XI0, atol=1e-12)

    def test_matches_series_moderate_angles(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            xi = random_twist(rng, max_angle=0.5)
            t = se3.exp(xi)
            assert np.allclose(t.matrix(), series_exp(xi), atol=1e-10)

    def test_zero_twist_is_identity(self):
        t = se3.exp(np.zeros(6))
        assert np.array_equal(t.matrix(), np.eye(4))

    def test_pure_rotation_quarter_turn(self):
        t = se3.exp([0, 0, 0, 0, 0, np.pi / 2])
        assert np.allclose(t.R, se3.rot_z(np.pi / 2), atol=1e-12)
        assert np.allclose(t.t, 0.0, atol=1e-15)

    def test_pure_translation(self):
        t = se3.exp([1.0, 2.0, 3.0, 0, 0, 0])
        assert np.allclose(t.R, np.eye(3))
        assert np.allclose(t.t, [1.0, 2.0, 3.0])

    def test_small_angle_branch_continuity(self):
        # same twist direction evaluated just below and above the series cutoff
        axis = np.array([0.6, -0.48, 0.64])
        axis /= np.linalg.norm(axis)
        u = np.array([0.3, -0.1, 0.2])
        lo = se3.exp(np.concatenate([u, 0.99e-8 * axis]))
        hi = se3.exp(np.concatenate([u, 1.01e-8 * axis]))
        # agreement is limited by cancellation in (1 - cos) / theta**2
        assert np.allclose(lo.matrix(), hi.matrix(), atol=1e-9)


class TestLog:
    def test_round_trip_1000(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            xi = random_twist(rng, max_angle=3.0)
            back = se3.log(se3.exp(xi))
            worst = max(worst, float(np.max(np.abs(back - xi))))
        assert worst < 1e-8

    def test_round_trip_pinned(self):
        assert np.allclose(se3.log(se3.exp(XI0)), XI0, atol=1e-9)

    def test_log_identity_is_zero(self):
        assert np.array_equal(se3.log(SE3_IDENTITY()), np.zeros(6))

    def test_angle_near_pi_raises(self):
        with pytest.raises(AngleNearPi):
            se3.log(se3.exp([0, 0, 0, 0, 0, np.pi - 1e-9]))

    def test_angle_just_inside_margin_ok(self):
        xi = np.array([0.1, 0.0, 0.0, 0.0, 0.0, np.pi - 1e-4])
        assert np.allclose(se3.log(se3.exp(xi)), xi, atol=1e-7)

    def test_small_angle_round_trip(self):
        xi = np.array([0.2, -0.3, 0.1, 1e-10, -2e-10, 5e-11])
        assert np.allclose(se3.log(se3.exp(xi)), xi, atol=1e-12)


def SE3_IDENTITY():
    return se3.SE3.identity()


class TestGroupOps:
    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = random_pose(rng)
            b = random_pose(rng)
            expected = a.matrix() @ b.matrix()
            assert np.allclose(se3.compose(a, b).matrix(), expected, atol=1e-12)

    def test_matmul_operator(self):
        rng = np.random.default_rng(4)
        a, b = random_pose(rng), random_pose(rng)
        assert np.allclose((a @ b).matrix(), se3.compose(a, b).matrix())

    def test_inverse_matches_matrix_inverse(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            t = random_pose(rng)
            assert np.allclose(se3.inverse(t).matrix(), np.linalg.inv(t.matrix()), atol=1e-10)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = random_pose(rng)
            assert np.allclose((t @ se3.inverse(t)).matrix(), np.eye(4), atol=1e-10)

    def test_associativity(self):
        rng = np.random.default_rng(9)
        a, b, c = (random_pose(rng) for _ in range(3))
        left = (a @ b) @ c
        right = a @ (b @ c)
        assert np.allclose(left.matrix(), right.matrix(), atol=1e-10)

    def test_pure_translation_inverse(self):
        t = se3.exp([1.0, 2.0, 3.0, 0, 0, 0])
        assert np.allclose(se3.inverse(t).t, [-1.0, -2.0, -3.0])

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(10)
        t = random_pose(rng)
        pts = rng.normal(size=(20, 3))
        hom = np.hstack([pts, np.ones((20, 1))])
        expected = (t.matrix() @ hom.T).T[:, :3]
        assert np.allclose(t.apply(pts), expected, atol=1e-12)


class TestAdjoint:
    def test_conjugation_identity(self):
        # Ad(T) xi  ==  log(T exp(xi) T^-1)
        rng = np.random.default_rng(12)
        for _ in range(100):
            t = random_pose(rng)
            xi = random_twist(rng, max_angle=1.0)
            conj = t @ se3.exp(xi) @ se3.inverse(t)
            assert np.allclose(se3.adjoint(t) @ xi, se3.log(conj), atol=1e-8)

    def test_homomorphism(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            assert np.allclose(
                se3.adjoint(a @ b), se3.adjoint(a) @ se3.adjoint(b), atol=1e-9
            )

    def test_identity_adjoint(self):
        assert np.array_equal(se3.adjoint(SE3_IDENTITY()), np.eye(6))

    def test_block_structure(self):
        rng = np.random.default_rng(14)
        t = random_pose(rng)
        ad = se3.adjoint(t)
        assert np.allclose(ad[:3, :3], t.R)
        assert np.allclose(ad[3:, 3:], t.R)
        assert np.allclose(ad[3:, :3], 0.0)
        assert np.allclose(ad[:3, 3:], se3.skew(t.t) @ t.R)


class TestTransport:
    def test_transported_covariance_symmetric_psd(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            t = random_pose(rng)
            cov = random_spd(rng)
            out = se3.transport_covariance(t, cov)
            assert np.array_equal(out, out.T)
            assert np.min(np.linalg.eigvalsh(out)) > 0.0

    def test_matches_sandwich_product(self):
        rng = np.random.default_rng(16)
        t = random_pose(rng)
        cov = random_spd(rng)
        ad = se3.adjoint(t)
        expected = ad @ cov @ ad.T
        expected = 0.5 * (expected + expected.T)
        assert np.allclose(se3.transport_covariance(t, cov), expected, atol=1e-12)

    def test_identity_transport_is_symmetrize(self):
        cov = np.diag([1.0, 2, 3, 4, 5, 6.0])
        assert np.allclose(se3.transport_covariance(SE3_IDENTITY(), cov), cov)


class TestValidation:
    def test_rejects_non_orthonormal_rotation(self):
        bad = np.eye(3)
        bad[0, 0] = 1.1
        with pytest.raises(ValueError):
            se3.SE3(bad, np.zeros(3))

    def test_rejects_reflection(self):
        bad = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            se3.SE3(bad, np.zeros(3))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            se3.SE3(np.eye(4), np.zeros(3))
        with pytest.raises(ValueError):
            se3.SE3(np.eye(3), np.zeros(4))

    def test_long_products_still_pass_the_check(self):
        # compose, inverse and exp do not re-check orthonormality; rounding
        # over 1e5 products of validated rotations must stay within it
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.normal(size=(100_000, 3, 3)))
        q *= np.sign(np.linalg.det(q))[:, None, None]
        product = SE3_IDENTITY()
        for R in q:
            product = product @ se3.SE3(R, np.zeros(3))
        for t in (product, se3.inverse(product)):
            se3.SE3(t.R, t.t)

    def test_fields_read_only(self):
        t = SE3_IDENTITY()
        with pytest.raises(ValueError):
            t.R[0, 0] = 2.0
        with pytest.raises(ValueError):
            t.t[0] = 1.0
        with pytest.raises(AttributeError):
            t.R = np.eye(3)

    def test_pickle_round_trip(self):
        t = random_pose(np.random.default_rng(19))
        copy = pickle.loads(pickle.dumps(t))
        assert copy.R.tobytes() == t.R.tobytes() and copy.t.tobytes() == t.t.tobytes()
        with pytest.raises(ValueError):
            copy.R[0, 0] = 2.0
        with pytest.raises(ValueError):
            copy.t[0] = 1.0
        with pytest.raises(AttributeError, match="immutable"):
            copy.t = np.zeros(3)
