"""Covariance head, losses, analytic gradients, and the training loop."""

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import expit

from licov import model as model_mod
from licov import se3
from licov.cloud import PointCloud
from licov.errors import DataError, NumericError
from licov.mcgen import CovRecord, pack_upper
from licov.features import extract_features, with_normals
from licov.model import (
    DIAG_FLOOR,
    RegressionModel,
    TrainConfig,
    _huber_half,
    _sampling_p,
    augment_sample,
    cov_to_params,
    head_loss_and_grad,
    inv_softplus,
    load_model,
    loss_kl,
    params_to_chol,
    params_to_cov,
    predict,
    regularize_label,
    save_model,
    softplus,
    train,
)

from conftest import random_spd

# closed form for KL(N(0, 2I) || N(0, I)) in six dimensions
KL_2I_I = 3.0 * (2.0 - 1.0 - np.log(2.0))


# The kernel takes stacks; these run one item as a stack of one.
def kl1(y_hat, y_bar):
    return loss_kl(np.asarray(y_hat)[None], np.asarray(y_bar)[None])[0]


def huber1(y_hat, y_bar, delta=1e-3):
    return _huber_half(y_hat[None], y_bar[None], delta)[0][0]


def head1(raw, y_bar, **weights):
    loss, grad = head_loss_and_grad(np.asarray(raw)[None], np.asarray(y_bar)[None], **weights)
    return loss[0], grad[0]


def draw(records, size, rng):
    """Record indices drawn as train draws a batch."""
    return rng.choice(len(records), size=size, replace=True, p=_sampling_p(records))


def make_record(frame_id, covariance):
    return CovRecord(
        frame_id=frame_id,
        n=50,
        covariance=np.asarray(covariance, dtype=float),
        seed=0,
        diverged_count=0,
        mean_twist=np.zeros(6),
    )


def make_scan(seed, n=60):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-3, 3, size=(n, 3)) + np.array([0, 0, 1.5]))


class TestHeadParameterization:
    def test_chol_layout(self):
        raw = np.arange(21.0) / 10.0
        c = params_to_chol(raw)
        assert np.allclose(np.diag(c), softplus(raw[:6]) + DIAG_FLOOR)
        assert np.array_equal(c[np.triu_indices(6, 1)], np.zeros(15))
        assert c[1, 0] == raw[6]
        assert c[5, 4] == raw[20]

    def test_cov_always_positive_definite(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            y = params_to_cov(rng.normal(scale=3.0, size=21))
            assert np.array_equal(y, y.T)
            assert np.linalg.eigvalsh(y)[0] > 0.0

    def test_extreme_negative_raw_floors_diagonal(self):
        y = params_to_cov(np.full(21, -30.0) * (np.arange(21) < 6))
        assert np.all(np.diag(y) < 1e-15)
        assert np.linalg.eigvalsh(y)[0] > 0.0

    def test_refactorization_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            raw = rng.normal(size=21)
            back = cov_to_params(params_to_cov(raw))
            assert np.allclose(back, raw, atol=1e-10)

    def test_cov_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cov = random_spd(rng, scale=0.1)
            again = params_to_cov(cov_to_params(cov))
            assert np.allclose(again, cov, rtol=1e-10, atol=1e-12)

    def test_non_pd_rejected(self):
        with pytest.raises(NumericError, match="cov_to_params needs a PD matrix"):
            cov_to_params(np.diag([1.0, 1, 1, 1, 1, -1]))

    def test_inv_softplus(self):
        xs = np.array([-20.0, -3.0, 0.0, 5.0, 29.0])
        assert np.allclose(inv_softplus(softplus(xs)), xs, atol=1e-9)
        assert inv_softplus(35.0) == 35.0


class TestKl:
    def test_zero_at_equality(self):
        rng = np.random.default_rng(3)
        y = random_spd(rng)
        assert abs(kl1(y, y)) < 1e-10

    def test_closed_form_doubled_identity(self):
        val = kl1(2.0 * np.eye(6), np.eye(6))
        assert abs(val - KL_2I_I) < 1e-12
        assert abs(val - 0.9205584583201638) < 1e-12

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert kl1(random_spd(rng), random_spd(rng)) > -1e-12

    def test_asymmetric(self):
        a = np.diag([2.0, 1, 1, 1, 1, 1.0])
        b = np.eye(6)
        assert abs(kl1(a, b) - kl1(b, a)) > 1e-3

    def test_congruence_invariance(self):
        rng = np.random.default_rng(5)
        y, ref = random_spd(rng), random_spd(rng)
        a = rng.normal(size=(6, 6)) + 3.0 * np.eye(6)
        lhs = kl1(a @ y @ a.T, a @ ref @ a.T)
        assert abs(lhs - kl1(y, ref)) < 1e-8

    def test_singular_prediction_rejected(self):
        with pytest.raises(NumericError, match="KL predicted covariance is not positive definite"):
            kl1(np.diag([1.0, 1, 1, 1, 1, 0.0]), np.eye(6))

    def test_non_finite_matrix_is_a_numeric_error(self):
        for bad in (np.diag(np.full(6, np.inf)), np.full((6, 6), np.nan)):
            with pytest.raises(NumericError, match="non-finite"):
                kl1(bad, np.eye(6))
            with pytest.raises(NumericError, match="non-finite"):
                kl1(np.eye(6), bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_label_is_a_numeric_error_when_regularized(self, bad):
        label = np.eye(6)
        label[1, 4] = label[4, 1] = bad
        with pytest.raises(NumericError, match="KL reference covariance has non-finite"):
            kl1(np.eye(6), label)
        with pytest.raises(NumericError, match="KL reference covariance has non-finite"):
            head1(np.zeros(21), label)
        with pytest.raises(NumericError, match="KL reference covariance has non-finite"):
            head_loss_and_grad(np.zeros((3, 21)), np.stack([np.eye(6), np.eye(6), label]))

    def test_singular_label_regularized_or_rejected(self):
        singular = np.zeros((6, 6))
        assert np.isfinite(kl1(np.eye(6), singular))
        # the shift only lifts eigenvalues near zero: an indefinite label stays unusable
        with pytest.raises(NumericError, match="KL reference covariance is not positive definite"):
            kl1(np.eye(6), np.diag([1.0, 1, 1, 1, 1, -1]))

    def test_regularize_label(self):
        ok = np.eye(6)
        assert np.array_equal(regularize_label(ok), ok)
        bad = np.diag([1.0, 1, 1, 1, 1, 0.0])
        fixed = regularize_label(bad)
        assert np.allclose(fixed, bad + 1e-10 * np.eye(6))


class TestHuber:
    def _pair(self, d, slot=(0, 0)):
        y = np.eye(6)
        y[slot[0], slot[1]] += d
        y[slot[1], slot[0]] = y[slot[0], slot[1]]
        return y, np.eye(6)

    def test_zero(self):
        assert huber1(np.eye(6), np.eye(6)) == 0.0

    def test_quadratic_branch_boundary(self):
        y, ref = self._pair(1e-3)
        assert abs(huber1(y, ref) - 0.5e-6) < 1e-18

    def test_linear_branch(self):
        y, ref = self._pair(3e-3)
        assert abs(huber1(y, ref) - 2.5e-6) < 1e-18

    def test_off_diagonal_counted_once(self):
        y, ref = self._pair(0.01, slot=(0, 1))
        expected = 1e-3 * (0.01 - 0.5e-3)
        assert abs(huber1(y, ref) - expected) < 1e-15

    def test_slope_continuous_at_threshold(self):
        h = 1e-9
        up = (huber1(*self._pair(1e-3 + h)) - huber1(*self._pair(1e-3))) / h
        dn = (huber1(*self._pair(1e-3)) - huber1(*self._pair(1e-3 - h))) / h
        assert abs(up - dn) < 1e-8

    def test_bad_delta(self):
        # the kernel trusts delta; a non-positive one is refused at config
        for delta in (0.0, -1e-3):
            with pytest.raises(ValueError, match="huber_delta"):
                TrainConfig(huber_delta=delta)


class TestCombined:
    # The training loss is head_loss_and_grad's value: alpha * KL on the
    # regularized label plus beta * Huber on the raw label.
    def test_pinned_value(self):
        val, _ = head1(cov_to_params(2.0 * np.eye(6)), np.eye(6))
        expected = 0.1 * KL_2I_I + 0.9 * 6.0 * 1e-3 * (1.0 - 0.5e-3)
        assert abs(expected - 0.09745314583201638) < 1e-15
        assert abs(val - expected) < 1e-12

    def test_weights_zero_out_terms(self):
        rng = np.random.default_rng(6)
        raw, ref = rng.normal(size=21), random_spd(rng)
        y = params_to_cov(raw)
        hub, _ = head1(raw, ref, alpha=0.0, beta=1.0)
        kl, _ = head1(raw, ref, alpha=1.0, beta=0.0)
        assert abs(hub - huber1(y, ref)) < 1e-15
        assert abs(kl - kl1(y, ref)) < 1e-12

    def test_overflowing_head_is_a_numeric_error(self):
        # off-diagonal Cholesky entries this large overflow C C^T to inf
        raw = np.zeros(21)
        raw[6:] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite"):
                head1(raw, np.eye(6))

    def test_huber_sees_raw_label_kl_sees_regularized(self):
        raw = np.zeros(21)
        y = params_to_cov(raw)
        singular = np.zeros((6, 6))
        val, _ = head1(raw, singular)
        expected = 0.1 * kl1(y, singular) + 0.9 * huber1(y, singular)
        assert np.isfinite(val)
        assert abs(val - expected) < 1e-10


def central_fd(fn, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return g


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(1e-6, np.maximum(np.abs(a), np.abs(b)))


class TestAnalyticGradient:
    def test_head_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            raw = rng.normal(size=21)
            label = random_spd(rng, scale=0.2)
            _, grad = head1(raw, label)
            fd = central_fd(lambda r: head1(r, label)[0], raw)
            assert np.max(rel_err(grad, fd)) < 1e-4

    def test_head_gradient_alpha_beta_split(self):
        rng = np.random.default_rng(8)
        raw = rng.normal(size=21)
        label = random_spd(rng, scale=0.2)
        _, g_kl = head1(raw, label, alpha=1.0, beta=0.0)
        _, g_hub = head1(raw, label, alpha=0.0, beta=1.0)
        _, g_mix = head1(raw, label, alpha=0.1, beta=0.9)
        assert np.allclose(g_mix, 0.1 * g_kl + 0.9 * g_hub, atol=1e-12)

    def test_network_gradient_matches_finite_differences(self):
        # recover the weight gradient from one zero-vs-nonzero learning-rate
        # step and compare against finite differences of the full forward
        scan = make_scan(10)
        label = 1e-4 * np.eye(6) + 2e-5
        samples = [(make_record(0, label), scan)]
        base = dict(steps=1, batch_size=1, augment=False, seed=9)
        m0, _ = train(samples, TrainConfig(learning_rate=0.0, **base))
        lr = 0.25
        m1, _ = train(samples, TrainConfig(learning_rate=lr, **base))
        got = {
            "w1": (m0.w1 - m1.w1) / lr,
            "b1": (m0.b1 - m1.b1) / lr,
            "w2": (m0.w2 - m1.w2) / lr,
            "b2": (m0.b2 - m1.b2) / lr,
        }

        from licov.features import extract_features, with_normals

        f_n = (extract_features(scan) - m0.feat_mean) / m0.feat_scale

        def loss_at(w1, b1, w2, b2):
            raw = w2 @ np.tanh(w1 @ f_n + b1) + b2
            return head1(raw, label)[0]

        rng = np.random.default_rng(11)
        for name in ("w1", "w2"):
            w = getattr(m0, name).copy()
            flat = w.reshape(-1)
            for j in rng.choice(flat.size, size=12, replace=False):
                e = np.zeros_like(flat)
                e[j] = 1e-5
                args_p = {n: getattr(m0, n) for n in ("w1", "b1", "w2", "b2")}
                args_m = dict(args_p)
                args_p[name] = (flat + e).reshape(w.shape)
                args_m[name] = (flat - e).reshape(w.shape)
                fd = (loss_at(**args_p) - loss_at(**args_m)) / 2e-5
                an = got[name].reshape(-1)[j]
                assert rel_err(np.array(an), np.array(fd)) < 1e-4
        for name in ("b1", "b2"):
            b = getattr(m0, name)
            fd = central_fd(
                lambda v: loss_at(**{**{n: getattr(m0, n) for n in ("w1", "b1", "w2", "b2")}, name: v}),
                b,
            )
            assert np.max(rel_err(got[name], fd)) < 1e-4

    def test_network_gradient_with_varying_features(self):
        # one record normalizes to all-zero features, which silences the
        # w1/w2 paths; two records with distinct scans exercise them all
        rng = np.random.default_rng(31)
        scans, labels = [], []
        for s in (10, 11):
            pts = rng.uniform(-3.0, 3.0, size=(60, 3)) + np.array([0, 0, 1.5])
            nm = rng.normal(size=(60, 3))
            nm /= np.linalg.norm(nm, axis=1, keepdims=True)
            scans.append(PointCloud(pts, normals=nm))
            a = rng.normal(size=(6, 6)) * 0.3
            labels.append((a @ a.T + np.eye(6)) * 1e-2)
        samples = [(make_record(i, labels[i]), scans[i]) for i in range(2)]
        base = dict(steps=1, batch_size=3, augment=False, seed=9)
        m0, _ = train(samples, TrainConfig(learning_rate=0.0, **base))
        lr = 0.25
        m1, _ = train(samples, TrainConfig(learning_rate=lr, **base))
        got = {
            "w1": (m0.w1 - m1.w1) / lr,
            "b1": (m0.b1 - m1.b1) / lr,
            "w2": (m0.w2 - m1.w2) / lr,
            "b2": (m0.b2 - m1.b2) / lr,
        }
        assert np.max(np.abs(got["w1"])) > 0.0
        assert np.max(np.abs(got["w2"])) > 0.0

        # replay the first batch from the (seed, 1) sampling substream
        idx = draw([r for r, _ in samples], 3,
                   np.random.default_rng(np.random.SeedSequence((9, 1))))
        from licov.features import extract_features, with_normals

        f_ns = [
            (extract_features(s) - m0.feat_mean) / m0.feat_scale for s in scans
        ]

        def loss_at(w1, b1, w2, b2):
            tot = 0.0
            for i in idx:
                raw = w2 @ np.tanh(w1 @ f_ns[i] + b1) + b2
                tot += head1(raw, labels[i])[0]
            return tot / len(idx)

        pick = np.random.default_rng(12)
        for name in ("w1", "w2"):
            w = getattr(m0, name)
            flat = w.reshape(-1)
            for j in pick.choice(flat.size, size=12, replace=False):
                e = np.zeros_like(flat)
                e[j] = 1e-5
                args_p = {n: getattr(m0, n) for n in ("w1", "b1", "w2", "b2")}
                args_m = dict(args_p)
                args_p[name] = (flat + e).reshape(w.shape)
                args_m[name] = (flat - e).reshape(w.shape)
                fd = (loss_at(**args_p) - loss_at(**args_m)) / 2e-5
                an = got[name].reshape(-1)[j]
                assert rel_err(np.array(an), np.array(fd)) < 1e-4
        for name in ("b1", "b2"):
            fd = central_fd(
                lambda v: loss_at(**{**{n: getattr(m0, n) for n in ("w1", "b1", "w2", "b2")}, name: v}),
                getattr(m0, name),
            )
            assert np.max(rel_err(got[name], fd)) < 1e-4


class TestModelForward:
    def test_zero_model_predicts_log_two_squared_identity(self):
        model = RegressionModel.zeros()
        y = predict(model, make_scan(12))
        assert np.allclose(y, np.log(2.0) ** 2 * np.eye(6), atol=1e-6)

    def test_forward_normalizes_features(self):
        model = RegressionModel.zeros()
        model.feat_mean = np.full(32, 5.0)
        model.feat_scale = np.full(32, 2.0)
        model.w2 = np.ones((21, 64)) * 0.01
        model.w1 = np.ones((64, 32)) * 0.01
        raw_a = model.forward(np.full((1, 32), 5.0))[2][0]  # normalizes to zero
        assert np.allclose(raw_a, model.b2)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            RegressionModel(
                np.zeros(32), np.zeros(32), np.zeros((64, 32)), np.zeros(64),
                np.zeros((21, 64)), np.zeros(21),
            )

    def test_predicted_covariance_positive_definite(self):
        rng = np.random.default_rng(13)
        model = RegressionModel(
            np.zeros(32), np.ones(32),
            rng.normal(scale=0.2, size=(64, 32)), rng.normal(scale=0.2, size=64),
            rng.normal(scale=0.2, size=(21, 64)), rng.normal(scale=0.2, size=21),
        )
        y = predict(model, make_scan(14))
        assert np.linalg.eigvalsh(y)[0] > 0.0


class TestWeightedSampling:
    def test_single_record(self):
        rec = make_record(0, np.eye(6))
        assert _sampling_p([rec]) == [1.0]
        assert list(draw([rec], 5, np.random.default_rng(0))) == [0] * 5

    def test_one_to_three_weighting(self):
        recs = [make_record(0, np.eye(6)), make_record(1, 3.0 * np.eye(6))]
        out = draw(recs, 100000, np.random.default_rng(1))
        frac = np.mean([recs[i].frame_id for i in out])
        assert abs(frac - 0.75) < 0.01

    def test_zero_weights_fall_back_to_uniform(self):
        recs = [make_record(0, np.zeros((6, 6))), make_record(1, np.zeros((6, 6)))]
        assert _sampling_p(recs) is None
        out = draw(recs, 100000, np.random.default_rng(2))
        frac = np.mean([recs[i].frame_id for i in out])
        assert abs(frac - 0.5) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="cannot sample from an empty record set"):
            _sampling_p([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_covariance_names_the_record(self, bad):
        cov = np.eye(6)
        cov[2, 3] = bad
        recs = [make_record(4, np.eye(6)), make_record(9, cov), make_record(5, cov)]
        with pytest.raises(NumericError, match=r"^record 1 \(frame 9\): covariance has non-finite"):
            _sampling_p(recs)


class TestAugmentation:
    def test_quarter_turn_reorders_diagonal(self):
        t = se3.SE3(se3.rot_z(np.pi / 2), np.zeros(3))
        y = np.diag([1.0, 2, 3, 4, 5, 6.0])
        out = se3.transport_covariance(t, y)
        assert np.allclose(np.diag(out), [2, 1, 3, 5, 4, 6], atol=1e-12)

    def test_identity_ranges_return_inputs_untouched(self):
        scan = make_scan(15)
        cov = np.eye(6) * 0.01
        out_scan, out_cov = augment_sample(
            scan, cov, np.random.default_rng(3), xy_range=0.0, yaw_range_deg=0.0
        )
        assert out_scan is scan
        assert np.array_equal(out_cov, cov)

    def test_known_draw_matches_direct_transform(self):
        class FixedRng:
            def __init__(self):
                self.calls = 0

            def uniform(self, lo, hi, size=None):
                self.calls += 1
                if size is None:
                    return np.pi / 2
                return np.array([1.0, -2.0])

        from licov.cloud import transform_cloud

        scan = make_scan(16)
        cov = random_spd(np.random.default_rng(4), scale=0.01)
        out_scan, out_cov = augment_sample(scan, cov, FixedRng())
        t = se3.SE3(se3.rot_z(np.pi / 2), (1.0, -2.0, 0.0))
        assert np.allclose(out_scan.points, transform_cloud(scan, t).points)
        assert np.allclose(out_cov, se3.transport_covariance(t, cov), atol=1e-12)

    def test_draws_preserve_z_and_positive_definiteness(self):
        rng = np.random.default_rng(5)
        scan = make_scan(17)
        cov = random_spd(rng, scale=0.01)
        for _ in range(200):
            out_scan, out_cov = augment_sample(scan, cov, rng)
            assert np.allclose(out_scan.points[:, 2], scan.points[:, 2], atol=1e-12)
            assert np.linalg.eigvalsh(out_cov)[0] > 0.0


def tiny_samples(n_records=3):
    rng = np.random.default_rng(20)
    samples = []
    for i in range(n_records):
        cov = random_spd(rng, scale=1e-4)
        samples.append((make_record(i, cov), make_scan(30 + i, n=40)))
    return samples


class TestTraining:
    def test_empty_rejected(self):
        with pytest.raises(DataError, match="training needs at least one labeled sample"):
            train([])

    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_label_names_the_record(self, augment, bad):
        samples = tiny_samples(3)
        cov = samples[2][0].covariance.copy()
        cov[0, 0] = bad
        samples[2] = (make_record(7, cov), samples[2][1])
        cfg = TrainConfig(steps=5, batch_size=4, augment=augment)
        with pytest.raises(NumericError, match=r"^record 2 \(frame 7\): covariance has non-finite"):
            train(samples, cfg)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_first_fault_is_the_serial_one(self, monkeypatch, threads):
        # every record's normals come before any record's features, so a
        # normals fault in record 1 beats a features fault in record 0
        samples = tiny_samples(3)
        record_of = {id(scan): i for i, (_, scan) in enumerate(samples)}

        def normals(scan, normal_k):
            if record_of[id(scan)] == 1:
                raise DataError("stub normals fault in record 1")
            return scan

        def features(scan, normal_k):
            raise NumericError(f"stub features fault in record {record_of[id(scan)]}")

        monkeypatch.setattr(model_mod, "with_normals", normals)
        monkeypatch.setattr(model_mod, "extract_features", features)
        with pytest.raises(DataError, match="^stub normals fault in record 1$"):
            train(samples, TrainConfig(steps=1), threads=threads)
        monkeypatch.setattr(model_mod, "with_normals", lambda scan, normal_k: scan)
        with pytest.raises(NumericError, match="^stub features fault in record 0$"):
            train(samples, TrainConfig(steps=1), threads=threads)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(huber_delta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(label_floor=-1.0)

    def test_zero_learning_rate_exposes_initialization(self):
        cfg = TrainConfig(learning_rate=0.0, steps=2, seed=42, augment=False)
        model, losses = train(tiny_samples(), cfg)
        rng = np.random.default_rng(np.random.SeedSequence((42, 0)))
        w1 = rng.normal(0.0, 0.1 / np.sqrt(32), (64, 32))
        w2 = rng.normal(0.0, 1e-3 / np.sqrt(64), (21, 64))
        assert np.array_equal(model.w1, w1)
        assert np.array_equal(model.w2, w2)
        assert np.array_equal(model.b1, np.zeros(64))
        assert np.array_equal(model.b2, cov_to_params(0.1**2 * np.eye(6)))
        assert len(losses) == 2

    def test_deterministic_for_fixed_seed(self):
        cfg = TrainConfig(steps=12, batch_size=4, seed=3)
        a, la = train(tiny_samples(), cfg)
        b, lb = train(tiny_samples(), cfg)
        for name in ("w1", "b1", "w2", "b2", "feat_mean", "feat_scale"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert la == lb

    def test_augment_off_equals_zero_ranges(self):
        cfg_off = TrainConfig(steps=12, batch_size=4, seed=3, augment=False)
        cfg_zero = TrainConfig(
            steps=12, batch_size=4, seed=3, augment=True,
            augment_xy=0.0, augment_yaw_deg=0.0,
        )
        a, la = train(tiny_samples(), cfg_off)
        b, lb = train(tiny_samples(), cfg_zero)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert la == lb

    def test_label_floor_matches_pre_floored_labels(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(6, 6)) * 0.05
        cov = a @ a.T * 1e-3
        scan = make_scan(53, n=40)
        floored = TrainConfig(steps=12, batch_size=4, seed=3, augment=False,
                              label_floor=1e-3)
        plain = TrainConfig(steps=12, batch_size=4, seed=3, augment=False)
        m1, l1 = train([(make_record(0, cov), scan)], floored)
        m2, l2 = train([(make_record(0, cov + 1e-3 * np.eye(6)), scan)], plain)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(m1, name), getattr(m2, name))
        assert l1 == l2

    def test_label_floor_stabilizes_tiny_labels(self):
        # eigenvalues around 1e-10 give the KL term a curvature no usable
        # step size survives; the floor caps it without touching the config
        # of well-scaled runs
        samples = [(make_record(0, 1e-10 * np.eye(6)), make_scan(52, n=40))]
        cfg = TrainConfig(steps=50, seed=2, augment=False, learning_rate=1e-3,
                          init_sigma=0.03, label_floor=1e-4)
        _, losses = train(samples, cfg)
        assert np.isfinite(losses).all()
        assert losses[-1] < losses[0]

    def test_numeric_failure_names_the_step(self, monkeypatch):
        calls = []

        def fails_in_step_three(raw, *args):
            calls.append(raw)
            if len(calls) > 2:
                raise NumericError("KL predicted covariance is not positive definite")
            return head_loss_and_grad(raw, *args)

        monkeypatch.setattr(model_mod, "head_loss_and_grad", fails_in_step_three)
        cfg = TrainConfig(steps=5, batch_size=2, seed=3, augment=False)
        with pytest.raises(NumericError, match="^training step 3: KL predicted"):
            train(tiny_samples(), cfg)
        # one kernel call per step, on the whole batch
        assert [r.shape for r in calls] == [(2, 21)] * 3

    def test_non_finite_loss_names_the_step(self, monkeypatch):
        monkeypatch.setattr(model_mod, "head_loss_and_grad",
                            lambda raw, *args: (np.full(len(raw), np.inf), np.zeros_like(raw)))
        cfg = TrainConfig(steps=5, batch_size=2, seed=3, augment=False)
        with pytest.raises(NumericError, match="^training step 1: loss is not finite"):
            train(tiny_samples(), cfg)

    def test_single_record_overfits(self):
        # label eigenvalues sit around 1e-2, the scale the default step size
        # and head initialization are tuned for
        rng = np.random.default_rng(21)
        a = rng.normal(size=(6, 6)) * 0.3
        cov = (a @ a.T + np.eye(6)) * 1e-2
        samples = [(make_record(0, cov), make_scan(50, n=40))]
        cfg = TrainConfig(steps=500, batch_size=2, seed=4, augment=False)
        model, losses = train(samples, cfg)
        assert losses[-1] < 0.1 * losses[0]
        tail = losses[50:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_loss_trace_matches_manual_evaluation(self):
        # with one record, no augmentation, the trace entry is exactly the
        # combined loss of the current weights on that record
        scan = make_scan(51, n=40)
        cov = 1e-4 * np.eye(6)
        samples = [(make_record(0, cov), scan)]
        cfg = TrainConfig(steps=1, batch_size=3, seed=6, augment=False, learning_rate=0.0)
        model, losses = train(samples, cfg)
        from licov.features import extract_features, with_normals

        y = params_to_cov(model.forward(extract_features(scan)[None])[2][0])
        assert abs(losses[0] - (0.1 * kl1(y, cov) + 0.9 * huber1(y, cov))) < 1e-12


class TestModelIO:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = TrainConfig(steps=3, seed=8, augment=False)
        model, _ = train(tiny_samples(), cfg)
        path = tmp_path / "model.txt"
        save_model(path, model, cfg, extra={"scene": "room"})
        again, info = load_model(path)
        for name in ("feat_mean", "feat_scale", "w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(model, name), getattr(again, name))
        assert info["train_steps"] == "3"
        assert info["train_seed"] == "8"
        assert info["cfg_scene"] == "room"

    def test_save_is_reproducible(self, tmp_path):
        cfg = TrainConfig(steps=2, seed=9, augment=False)
        model, _ = train(tiny_samples(), cfg)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(a, model, cfg)
        save_model(b, model, cfg)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(path, RegressionModel.zeros(), TrainConfig())
        text = path.read_text().replace("licov-model,1", "licov-model,9")
        path.write_text(text)
        with pytest.raises(DataError):
            load_model(path)

    def test_feature_spec_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(path, RegressionModel.zeros(), TrainConfig())
        text = path.read_text()
        lines = text.splitlines()
        lines[1] = "feature_spec=0123456789abcdef"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError):
            load_model(path)

    def test_dims_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(path, RegressionModel.zeros(), TrainConfig())
        text = path.read_text().replace("dims=32,64,21", "dims=32,32,21")
        path.write_text(text)
        with pytest.raises(DataError):
            load_model(path)


# The sample-at-a-time head kernel and training loop that the batched step
# replaced, kept verbatim as the reference: the batched code must give the
# same bytes and raise the same first error.
def ref_chol(mat, what):
    if not np.isfinite(mat).all():
        raise NumericError(f"{what} has non-finite entries")
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NumericError(f"{what} is not positive definite")


def ref_head(raw, y_bar, alpha=0.1, beta=0.9, delta=1e-3):
    raw = np.asarray(raw, dtype=float).reshape(21)
    c = np.zeros((6, 6))
    c[np.diag_indices(6)] = softplus(raw[:6]) + DIAG_FLOOR
    c[np.tril_indices(6, -1)] = raw[6:]
    y = c @ c.T
    y = 0.5 * (y + y.T)
    y = y + (1e-16 + 1e-13 * float(np.max(np.diag(y)))) * np.eye(6)
    y_bar = np.asarray(y_bar, dtype=float)
    if not np.isfinite(y_bar).all():
        raise NumericError("KL reference covariance has non-finite entries")
    reg = y_bar + 1e-10 * np.eye(6) if np.linalg.eigvalsh(y_bar)[0] < 1e-12 else y_bar
    L_bar = ref_chol(reg, "KL reference covariance")
    L_hat = ref_chol(y, "KL predicted covariance")
    M = solve_triangular(L_bar, L_hat, lower=True)
    trace = float((M * M).sum())
    logdet_bar = 2.0 * float(np.log(np.diag(L_bar)).sum())
    logdet_hat = 2.0 * float(np.log(np.diag(L_hat)).sum())
    kl = 0.5 * (trace - 6.0 + logdet_bar - logdet_hat)
    g_kl = 0.5 * (cho_solve((L_bar, True), np.eye(6)) - cho_solve((L_hat, True), np.eye(6)))
    d = pack_upper(y) - pack_upper(y_bar)
    a = np.abs(d)
    hub = float(np.where(a <= delta, 0.5 * d * d, delta * (a - 0.5 * delta)).sum())
    g_hub = np.zeros((6, 6))
    g_hub[np.triu_indices(6)] = np.where(a <= delta, d, delta * np.sign(d))
    loss = alpha * kl + beta * hub
    g_y = alpha * g_kl + beta * 0.5 * (g_hub + g_hub.T)
    g_c = 2.0 * (g_y @ c)
    grad = np.zeros(21)
    grad[:6] = np.diag(g_c) * expit(raw[:6])
    grad[6:] = g_c[np.tril_indices(6, -1)]
    return loss, grad


def ref_forward(model, f):
    f_n = (f - model.feat_mean) / model.feat_scale
    h = np.tanh(model.w1 @ f_n + model.b1)
    return f_n, h, model.w2 @ h + model.b2


def ref_train(samples, config, normal_k=10):
    records = [rec for rec, _ in samples]
    scans = [with_normals(scan, normal_k) for _, scan in samples]
    base_feats = [extract_features(s, normal_k) for s in scans]
    feats = np.asarray(base_feats)
    feat_scale = feats.std(axis=0)
    feat_scale[feat_scale < 1e-12] = 1.0
    rng_init = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    rng_batch = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    rng_aug = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))
    w1 = rng_init.normal(0.0, 0.1 / np.sqrt(32), (64, 32))
    w2 = rng_init.normal(0.0, 1e-3 / np.sqrt(64), (21, 64))
    model = RegressionModel(feats.mean(axis=0), feat_scale, w1, np.zeros(64), w2,
                            cov_to_params(config.init_sigma**2 * np.eye(6)))
    losses = []
    with np.errstate(all="ignore"):
        for step in range(config.steps):
            w = np.array([np.abs(r.covariance).max() for r in records])
            p = None if w.sum() <= 0 else w / w.sum()
            idx = rng_batch.choice(len(records), size=config.batch_size, replace=True, p=p)
            g_w1, g_b1 = np.zeros_like(model.w1), np.zeros_like(model.b1)
            g_w2, g_b2 = np.zeros_like(model.w2), np.zeros_like(model.b2)
            total = 0.0
            for i in idx:
                if config.augment:
                    scan_a, label = augment_sample(scans[i], records[i].covariance, rng_aug,
                                                   config.augment_xy, config.augment_yaw_deg)
                    f = base_feats[i] if scan_a is scans[i] else extract_features(scan_a, normal_k)
                else:
                    f, label = base_feats[i], records[i].covariance
                if config.label_floor > 0.0:
                    label = label + config.label_floor * np.eye(6)
                f_n, h, raw = ref_forward(model, f)
                try:
                    loss, g_raw = ref_head(raw, label, config.alpha, config.beta,
                                           config.huber_delta)
                except NumericError as e:
                    raise type(e)(f"training step {step + 1}: {e}") from e
                total += loss
                g_w2 += np.outer(g_raw, h)
                g_b2 += g_raw
                dz = (1.0 - h * h) * (model.w2.T @ g_raw)
                g_w1 += np.outer(dz, f_n)
                g_b1 += dz
            if not np.isfinite(total):
                raise NumericError(f"training step {step + 1}: loss is not finite")
            k = float(len(idx))
            model.w1 -= config.learning_rate * g_w1 / k
            model.b1 -= config.learning_rate * g_b1 / k
            model.w2 -= config.learning_rate * g_w2 / k
            model.b2 -= config.learning_rate * g_b2 / k
            losses.append(total / k)
    return model, losses


def outcome(fn, *args, **kwargs):
    """("ok", result) or ("raised", class, message), to compare both paths."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as e:
        return ("raised", type(e), str(e))


def near_singular_samples():
    # a Monte-Carlo-like label with a -1e-23 eigenvalue takes the
    # regularization path, next to a well-scaled one
    rng = np.random.default_rng(40)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    flat = q @ np.diag([1e-5, 3e-6, 1e-6, 2e-7, 5e-8, -1e-23]) @ q.T
    return [(make_record(0, 0.5 * (flat + flat.T)), make_scan(41, n=40)),
            (make_record(1, random_spd(rng, scale=1e-4)), make_scan(42, n=40))]


def assert_same_training(samples, cfg):
    got = outcome(train, samples, cfg)
    want = outcome(ref_train, samples, cfg)
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1:] == want[1:]
        return
    (model, losses), (ref_model, ref_losses) = got[1], want[1]
    for name in ("feat_mean", "feat_scale", "w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(model, name), getattr(ref_model, name)), name
    assert losses == ref_losses
    assert all(type(v) is float for v in losses)


class TestBatchedStepIsExact:
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("batch_size", [1, 3, 16])
    def test_forward_matches_per_sample_reference(self, batch_size, scale):
        # each row of a batch gets the bytes of a one-sample pass, and
        # predict those of a one-scan pass
        rng = np.random.default_rng([batch_size, int(scale * 10)])
        feats = rng.normal(scale=scale, size=(batch_size, 32))
        model = RegressionModel(
            rng.normal(scale=scale, size=32), scale * rng.uniform(0.5, 2.0, 32),
            rng.normal(scale=0.5, size=(64, 32)), rng.normal(scale=0.5, size=64),
            rng.normal(scale=0.5, size=(21, 64)), rng.normal(scale=0.5, size=21),
        )
        got = model.forward(feats)
        for b in range(batch_size):
            for part, want in zip(got, ref_forward(model, feats[b])):
                assert np.array_equal(part[b], want)
        scan = make_scan(60 + batch_size)
        want = params_to_cov(ref_forward(model, extract_features(scan))[2])
        assert np.array_equal(predict(model, scan), want)

    @pytest.mark.parametrize("batch_size", [1, 3, 16])
    @pytest.mark.parametrize("label_floor", [0.0, 1e-4])
    @pytest.mark.parametrize("augment", [False, True])
    def test_train_matches_sample_loop(self, augment, label_floor, batch_size):
        cfg = TrainConfig(steps=15, batch_size=batch_size, seed=7, augment=augment,
                          label_floor=label_floor, learning_rate=0.01, init_sigma=0.03)
        assert_same_training(tiny_samples(4), cfg)

    @pytest.mark.parametrize("augment", [False, True])
    def test_near_singular_labels_match(self, augment):
        cfg = TrainConfig(steps=15, batch_size=5, seed=8, augment=augment,
                          learning_rate=1e-3, init_sigma=0.03)
        assert_same_training(near_singular_samples(), cfg)

    @pytest.mark.parametrize("augment", [False, True])
    def test_one_record_matches(self, augment):
        cfg = TrainConfig(steps=15, batch_size=3, seed=9, augment=augment)
        assert_same_training(tiny_samples(1), cfg)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 1e3])
    def test_kernel_matches_per_sample_head(self, scale):
        rng = np.random.default_rng(int(scale * 10))
        for batch in (1, 5, 16):
            raw = rng.normal(scale=scale, size=(batch, 21))
            labels = np.array([random_spd(rng, scale=10.0 ** rng.uniform(-6, 0))
                               for _ in range(batch)])
            loss, grad = head_loss_and_grad(raw, labels, 0.3, 0.7, 2e-3)
            assert loss.shape == (batch,) and grad.shape == (batch, 21)
            for b in range(batch):
                ref_loss, ref_grad = ref_head(raw[b], labels[b], 0.3, 0.7, 2e-3)
                assert loss[b] == ref_loss
                assert np.array_equal(grad[b], ref_grad)

    def test_kernel_raises_the_first_failure(self):
        good, raw = 1e-2 * np.eye(6), np.zeros(21)
        blown = np.full(21, 1e200)  # C C^T overflows to inf
        not_pd = np.diag([1e-2] * 5 + [-1.0])
        cases = [
            # (raws, labels): the lowest failing item wins, its reference
            # before its prediction
            ([raw, blown, raw], [good, good, not_pd]),
            ([raw, raw, blown], [good, not_pd, good]),
            ([raw, blown], [good, not_pd]),
            ([blown, raw], [np.full((6, 6), np.nan), good]),
            ([raw, raw], [good, np.diag([np.inf] * 6)]),
        ]
        for raws, labels in cases:
            with np.errstate(all="ignore"):
                got = outcome(head_loss_and_grad, np.array(raws), np.array(labels))
                want = ("ok", None)
                for r, y in zip(raws, labels):
                    want = outcome(ref_head, r, y)
                    if want[0] == "raised":
                        break
            assert got[0] == "raised" and got == want

    def test_train_raises_the_first_failure(self):
        # a non-PD label of small weight, first drawn at step 39; then a
        # rate that blows the prediction up, to a non-finite loss or to a
        # non-finite covariance
        bad = (make_record(3, np.diag([1e-4] * 5 + [-1e-6])), make_scan(43, n=40))
        runs = [(tiny_samples(3) + [bad], dict(augment=augment)) for augment in (False, True)]
        runs += [(tiny_samples(3), dict(augment=False, learning_rate=lr)) for lr in (30.0, 1e3)]
        for samples, kw in runs:
            cfg = TrainConfig(steps=40, batch_size=4, seed=1, **kw)
            got = outcome(train, samples, cfg)
            assert got[0] == "raised" and "training step" in got[2]
            assert got == outcome(ref_train, samples, cfg)

    def test_kl_and_huber_views_match_the_kernel(self):
        rng = np.random.default_rng(44)
        raw = rng.normal(size=(6, 21))
        labels = np.array([random_spd(rng, scale=1e-2) for _ in range(6)])
        preds = params_to_cov(raw)
        kls = loss_kl(preds, labels)
        assert kls.shape == (6,)
        kernel_kl, _ = head_loss_and_grad(raw, labels, alpha=1.0, beta=0.0)
        assert np.array_equal(kls, kernel_kl)
        for b in range(6):
            assert kl1(preds[b], labels[b]) == kls[b]
            assert huber1(preds[b], labels[b]) == head1(raw[b], labels[b], alpha=0.0, beta=1.0)[0]
