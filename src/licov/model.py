"""Covariance regression with a Cholesky output head.

The network maps a 32-dim scan descriptor through one tanh hidden layer
(32 -> 64 -> 21). The 21 raw outputs parameterize a lower-triangular
factor C (6 softplus-floored diagonal pre-activations, 15 strict lower
entries), and the prediction Y = C C^T is positive definite by
construction. Training minimizes alpha * KL + beta * Huber with plain
gradient descent; all gradients are analytic (hand backprop), no
autodiff involved.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import expit

from . import se3
from .cloud import PointCloud, estimate_normals, transform_cloud
from .errors import DataError, EmptyDataset, NotPositiveDefinite, NumericError, TooFewPoints
from .features import FEATURE_DIM, extract_features, feature_spec_hash
from .mcgen import pack_upper

RAW_DIM = 21
HIDDEN_DIM = 64

# Cholesky diagonal floor and the identity shift that keeps the assembled
# product positive definite at floating-point level. The shift carries a
# scale-relative part because rounding in C C^T alone can push computed
# eigenvalues of a huge product negative; at ordinary covariance scales
# it stays below 1e-13 relative.
DIAG_FLOOR = 1e-8
EIG_JITTER = 1e-16
EIG_JITTER_REL = 1e-13

# Labels with eigenvalues below LABEL_EIG_MIN get +LABEL_JITTER * I
# before entering the KL term.
LABEL_EIG_MIN = 1e-12
LABEL_JITTER = 1e-10

MODEL_TAG = "licov-model"
MODEL_VERSION = 1

_TRIL_I, _TRIL_J = np.tril_indices(6, -1)
_UP_I, _UP_J = np.triu_indices(6)


def softplus(x):
    return np.logaddexp(0.0, x)


def inv_softplus(y):
    """Inverse of softplus for positive y (y > ~30 returns y unchanged)."""
    y = np.asarray(y, dtype=float)
    small = np.clip(y, 1e-300, 30.0)
    return np.where(y > 30.0, y, np.log(np.expm1(small)))


def params_to_chol(raw) -> np.ndarray:
    """21 raw values -> lower-triangular C with positive diagonal."""
    raw = np.asarray(raw, dtype=float).reshape(RAW_DIM)
    c = np.zeros((6, 6))
    c[np.diag_indices(6)] = softplus(raw[:6]) + DIAG_FLOOR
    c[_TRIL_I, _TRIL_J] = raw[6:]
    return c


def _assemble_cov(c) -> np.ndarray:
    y = c @ c.T
    y = 0.5 * (y + y.T)
    shift = EIG_JITTER + EIG_JITTER_REL * float(np.max(np.diag(y)))
    return y + shift * np.eye(6)


def params_to_cov(raw) -> np.ndarray:
    """21 raw values -> symmetric positive-definite 6x6 covariance."""
    return _assemble_cov(params_to_chol(raw))


def cov_to_params(cov) -> np.ndarray:
    """Inverse head map: recover raw values whose params_to_cov is ~cov."""
    try:
        L = np.linalg.cholesky(np.asarray(cov, dtype=float))
    except np.linalg.LinAlgError as e:
        raise NotPositiveDefinite(f"cov_to_params needs a PD matrix: {e}")
    raw = np.zeros(RAW_DIM)
    raw[:6] = inv_softplus(np.clip(np.diag(L) - DIAG_FLOOR, 1e-300, None))
    raw[6:] = L[_TRIL_I, _TRIL_J]
    return raw


def regularize_label(cov) -> np.ndarray:
    """Shift near-singular labels so the KL reference is invertible."""
    cov = np.asarray(cov, dtype=float)
    if np.linalg.eigvalsh(cov)[0] < LABEL_EIG_MIN:
        return cov + LABEL_JITTER * np.eye(6)
    return cov


def _chol_or_raise(mat, what):
    if not np.isfinite(mat).all():
        raise NumericError(f"{what} has non-finite entries")
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{what} is not positive definite")


def loss_kl(y_hat, y_bar, regularize: bool = True) -> float:
    """KL divergence of N(0, y_hat) from N(0, y_bar).

    0.5 * (tr(y_bar^-1 y_hat) - 6 + ln det y_bar - ln det y_hat), computed
    with Cholesky solves and log-determinants, no explicit inverses.
    """
    y_hat = np.asarray(y_hat, dtype=float)
    y_bar = np.asarray(y_bar, dtype=float)
    if regularize:
        y_bar = regularize_label(y_bar)
    return _kl_and_factors(y_hat, y_bar)[0]


def _kl_and_factors(y_hat, y_bar):
    """KL of N(0, y_hat) from N(0, y_bar) plus the Cholesky factors
    (L_bar, L_hat); y_bar must already be regularized."""
    L_bar = _chol_or_raise(y_bar, "KL reference covariance")
    L_hat = _chol_or_raise(y_hat, "KL predicted covariance")
    # tr(y_bar^-1 y_hat) = || L_bar^-1 L_hat ||_F^2
    M = solve_triangular(L_bar, L_hat, lower=True)
    trace = float((M * M).sum())
    logdet_bar = 2.0 * float(np.log(np.diag(L_bar)).sum())
    logdet_hat = 2.0 * float(np.log(np.diag(L_hat)).sum())
    return 0.5 * (trace - 6.0 + logdet_bar - logdet_hat), L_bar, L_hat


def _huber_scalar(d, delta):
    a = np.abs(d)
    return np.where(a <= delta, 0.5 * d * d, delta * (a - 0.5 * delta))


def loss_huber(y_hat, y_bar, delta: float = 1e-3) -> float:
    """Huber penalty summed over the 21 upper-triangle differences."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    d = pack_upper(y_hat) - pack_upper(y_bar)
    return float(_huber_scalar(d, delta).sum())


def _combined_grad_y(y_hat, y_bar, alpha, beta, delta):
    """Loss value and its gradient with respect to the full matrix y_hat."""
    kl, L_bar, L_hat = _kl_and_factors(y_hat, regularize_label(y_bar))
    eye = np.eye(6)
    inv_bar = cho_solve((L_bar, True), eye)
    inv_hat = cho_solve((L_hat, True), eye)
    g_kl = 0.5 * (inv_bar - inv_hat)

    d = pack_upper(y_hat) - pack_upper(np.asarray(y_bar, dtype=float))
    hub = float(_huber_scalar(d, delta).sum())
    slope = np.where(np.abs(d) <= delta, d, delta * np.sign(d))
    g_hub = np.zeros((6, 6))
    g_hub[_UP_I, _UP_J] = slope

    loss = alpha * kl + beta * hub
    grad = alpha * g_kl + beta * 0.5 * (g_hub + g_hub.T)
    return loss, grad


def head_loss_and_grad(raw, y_bar, alpha=0.1, beta=0.9, delta=1e-3):
    """Combined loss at params_to_cov(raw) and its analytic 21-gradient."""
    raw = np.asarray(raw, dtype=float).reshape(RAW_DIM)
    c = params_to_chol(raw)
    y = _assemble_cov(c)
    loss, g_y = _combined_grad_y(y, y_bar, alpha, beta, delta)
    # y = sym(C C^T) + shift, g_y symmetric: dL/dC = 2 g_y C; the shift's
    # own dependence on C is ~1e-13 relative and deliberately dropped.
    g_c = 2.0 * (g_y @ c)
    grad = np.zeros(RAW_DIM)
    grad[:6] = np.diag(g_c) * expit(raw[:6])
    grad[6:] = g_c[_TRIL_I, _TRIL_J]
    return loss, grad


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.1
    beta: float = 0.9
    huber_delta: float = 1e-3
    # The off-diagonal head gradients scale with inv(label) @ C, so the step
    # size and initial sigma jointly bound how ill-scaled a label plain
    # descent can survive; these defaults are tuned for labels near 1e-2.
    # Augmented multi-record runs transport labels through Ad(T) draws with
    # much wider conditioning and need a smaller rate set explicitly.
    learning_rate: float = 0.03
    steps: int = 500
    batch_size: int = 8
    seed: int = 0
    augment: bool = True
    augment_xy: float = 2.0
    augment_yaw_deg: float = 180.0
    init_sigma: float = 0.1
    # Monte-Carlo labels from well-constrained frames can have eigenvalues
    # ten orders below the working scale, and the KL gradient grows with the
    # inverse label. Adding label_floor * I to every label bounds that
    # curvature; zero keeps labels untouched.
    label_floor: float = 0.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be >= 1")
        if self.huber_delta <= 0:
            raise ValueError("huber_delta must be positive")
        if self.label_floor < 0:
            raise ValueError("label_floor must be non-negative")


class RegressionModel:
    """Feature normalizer plus the fixed 32 -> 64 -> 21 tanh network."""

    def __init__(self, feat_mean, feat_scale, w1, b1, w2, b2):
        self.feat_mean = np.asarray(feat_mean, dtype=float).reshape(FEATURE_DIM)
        self.feat_scale = np.asarray(feat_scale, dtype=float).reshape(FEATURE_DIM)
        self.w1 = np.asarray(w1, dtype=float).reshape(HIDDEN_DIM, FEATURE_DIM)
        self.b1 = np.asarray(b1, dtype=float).reshape(HIDDEN_DIM)
        self.w2 = np.asarray(w2, dtype=float).reshape(RAW_DIM, HIDDEN_DIM)
        self.b2 = np.asarray(b2, dtype=float).reshape(RAW_DIM)
        if np.any(self.feat_scale <= 0):
            raise ValueError("feature scales must be positive")

    @staticmethod
    def zeros() -> "RegressionModel":
        return RegressionModel(
            np.zeros(FEATURE_DIM), np.ones(FEATURE_DIM),
            np.zeros((HIDDEN_DIM, FEATURE_DIM)), np.zeros(HIDDEN_DIM),
            np.zeros((RAW_DIM, HIDDEN_DIM)), np.zeros(RAW_DIM),
        )

    def forward(self, features) -> np.ndarray:
        f = (np.asarray(features, dtype=float) - self.feat_mean) / self.feat_scale
        h = np.tanh(self.w1 @ f + self.b1)
        return self.w2 @ h + self.b2


def predict(model: RegressionModel, scan: PointCloud, normal_k: int = 10) -> np.ndarray:
    """Predicted 6x6 alignment-error covariance for one scan; normal_k must
    match the value the model was trained with."""
    return params_to_cov(model.forward(extract_features(scan, normal_k)))


def _weighted_indices(records, batch_size: int, rng) -> np.ndarray:
    if not records:
        raise EmptyDataset("cannot sample from an empty record set")
    w = np.array([np.abs(r.covariance).max() for r in records], dtype=float)
    total = w.sum()
    p = None if total <= 0 else w / total
    return rng.choice(len(records), size=batch_size, replace=True, p=p)


def weighted_sample(records, batch_size: int, rng) -> list:
    """Draw with replacement, weight per record = max |covariance entry|;
    uniform when every weight is zero."""
    return [records[i] for i in _weighted_indices(records, batch_size, rng)]


def augment_sample(scan: PointCloud, cov, rng, xy_range: float = 2.0,
                   yaw_range_deg: float = 180.0):
    """Random in-plane transform applied to the scan, label transported by
    the adjoint: (T(scan), Ad(T) Y Ad(T)^T)."""
    yaw = rng.uniform(-np.deg2rad(yaw_range_deg), np.deg2rad(yaw_range_deg))
    txy = rng.uniform(-xy_range, xy_range, 2)
    if yaw == 0.0 and txy[0] == 0.0 and txy[1] == 0.0:
        return scan, np.asarray(cov, dtype=float)
    t = se3.SE3(se3.rot_z(yaw), (txy[0], txy[1], 0.0))
    return transform_cloud(scan, t), se3.transport_covariance(t, cov)


def _with_normals(scan: PointCloud, normal_k: int) -> PointCloud:
    if scan.normals is not None:
        return scan
    try:
        return estimate_normals(scan, k=normal_k)
    except TooFewPoints:
        return scan


def train(samples, config: TrainConfig = TrainConfig(), normal_k: int = 10,
          progress=None):
    """Fit the regressor on (CovRecord, scan) pairs.

    Returns (model, loss_trace). Deterministic for a fixed config seed;
    weight init, batch sampling, and augmentation each get their own
    substream so turning augmentation off (or zeroing its ranges) leaves
    the sampled batches unchanged. Scan normals are estimated once up
    front so augmented feature extraction only rotates them.
    """
    if not samples:
        raise EmptyDataset("training needs at least one labeled sample")
    records = [rec for rec, _ in samples]
    scans = [_with_normals(scan, normal_k) for _, scan in samples]
    base_feats = [extract_features(s, normal_k) for s in scans]

    feats = np.asarray(base_feats)
    feat_mean = feats.mean(axis=0)
    feat_scale = feats.std(axis=0)
    feat_scale[feat_scale < 1e-12] = 1.0

    rng_init = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    rng_batch = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    rng_aug = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))
    # Both layers start small. A near-zero output layer makes the first
    # prediction init_sigma^2 I for every sample (at the natural
    # 1/sqrt(fan_in) scale the hidden noise lands in the strictly-lower
    # Cholesky slots and the initial prediction is ill-conditioned), and
    # small hidden activations keep the w2-path step amplification
    # (~ 1 + |h|^2 under plain gradient descent) near one.
    w1 = rng_init.normal(0.0, 0.1 / np.sqrt(FEATURE_DIM), (HIDDEN_DIM, FEATURE_DIM))
    b1 = np.zeros(HIDDEN_DIM)
    w2 = rng_init.normal(0.0, 1e-3 / np.sqrt(HIDDEN_DIM), (RAW_DIM, HIDDEN_DIM))
    b2 = cov_to_params(config.init_sigma**2 * np.eye(6))
    model = RegressionModel(feat_mean, feat_scale, w1, b1, w2, b2)

    losses = []
    # A diverging step overflows on its way to a non-finite loss or
    # prediction; the checks below report that once, as NumericError,
    # so numpy's floating-point warnings are silenced here.
    with np.errstate(all="ignore"):
        for step in range(config.steps):
            idx = _weighted_indices(records, config.batch_size, rng_batch)
            g_w1 = np.zeros_like(model.w1)
            g_b1 = np.zeros_like(model.b1)
            g_w2 = np.zeros_like(model.w2)
            g_b2 = np.zeros_like(model.b2)
            total = 0.0
            for i in idx:
                rec = records[i]
                if config.augment:
                    scan_a, label = augment_sample(
                        scans[i], rec.covariance, rng_aug,
                        config.augment_xy, config.augment_yaw_deg,
                    )
                    f = base_feats[i] if scan_a is scans[i] else extract_features(scan_a, normal_k)
                else:
                    f, label = base_feats[i], rec.covariance
                if config.label_floor > 0.0:
                    label = label + config.label_floor * np.eye(6)
                f_n = (f - model.feat_mean) / model.feat_scale
                h = np.tanh(model.w1 @ f_n + model.b1)
                raw = model.w2 @ h + model.b2
                try:
                    loss, g_raw = head_loss_and_grad(
                        raw, label, config.alpha, config.beta, config.huber_delta
                    )
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
            if progress:
                progress(step, losses[-1])
    return model, losses


def _fmt_vec(v):
    return " ".join(f"{float(x):.17g}" for x in np.asarray(v).reshape(-1))


def save_model(path, model: RegressionModel, config: TrainConfig, extra=None):
    """Structured text: version, feature spec hash, layer dims, row-major
    weights and biases at 17 significant digits, train-config echo."""
    lines = [
        f"{MODEL_TAG},{MODEL_VERSION}",
        f"feature_spec={feature_spec_hash()}",
        f"dims={FEATURE_DIM},{HIDDEN_DIM},{RAW_DIM}",
        f"feat_mean={_fmt_vec(model.feat_mean)}",
        f"feat_scale={_fmt_vec(model.feat_scale)}",
        f"w1={_fmt_vec(model.w1)}",
        f"b1={_fmt_vec(model.b1)}",
        f"w2={_fmt_vec(model.w2)}",
        f"b2={_fmt_vec(model.b2)}",
    ]
    for f in fields(TrainConfig):
        lines.append(f"train_{f.name}={getattr(config, f.name)}")
    for k, v in (extra or {}).items():
        lines.append(f"cfg_{k}={v}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    """-> (RegressionModel, info dict with train_*/cfg_* echo fields)."""
    with open(path, "r") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != f"{MODEL_TAG},{MODEL_VERSION}":
        raise DataError(f"{path}: not a version-{MODEL_VERSION} model file")
    kv = {}
    for ln in lines[1:]:
        key, _, value = ln.partition("=")
        kv[key] = value
    if kv.get("feature_spec") != feature_spec_hash():
        raise DataError(f"{path}: feature spec mismatch, model is incompatible")

    def field(key):
        if key not in kv:
            raise DataError(f"{path}: missing key {key!r}")
        return kv[key]

    dims = tuple(int(x) for x in field("dims").split(","))
    if dims != (FEATURE_DIM, HIDDEN_DIM, RAW_DIM):
        raise DataError(f"{path}: unsupported layer dims {dims}")

    def vec(key):
        return np.array([float(x) for x in field(key).split()])

    model = RegressionModel(
        vec("feat_mean"), vec("feat_scale"),
        vec("w1"), vec("b1"), vec("w2"), vec("b2"),
    )
    info = {k: v for k, v in kv.items() if k.startswith(("train_", "cfg_"))}
    return model, info
