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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.special import expit

from . import se3
from .cloud import PointCloud, transform_cloud
from .errors import DataError, NumericError, require
from .features import FEATURE_DIM, extract_features, feature_spec_hash, with_normals
from .mcgen import UPPER_I, UPPER_J

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

_EYE = np.eye(6)
_DIAG = np.arange(6)
_TRIL_I, _TRIL_J = np.tril_indices(6, -1)
_UP_FLAT = UPPER_I * 6 + UPPER_J


def softplus(x):
    return np.logaddexp(0.0, x)


def inv_softplus(y):
    """Inverse of softplus for positive y (y > ~30 returns y unchanged)."""
    y = np.asarray(y, dtype=float)
    small = np.clip(y, 1e-300, 30.0)
    return np.where(y > 30.0, y, np.log(np.expm1(small)))


def params_to_chol(raw) -> np.ndarray:
    """21 raw values -> lower-triangular C with positive diagonal, per row."""
    raw = np.asarray(raw, dtype=float)
    c = np.zeros(raw.shape[:-1] + (6, 6))
    c[..., _DIAG, _DIAG] = softplus(raw[..., :6]) + DIAG_FLOOR
    c[..., _TRIL_I, _TRIL_J] = raw[..., 6:]
    return c


def _assemble_cov(c) -> np.ndarray:
    y = c @ np.swapaxes(c, -1, -2)
    y = 0.5 * (y + np.swapaxes(y, -1, -2))
    shift = EIG_JITTER + EIG_JITTER_REL * np.max(np.diagonal(y, 0, -2, -1), axis=-1)
    return y + np.multiply.outer(shift, _EYE)


def params_to_cov(raw) -> np.ndarray:
    """21 raw values -> symmetric positive-definite 6x6 covariance."""
    return _assemble_cov(params_to_chol(raw))


def cov_to_params(cov) -> np.ndarray:
    """Inverse head map: recover raw values whose params_to_cov is ~cov."""
    try:
        L = np.linalg.cholesky(np.asarray(cov, dtype=float))
    except np.linalg.LinAlgError as e:
        raise NumericError(f"cov_to_params needs a PD matrix: {e}")
    raw = np.zeros(RAW_DIM)
    raw[:6] = inv_softplus(np.clip(np.diag(L) - DIAG_FLOOR, 1e-300, None))
    raw[6:] = L[_TRIL_I, _TRIL_J]
    return raw


def regularize_label(cov) -> np.ndarray:
    """Shift near-singular labels, item by item, so the KL reference is invertible."""
    cov = np.asarray(cov, dtype=float)
    low = np.linalg.eigvalsh(cov)[..., :1, None] < LABEL_EIG_MIN
    return np.where(low, cov + LABEL_JITTER * _EYE, cov)


def _factor(mats, what, regularize: bool = False):
    """Cholesky factors of a (B,6,6) stack and their inverses, by the
    potrs call of cho_solve per item; `regularize` applies regularize_label
    to the checked stack first."""
    if not np.isfinite(mats).all():
        raise NumericError(f"{what} has non-finite entries")
    if regularize:
        mats = regularize_label(mats)
    try:
        L = np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        raise NumericError(f"{what} is not positive definite")
    return L, np.stack([dpotrs(l, _EYE, lower=1)[0] for l in L])


def _kl_half(y_hat, y_bar, ref=None):
    """KL of N(0, y_hat) from N(0, y_bar), 0.5 * (tr(y_bar^-1 y_hat) - 6 +
    ln det y_bar - ln det y_hat), per item of (B,6,6) stacks, and its y_hat
    gradient 0.5 * (y_bar^-1 - y_hat^-1); y_bar is regularized, and `ref`
    is its _factor if known."""
    try:
        L_bar, inv_bar = ref or _factor(y_bar, "KL reference covariance", regularize=True)
        L_hat, inv_hat = _factor(y_hat, "KL predicted covariance")
    except (NumericError, np.linalg.LinAlgError):
        if len(y_hat) > 1:  # raise what the lowest bad item raises alone
            for b in range(len(y_hat)):
                _kl_half(y_hat[b:b + 1], y_bar[b:b + 1])
        raise
    # tr(y_bar^-1 y_hat) = || L_bar^-1 L_hat ||_F^2 by the trtrs call of
    # solve_triangular, each item summed in that call's memory order
    trace = np.array([(m * m).sum() for m in (
        dtrtrs(lb.T, lh, lower=0, trans=1)[0] for lb, lh in zip(L_bar, L_hat))])
    logdet_bar = 2.0 * np.log(np.diagonal(L_bar, 0, 1, 2)).sum(axis=1)
    logdet_hat = 2.0 * np.log(np.diagonal(L_hat, 0, 1, 2)).sum(axis=1)
    return 0.5 * (trace - 6.0 + logdet_bar - logdet_hat), 0.5 * (inv_bar - inv_hat)


def _huber_half(y_hat, y_bar, delta):
    """Huber penalty over the 21 upper-triangle differences per item of
    (B,6,6) stacks, and its slope laid out in the upper triangle."""
    # np.take keeps each row contiguous, so it sums like one packed item
    d = np.take((y_hat - y_bar).reshape(-1, 36), _UP_FLAT, axis=1)
    a = np.abs(d)
    hub = np.where(a <= delta, 0.5 * d * d, delta * (a - 0.5 * delta)).sum(axis=1)
    slope = np.zeros(y_hat.shape)
    slope[:, UPPER_I, UPPER_J] = np.where(a <= delta, d, delta * np.sign(d))
    return hub, slope


def loss_kl(y_hat, y_bar) -> np.ndarray:
    """KL divergence of N(0, y_hat) from N(0, y_bar) per item of (B,6,6)
    stacks, the KL half of the head kernel. y_bar goes through
    regularize_label first."""
    return _kl_half(np.asarray(y_hat, dtype=float), np.asarray(y_bar, dtype=float))[0]


def head_loss_and_grad(raw, y_bar, alpha=0.1, beta=0.9, delta=1e-3, ref=None):
    """Combined loss at params_to_cov(raw) and its analytic 21-gradient:
    raw (B,21) and labels (B,6,6) give (B,) losses and (B,21) gradients.
    `ref` is the labels' regularized (Cholesky factors, inverses) when the
    caller has them."""
    raw = np.asarray(raw, dtype=float)
    y_bar = np.asarray(y_bar, dtype=float)
    c = params_to_chol(raw)
    y = _assemble_cov(c)
    kl, g_kl = _kl_half(y, y_bar, ref)
    hub, g_hub = _huber_half(y, y_bar, delta)
    loss = alpha * kl + beta * hub
    g_y = alpha * g_kl + beta * 0.5 * (g_hub + np.swapaxes(g_hub, 1, 2))
    # y = sym(C C^T) + shift, g_y symmetric: dL/dC = 2 g_y C; the shift's
    # own dependence on C is ~1e-13 relative and deliberately dropped.
    g_c = 2.0 * (g_y @ c)
    grad = np.empty_like(raw)
    grad[:, :6] = np.diagonal(g_c, 0, 1, 2) * expit(raw[:, :6])
    grad[:, 6:] = g_c[:, _TRIL_I, _TRIL_J]
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
        # learning_rate 0 is allowed: it leaves the initial model in place
        require(self, 0, "alpha", "beta", "learning_rate", "augment_xy", "augment_yaw_deg",
                "label_floor", "seed")
        require(self, 0, "huber_delta", "init_sigma", strict=True)
        require(self, 1, "steps", "batch_size")


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

    def forward(self, features):
        """(B,32) features -> (normalized features, hidden activations, raw
        outputs), per item by the matrix-vector products of one sample."""
        f_n = (np.asarray(features, dtype=float) - self.feat_mean) / self.feat_scale
        h = np.tanh((self.w1 @ f_n[:, :, None])[:, :, 0] + self.b1)
        return f_n, h, (self.w2 @ h[:, :, None])[:, :, 0] + self.b2


def predict(model: RegressionModel, scan: PointCloud, normal_k: int = 10) -> np.ndarray:
    """Predicted 6x6 alignment-error covariance for one scan; normal_k must
    match the value the model was trained with."""
    return params_to_cov(model.forward(extract_features(scan, normal_k)[None])[2][0])


def _sampling_p(records):
    """Draw probabilities of the records, weight per record = max
    |covariance entry|; None (uniform) when every weight is zero. A
    non-finite covariance raises NumericError naming the first such record."""
    if not records:
        raise DataError("cannot sample from an empty record set")
    w = np.array([np.abs(r.covariance).max() for r in records], dtype=float)
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        i = int(bad[0])
        raise NumericError(
            f"record {i} (frame {records[i].frame_id}): covariance has non-finite entries")
    total = w.sum()
    return None if total <= 0 else w / total


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


def train(samples, config: TrainConfig = TrainConfig(), normal_k: int = 10,
          progress=None, threads: int = 1):
    """Fit the regressor on (CovRecord, scan) pairs.

    Returns (model, loss_trace). Deterministic for a fixed config seed;
    weight init, batch sampling, and augmentation each get their own
    substream so turning augmentation off (or zeroing its ranges) leaves
    the sampled batches unchanged. Scan normals are estimated once up
    front so augmented feature extraction only rotates them; every
    record's normals, then every record's features, are computed on
    `threads` workers, and the first fault in that order is raised. Each
    step runs its batch through the network and one head kernel call,
    with sums in sample order: the bytes of a sample-at-a-time loop.
    """
    if not samples:
        raise DataError("training needs at least one labeled sample")
    records = [rec for rec, _ in samples]
    p = _sampling_p(records)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        scans = list(pool.map(lambda sample: with_normals(sample[1], normal_k), samples))
        feats = np.asarray(list(pool.map(lambda s: extract_features(s, normal_k), scans)))
    feat_mean = feats.mean(axis=0)
    feat_scale = feats.std(axis=0)
    feat_scale[feat_scale < 1e-12] = 1.0

    def floored(labels):
        return labels + config.label_floor * _EYE if config.label_floor > 0.0 else labels

    if not config.augment:
        # fixed labels: floor, regularize and factor each record once; an
        # unusable label fails in the first step that draws it
        labels = floored(np.array([rec.covariance for rec in records], dtype=float))
        try:
            refs = _factor(labels, "KL reference covariance", regularize=True)
        except (NumericError, np.linalg.LinAlgError):
            refs = None

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
            idx = rng_batch.choice(len(records), size=config.batch_size, replace=True, p=p)
            if config.augment:
                draws = [augment_sample(scans[i], records[i].covariance, rng_aug,
                                        config.augment_xy, config.augment_yaw_deg) for i in idx]
                f = np.array([feats[i] if scan is scans[i] else extract_features(scan, normal_k)
                              for i, (scan, _) in zip(idx, draws)])
                y_bar, ref = floored(np.array([label for _, label in draws])), None
            else:
                f, y_bar = feats[idx], labels[idx]
                ref = None if refs is None else (refs[0][idx], refs[1][idx])
            f_n, h, raw = model.forward(f)
            try:
                loss, g_raw = head_loss_and_grad(
                    raw, y_bar, config.alpha, config.beta, config.huber_delta, ref
                )
            except NumericError as e:
                raise type(e)(f"training step {step + 1}: {e}") from e
            total = 0.0
            for value in loss.tolist():
                total += value
            if not np.isfinite(total):
                raise NumericError(f"training step {step + 1}: loss is not finite")
            # Sample-order sums, each starting from 0.0 as a running total.
            dz = (1.0 - h * h) * (model.w2.T @ g_raw[:, :, None])[:, :, 0]
            g_w1 = np.add.reduce(dz[:, :, None] * f_n[:, None, :], axis=0, initial=0.0)
            g_b1 = np.add.reduce(dz, axis=0, initial=0.0)
            g_w2 = np.add.reduce(g_raw[:, :, None] * h[:, None, :], axis=0, initial=0.0)
            g_b2 = np.add.reduce(g_raw, axis=0, initial=0.0)
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

    def vec(key, *shape, parse=float, sep=None):
        if key not in kv:
            raise DataError(f"{path}: missing key {key!r}")
        try:
            v = np.array([parse(x) for x in kv[key].split(sep)]).reshape(shape)
        except ValueError as e:
            raise DataError(f"{path}: key {key!r}: {e}") from None
        if not np.isfinite(v).all():
            raise DataError(f"{path}: key {key!r}: non-finite value")
        return v

    dims = tuple(vec("dims", 3, parse=int, sep=",").tolist())
    if dims != (FEATURE_DIM, HIDDEN_DIM, RAW_DIM):
        raise DataError(f"{path}: unsupported layer dims {dims}")
    feat_scale = vec("feat_scale", FEATURE_DIM)
    if np.any(feat_scale <= 0):
        raise DataError(f"{path}: key 'feat_scale': feature scales must be positive")
    model = RegressionModel(
        vec("feat_mean", FEATURE_DIM), feat_scale,
        vec("w1", HIDDEN_DIM, FEATURE_DIM), vec("b1", HIDDEN_DIM),
        vec("w2", RAW_DIM, HIDDEN_DIM), vec("b2", RAW_DIM),
    )
    info = {k: v for k, v in kv.items() if k.startswith(("train_", "cfg_"))}
    return model, info
