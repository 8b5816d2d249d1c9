"""Pose fusion: tangent-space EKF on SE(3) plus trajectory metrics.

The error state lives in the body frame (T_true = T_est o exp(eps)), so
prediction transports covariance by Ad(delta^-1) and the measurement
model for a full-pose observation is identity. Modes compared by
run_fusion, in one pass over the frames: raw ICP without filtering,
filtering with one fixed measurement covariance, and filtering with
per-frame predicted covariances. Its serial loop is `for each frame:
prepare (scan, map index, prediction); align and update each mode`; the
preparation and each align are worker tasks, and the updates run in the
caller's process.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import se3, workers
from .cloud import MapSetup, format_pose, parse_pose
from .errors import ConfigError, DataError, NumericError, at_line, require
from .icp import IcpConfig, icp_point_to_plane
from .model import predict
from .sequences import frame_selection

MODES = ("icp_only", "fixed_cov", "predicted_cov")

TRAJECTORY_TAG = "licov-trajectory"


@dataclass(frozen=True)
class FusionState:
    pose: se3.SE3
    covariance: np.ndarray


@dataclass(frozen=True)
class MotionInput:
    delta: se3.SE3
    process_noise: np.ndarray


@dataclass(frozen=True)
class FusionSetup:
    """The `[fusion]` settings, with the `[map]` and `[icp]` ones each frame
    is prepared and aligned by. `modes` lists fusion modes separated by
    spaces or commas, `seed` seeds the odometry noise, and `frames` is the
    selection ('all', 'a:b' or 'i,j,k') the `fuse` command tracks."""

    map: MapSetup = MapSetup()
    icp: IcpConfig = IcpConfig()
    motion_sigma_xyz: float = 0.05
    motion_sigma_rot_deg: float = 0.2
    init_cov: float = 1e-6
    frames: str = "all"
    seed: int = 0
    modes: str = " ".join(MODES)

    def __post_init__(self):
        require(self, 0, "motion_sigma_xyz", "motion_sigma_rot_deg", "seed")
        require(self, 0, "init_cov", strict=True)
        frame_selection(self.frames)
        names = self.mode_names
        if not names or not set(names) <= set(MODES):
            raise ConfigError(f"modes must be one or more of {' '.join(MODES)}, got {self.modes!r}")
        for i, mode in enumerate(names):
            if mode in names[:i]:
                raise ConfigError(f"modes lists {mode} more than once, got {self.modes!r}")

    @property
    def mode_names(self) -> tuple:
        """modes, split at spaces and commas."""
        return tuple(self.modes.replace(",", " ").split())

    def motion_sigmas(self) -> np.ndarray:
        s = np.empty(6)
        s[:3] = self.motion_sigma_xyz
        s[3:] = np.deg2rad(self.motion_sigma_rot_deg)
        return s


def _sym(m):
    return 0.5 * (m + m.T)


def ekf_predict(state: FusionState, motion: MotionInput) -> FusionState:
    """Compose the odometry increment; transport P into the new body frame."""
    ad = se3.adjoint(se3.inverse(motion.delta))
    cov = _sym(ad @ state.covariance @ ad.T + motion.process_noise)
    return FusionState(state.pose @ motion.delta, cov)


def ekf_update(state: FusionState, measurement: se3.SE3, meas_cov) -> FusionState:
    """Full-pose update with innovation log(pose^-1 o measurement).

    Gain K = P (P + R)^-1, pose <- pose o exp(K nu), covariance by the
    Joseph form (I - K) P (I - K)^T + K R K^T. R gets +1e-12 I when
    singular.
    """
    R = np.asarray(meas_cov, dtype=float)
    if np.linalg.eigvalsh(R)[0] < 1e-12:
        R = R + 1e-12 * np.eye(6)
    nu = se3.log(se3.inverse(state.pose) @ measurement)
    P = state.covariance
    S = _sym(P + R)
    try:
        gain_t = np.linalg.solve(S, P)  # S^-1 P = K^T since P, S symmetric
    except np.linalg.LinAlgError:
        raise NumericError("innovation covariance is singular")
    K = gain_t.T
    pose = state.pose @ se3.exp(K @ nu)
    IK = np.eye(6) - K
    cov = _sym(IK @ P @ IK.T + K @ R @ K.T)
    return FusionState(pose, cov)


@dataclass
class Trajectory:
    frame_ids: list
    poses: list

    def __len__(self):
        return len(self.frame_ids)

    def translations(self) -> np.ndarray:
        return np.array([p.t for p in self.poses]).reshape(len(self.poses), 3)


def write_trajectory(path, trajectory: Trajectory, header=None):
    """One line per frame: frame_id then the 12 row-major [R|t] values.
    Header metadata goes into '#'-prefixed comment lines."""
    with open(path, "w") as f:
        f.write(f"# {TRAJECTORY_TAG},1\n")
        for k, v in (header or {}).items():
            f.write(f"# {k}={v}\n")
        for fid, pose in zip(trajectory.frame_ids, trajectory.poses):
            f.write(f"{fid} {format_pose(pose)}\n")


def read_trajectory(path) -> Trajectory:
    frame_ids, poses = [], []
    with open(path, "r") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 13:
                raise DataError(f"{path}:{lineno}: expected 13 fields, got {len(parts)}")
            with at_line(path, lineno):
                frame_ids.append(int(parts[0]))
            poses.append(parse_pose(parts[1:], path, lineno))
    return Trajectory(frame_ids, poses)


def _prepare(context, k):
    sequence, setup, model, _ = context
    scan, index = setup.map.frame(sequence, k)
    if "predicted_cov" not in setup.mode_names:
        return scan, index, None
    return scan, index, predict(model, scan, setup.map.normal_k)


def _align(context, scan, index, prior):
    _, setup, _, align = context
    return align(scan, index, prior, setup.icp).estimate


def run_fusion(
    sequence,
    frames,
    setup: FusionSetup = FusionSetup(),
    model=None,
    fixed_cov=None,
    align=None,
    threads: int = 1,
) -> dict:
    """Track the sequence in each of setup's modes -> {mode: Trajectory}.

    Odometry is the ground-truth delta plus Gaussian twist noise; ICP
    against the local map gives the pose measurements. Every filter starts
    at the true first-frame pose. Per-frame odometry noise comes from the
    (setup.seed, frame) substream, so runs are repeatable and every mode
    sees the same noise realization. Each frame's scan and map index are
    prepared once and shared by all modes. `align` may replace the ICP call
    (source, index, initial, cfg -> object with .estimate); it is called
    once per frame and mode.

    A frame's preparation (scan, map index and, for predicted_cov, the
    predicted covariance) and each mode's align are tasks on a
    workers.Pool of `threads` workers; a mode's EKF update runs here as
    soon as its align returns. A mode's state depends only on its own
    previous frame, so each mode is a chain of frames: a mode whose align
    ends early starts its next frame while another still aligns (with one
    worker, the modes move frame by frame together). Frames are prepared
    at most two past the slowest mode's, so at most three maps are held.
    The result does not depend on `threads`, nor does the fault raised:
    the first in the order of the loop `for each frame: prepare; align
    and update each mode`.
    """
    modes = setup.mode_names
    if "predicted_cov" in modes and model is None:
        raise ConfigError("predicted_cov mode requires a trained model")
    if "fixed_cov" in modes and fixed_cov is None:
        raise ConfigError("fixed_cov mode requires an averaged dataset covariance")
    frames = sorted(set(int(f) for f in frames))
    if not frames:
        raise DataError("no frames to fuse")
    if align is None:
        align = icp_point_to_plane

    sig = setup.motion_sigmas()
    Q = np.diag(sig**2)
    truths = [sequence.pose(k) for k in frames]
    motions = [None]
    for k, prev_truth, truth in zip(frames[1:], truths, truths[1:]):
        delta_true = se3.inverse(prev_truth) @ truth
        rng = np.random.default_rng(np.random.SeedSequence((setup.seed, k)))
        eta = rng.normal(0.0, 1.0, 6) * sig
        motions.append(MotionInput(delta_true @ se3.exp(eta), Q))

    # A task's place in that loop is (frame position, 0) for the frame's
    # preparation and (frame position, 1 + the mode's index) for an align.
    n = len(frames)
    start = FusionState(truths[0], setup.init_cov * np.eye(6))
    states = dict.fromkeys(modes, start)
    out = {mode: [start.pose] for mode in modes}
    at = dict.fromkeys(modes, 1)  # the position of the frame each mode aligns next
    priors, ready = {}, {}        # mode -> predicted state; position -> _prepare's result
    # how far a mode may align past the slowest one: one worker keeps the
    # call order of the frame-by-frame loop
    lead = 0 if threads == 1 else 2
    mapped = min(n, 4)
    with workers.Pool(threads, len(modes) + 3, (sequence, setup, model, align)) as pool:
        for i in range(1, mapped):
            pool.submit((i, 0), _prepare, frames[i])
        for (i, s), result in pool.results():
            if s == 0:
                ready[i] = result
            else:
                mode = modes[s - 1]
                prior = priors.pop(mode)
                try:
                    if mode == "icp_only":
                        state = FusionState(result, prior.covariance)
                    else:
                        R = fixed_cov if mode == "fixed_cov" else ready[i][2]
                        state = ekf_update(prior, result, R)
                except Exception as e:
                    pool.fail((i, s), e)
                    continue
                states[mode] = state
                out[mode].append(state.pose)
                at[mode] = i + 1
            slowest = min(at.values())
            for j in [j for j in ready if j < slowest]:
                del ready[j]
            while mapped < min(n, slowest + 3):
                pool.submit((mapped, 0), _prepare, frames[mapped])
                mapped += 1
            for s, mode in enumerate(modes, 1):
                i = at[mode]
                place = (i, s)
                if mode in priors or i > slowest + lead or i not in ready or not pool.allows(place):
                    continue
                try:
                    priors[mode] = ekf_predict(states[mode], motions[i])
                except Exception as e:
                    pool.fail(place, e)
                    continue
                pool.submit(place, _align, *ready[i][:2], priors[mode].pose)
    return {mode: Trajectory(list(frames), poses) for mode, poses in out.items()}


def _check_pair(estimate: Trajectory, reference: Trajectory):
    if len(estimate) == 0 or len(reference) == 0:
        raise DataError("trajectory metrics need at least one frame")
    if list(estimate.frame_ids) != list(reference.frame_ids):
        raise DataError("trajectories cover different frames")


def ade(estimate: Trajectory, reference: Trajectory) -> float:
    """Mean translation error norm over aligned frames."""
    _check_pair(estimate, reference)
    d = estimate.translations() - reference.translations()
    return float(np.linalg.norm(d, axis=1).mean())


def fde(estimate: Trajectory, reference: Trajectory) -> float:
    """Translation error norm at the final frame."""
    _check_pair(estimate, reference)
    return float(np.linalg.norm(estimate.translations()[-1] - reference.translations()[-1]))
