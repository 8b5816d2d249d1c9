"""Rigid-body transforms on SE(3) and their tangent-space maps.

Twist layout is always (u, omega): translational part first, rotational
part last, both in the 6-vector and in 6x6 block matrices. exp uses the
left-Jacobian coupling t = V(omega) u; log inverts it on the principal
branch (angle < pi).
"""
from __future__ import annotations

import numpy as np

from .errors import AngleNearPi

# Below this rotation angle exp/log switch to 2-term Taylor expansions.
SMALL_ANGLE = 1e-8

# log refuses angles within this distance of pi (axis sign is unstable).
PI_MARGIN = 1e-6

_ORTHO_TOL = 1e-9

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


class SE3:
    """Rigid transform p -> R p + t with validated rotation.

    Instances are immutable; the stored arrays are read-only copies.
    """

    __slots__ = ("R", "t")

    def __init__(self, rotation, translation):
        R = np.array(rotation, dtype=float)
        t = np.array(translation, dtype=float).reshape(3)
        if R.shape != (3, 3):
            raise ValueError("rotation must be a 3x3 matrix")
        _require_finite(R, t)
        ortho = np.linalg.norm(R.T @ R - _EYE3)
        if ortho > _ORTHO_TOL:
            raise ValueError(f"rotation not orthonormal, |R^T R - I| = {ortho:.3e}")
        if abs(np.linalg.det(R) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation must have determinant +1")
        _store(self, R, t)

    def __setattr__(self, name, value):
        raise AttributeError("SE3 is immutable")

    def __reduce__(self):
        return _derived, (self.R, self.t)

    @staticmethod
    def identity() -> "SE3":
        return SE3(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.R
        m[:3, 3] = self.t
        return m

    def apply(self, points) -> np.ndarray:
        """Transform one point (3,) or a stack of points (N, 3)."""
        p = np.asarray(points, dtype=float)
        return p @ self.R.T + self.t

    def __matmul__(self, other) -> "SE3":
        return compose(self, other)

    def __repr__(self):
        return f"SE3(t={np.array2string(self.t, precision=4)})"


def _require_finite(R, t):
    if not (np.isfinite(R).all() and np.isfinite(t).all()):
        raise ValueError("transform entries must be finite")


def _store(pose, R, t):
    R.setflags(write=False)
    t.setflags(write=False)
    object.__setattr__(pose, "R", R)
    object.__setattr__(pose, "t", t)


def _derived(R, t) -> SE3:
    """The SE3 of a rotation and translation this module computed from
    validated transforms or a finite twist. Products and Rodrigues'
    formula stay orthonormal to rounding, so only finiteness (an
    overflow) is checked; the public constructor checks the rest."""
    _require_finite(R, t)
    pose = object.__new__(SE3)
    _store(pose, R, t)
    return pose


def compose(a: SE3, b: SE3) -> SE3:
    """(a o b): apply b first, then a."""
    return _derived(a.R @ b.R, a.R @ b.t + a.t)


def inverse(t: SE3) -> SE3:
    Rt = np.array(t.R.T)
    return _derived(Rt, -(Rt @ t.t))


def exp(xi) -> SE3:
    """Exponential map from a twist (u, omega) to a transform.

    Total on finite input. Rotation by Rodrigues, translation through the
    left Jacobian V(omega); both fall back to series below SMALL_ANGLE.
    """
    xi = np.asarray(xi, dtype=float).reshape(6)
    if not np.isfinite(xi).all():
        raise ValueError("twist entries must be finite")
    u, omega = xi[:3], xi[3:]
    theta = np.linalg.norm(omega)
    W = skew(omega)
    W2 = W @ W
    if theta < SMALL_ANGLE:
        R = _EYE3 + W + 0.5 * W2
        V = _EYE3 + 0.5 * W + W2 / 6.0
    else:
        s, c = np.sin(theta), np.cos(theta)
        R = _EYE3 + (s / theta) * W + ((1.0 - c) / theta**2) * W2
        V = (
            _EYE3
            + ((1.0 - c) / theta**2) * W
            + ((theta - s) / theta**3) * W2
        )
    return _derived(R, V @ u)


def log(t: SE3) -> np.ndarray:
    """Logarithm map to the principal-branch twist (u, omega).

    Raises AngleNearPi when the rotation angle is within PI_MARGIN of pi,
    where the rotation axis is numerically indeterminate.
    """
    R = t.R
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta >= np.pi - PI_MARGIN:
        raise AngleNearPi(f"rotation angle {theta:.9f} within {PI_MARGIN} of pi")
    vee = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < SMALL_ANGLE:
        omega = vee
        W = skew(omega)
        Vinv = np.eye(3) - 0.5 * W + (W @ W) / 12.0
    else:
        omega = (theta / np.sin(theta)) * vee
        W = skew(omega)
        coeff = (1.0 - theta * np.sin(theta) / (2.0 * (1.0 - np.cos(theta)))) / theta**2
        Vinv = np.eye(3) - 0.5 * W + coeff * (W @ W)
    return np.concatenate([Vinv @ t.t, omega])


def adjoint(t: SE3) -> np.ndarray:
    """6x6 adjoint: Ad(T) (u, omega) = (R u + skew(t) R omega, R omega)."""
    ad = np.zeros((6, 6))
    ad[:3, :3] = t.R
    ad[:3, 3:] = skew(t.t) @ t.R
    ad[3:, 3:] = t.R
    return ad


def transport_covariance(t: SE3, cov) -> np.ndarray:
    """Move a twist covariance between frames: Ad(T) Y Ad(T)^T."""
    ad = adjoint(t)
    out = ad @ np.asarray(cov, dtype=float) @ ad.T
    return 0.5 * (out + out.T)


def rot_z(angle) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
