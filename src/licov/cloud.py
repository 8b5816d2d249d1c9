"""Point clouds: scan I/O, voxel filtering, normals, neighbor search, maps.

Scan files follow the KITTI velodyne layout: consecutive 16-byte records
of little-endian float32 (x, y, z, reflectance), no header. Pose files
hold 12 space-separated values per line, the row-major top 3x4 of a
homogeneous pose matrix, applied as-is.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import se3
from .errors import ConfigError, DataError, at_line, require

_RECORD_BYTES = 16


class PointCloud:
    """Immutable set of 3D points with optional unit normals."""

    __slots__ = ("points", "normals")

    def __init__(self, points, normals=None):
        pts = np.array(points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (N, 3)")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        pts.setflags(write=False)
        if normals is not None:
            nrm = np.array(normals, dtype=float)
            if nrm.shape != pts.shape:
                raise ValueError("normals must match points in shape")
            if not np.isfinite(nrm).all():
                raise ValueError("normals must be finite")
            lengths = np.linalg.norm(nrm, axis=1)
            if nrm.shape[0] and np.abs(lengths - 1.0).max() > 1e-6:
                raise ValueError("normals must have unit length")
            nrm.setflags(write=False)
        else:
            nrm = None
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "normals", nrm)

    def __setattr__(self, name, value):
        raise AttributeError("PointCloud is immutable")

    def __reduce__(self):
        return PointCloud, (self.points, self.normals)

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class MapSetup:
    """The `[map]` settings: how a frame's scan and local map are prepared."""

    window_before: int = 20
    window_after: int = 10
    map_voxel: float = 1.0
    scan_voxel: float = 0.1
    normal_k: int = 10

    def __post_init__(self):
        require(self, 0, "window_before", "window_after")
        require(self, 0, "map_voxel", "scan_voxel", strict=True)
        require(self, 3, "normal_k")

    def scan(self, sequence, k) -> PointCloud:
        """Frame k's scan, voxel filtered at scan_voxel."""
        return voxel_downsample(sequence.scan(k), self.scan_voxel)

    def frame(self, sequence, k):
        """-> (filtered scan, build_local_map's index) of frame k; a map too
        small to carry normals is a DataError."""
        index = build_local_map(sequence.scans, sequence.poses, k, self)
        if index.cloud.normals is None:
            raise DataError(f"frame {k}: local map has {len(index)} points, "
                            "too few for normals (need 4)")
        return self.scan(sequence, k), index


def load_kitti_scan(path) -> PointCloud:
    """Read a binary scan file; reflectance is dropped."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % _RECORD_BYTES != 0:
        raise DataError(
            f"{path}: size {len(raw)} is not a multiple of {_RECORD_BYTES}"
        )
    data = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    pts = data[:, :3].astype(float)
    if not np.isfinite(pts).all():
        raise DataError(f"{path}: non-finite coordinates")
    return PointCloud(pts)


def save_kitti_scan(path, cloud: PointCloud):
    """Write a cloud in the binary scan layout (float32, 4 per record),
    reflectance 0."""
    data = np.zeros((len(cloud), 4), dtype="<f4")
    data[:, :3] = cloud.points
    with open(path, "wb") as f:
        f.write(data.tobytes())


def format_pose(pose) -> str:
    """The 12 row-major values of pose's top 3x4 [R|t], at full precision."""
    m = np.hstack([pose.R, pose.t.reshape(3, 1)])
    return " ".join(f"{v:.17g}" for v in m.reshape(-1))


def parse_pose(values, path, lineno) -> se3.SE3:
    """The pose of format_pose's 12 values, as strings; a wrong count, a
    non-number or a matrix that is no rigid transform is a DataError at
    path:lineno."""
    with at_line(path, lineno):
        m = np.array([float(x) for x in values])
        if len(m) != 12:
            raise DataError(f"{path}:{lineno}: expected 12 values, got {len(m)}")
        m = m.reshape(3, 4)
        return se3.SE3(m[:, :3], m[:, 3])


def load_kitti_poses(path) -> list:
    """Read one pose per line: 12 row-major values of the top 3x4."""
    with open(path, "r") as f:
        return [parse_pose(line.split(), path, lineno)
                for lineno, line in enumerate(f, start=1) if line.strip()]


def save_kitti_poses(path, poses):
    with open(path, "w") as f:
        for p in poses:
            f.write(format_pose(p) + "\n")


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """Replace each occupied voxel by the centroid of its points.

    Voxel keys are floor(p / voxel_size); output is ordered by key (x, then
    y, then z), so the result does not depend on input point order beyond
    summation roundoff. Normals are dropped (centroids need re-estimation).
    The keys are packed into one int64 in mixed radix over the occupied
    grid, which keeps that order. The data's extent can overflow it: a key
    past the int64 range, or a grid of more than 2**63 - 1 cells, raises
    DataError.
    """
    if not np.isfinite(voxel_size) or voxel_size <= 0:
        raise ConfigError(f"voxel_size must be positive, got {voxel_size}")
    pts = cloud.points
    if pts.shape[0] == 0:
        return PointCloud(pts)
    with np.errstate(over="ignore"):
        keys = np.floor(pts / voxel_size)
    if not (keys.min() >= -2.0**63 and keys.max() < 2.0**63):
        raise DataError(f"coordinates up to {np.abs(pts).max():.3g} give voxel keys "
                        f"past the int64 range at voxel_size {voxel_size}")
    keys = keys.astype(np.int64)
    # one reduction per column: an axis-0 reduction of (N, 3) is many times slower
    lo = [int(c.min()) for c in keys.T]
    nx, ny, nz = (int(c.max()) - l + 1 for c, l in zip(keys.T, lo))
    if nx * ny * nz > np.iinfo(np.int64).max:
        raise DataError(
            f"voxel_size {voxel_size} gives a grid of {nx * ny * nz} cells, over 2**63 - 1"
        )
    rel = keys - np.array(lo)
    packed = (rel[:, 0] * ny + rel[:, 1]) * nz + rel[:, 2]
    _, inv = np.unique(packed, return_inverse=True)
    counts = np.bincount(inv).astype(float)
    sums = np.stack([np.bincount(inv, weights=pts[:, i]) for i in range(3)], axis=1)
    return PointCloud(sums / counts[:, None])


def estimate_normals(cloud: PointCloud, k: int = 10) -> PointCloud:
    """Attach plane normals from the k-nearest-neighbor scatter.

    The neighborhood of a point is the point itself plus its k nearest
    neighbors; the normal is the eigenvector of the smallest scatter
    eigenvalue, flipped so that dot(normal, -point) >= 0 (toward the
    coordinate origin, where the sensor sits for raw scans). Neighbourhoods
    so wide that their scatter overflows raise DataError.
    """
    return NeighborIndex(cloud).with_normals(k).cloud


def _scatter_overflow(pts) -> DataError:
    return DataError(f"coordinates up to {np.abs(pts).max():.3g} overflow the normals' scatter")


def _scatter_entries(pts, idx) -> tuple:
    """The six unique entries (xx, yy, zz, xy, xz, yz), each (n,), of the
    scatter matrices of the n neighborhoods pts[idx]."""
    x, y, z = (pts[:, j].take(idx) for j in range(3))
    for c in (x, y, z):
        c -= c.mean(axis=1, keepdims=True)
    pairs = ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z))
    return tuple(np.einsum("ij,ij->i", u, v) for u, v in pairs)


def _smallest_eigenvectors(xx, yy, zz, xy, xz, yz) -> np.ndarray:
    """(n, 3) unit eigenvectors of the smallest eigenvalues of n symmetric
    3x3 matrices, given by their six unique entries as (n,) arrays.

    The eigenvalues come from the trigonometric closed form (Kopp, IJMPC
    2008). The one farther from the middle eigenvalue has a well-
    conditioned vector, the longest cross product of two rows of
    A - lambda I. When that is the largest eigenvalue, the smallest one's
    vector is found in its orthogonal complement, by a 2x2 rotation. So
    the error stays within a few ulps over the relative gap, as with
    LAPACK. Where the cross product vanishes against the eigenvalue
    spread (an isotropic matrix, whose every vector is an eigenvector)
    np.linalg.eigh decides. The sign of a vector is arbitrary.
    """
    q = (xx + yy + zz) / 3.0
    a, b, c = xx - q, yy - q, zz - q
    p2 = (a * a + b * b + c * c + 2.0 * (xy * xy + xz * xz + yz * yz)) / 6.0
    p = np.sqrt(p2)
    det = a * (b * c - yz * yz) - xy * (xy * c - yz * xz) + xz * (xy * yz - b * xz)
    r = np.clip(det / (2.0 * np.where(p > 0.0, p, 1.0) ** 3), -1.0, 1.0)
    # eigenvalue j is q + 2p cos(arccos(r)/3 + 2 pi j/3): j = 0 is the
    # largest, j = 1 the smallest, and the smallest is the farther one
    # from the middle eigenvalue when r < 0
    low = r < 0.0
    lam = q + 2.0 * p * np.cos(np.arccos(r) / 3.0 + np.where(low, 2.0 * np.pi / 3.0, 0.0))
    a, b, c = xx - lam, yy - lam, zz - lam
    # rows (a, xy, xz), (xy, b, yz), (xz, yz, c): cross products 01, 02, 12
    cross = np.array([
        [xy * yz - xz * b, xz * xy - a * yz, a * b - xy * xy],
        [xy * c - xz * yz, xz * xz - a * c, a * yz - xy * xz],
        [b * c - yz * yz, yz * xz - xy * c, xy * yz - b * xz],
    ])
    sq = np.einsum("pjn,pjn->pn", cross, cross)
    best = sq.argmax(axis=0)
    rows = np.arange(len(q))
    vecs = cross[best, :, rows]
    longest = sq[best, rows]
    # exactly, longest >= 9 p^4; far below that it is rounding noise
    isotropic = longest <= 1e-20 * p2 * p2
    vecs /= np.sqrt(np.where(isotropic, 1.0, longest))[:, None]
    high = ~(low | isotropic)
    if high.any():
        entries = (m[high] for m in (xx, yy, zz, xy, xz, yz))
        vecs[high] = _smallest_beside_largest(vecs[high], *entries)
    if isotropic.any():
        full = np.array([xx, xy, xz, xy, yy, yz, xz, yz, zz])[:, isotropic]
        vecs[isotropic] = np.linalg.eigh(full.T.reshape(-1, 3, 3))[1][:, :, 0]
    return vecs


def _smallest_beside_largest(v, xx, yy, zz, xy, xz, yz) -> np.ndarray:
    """The smallest eigenvalue's unit vectors, given v, the largest's: the
    smaller-eigenvalue axis of A restricted to v's orthogonal complement."""
    zero = np.zeros(len(v))
    u = np.where((np.abs(v[:, 0]) > np.abs(v[:, 1]))[:, None],
                 np.stack([-v[:, 2], zero, v[:, 0]], axis=1),
                 np.stack([zero, v[:, 2], -v[:, 1]], axis=1))
    u /= np.linalg.norm(u, axis=1)[:, None]
    w = np.cross(v, u)

    def form(s, t):  # s^T A t, row by row
        return (s[:, 0] * (xx * t[:, 0] + xy * t[:, 1] + xz * t[:, 2])
                + s[:, 1] * (xy * t[:, 0] + yy * t[:, 1] + yz * t[:, 2])
                + s[:, 2] * (xz * t[:, 0] + yz * t[:, 1] + zz * t[:, 2]))

    # (cos, sin) of theta is the larger eigenvalue's axis in the (u, w) basis
    theta = 0.5 * np.arctan2(2.0 * form(u, w), form(u, u) - form(w, w))
    return np.cos(theta)[:, None] * w - np.sin(theta)[:, None] * u


def transform_cloud(cloud: PointCloud, t: se3.SE3) -> PointCloud:
    """Apply a rigid transform to points (and rotate normals if present)."""
    pts = cloud.points @ t.R.T + t.t
    nrm = None if cloud.normals is None else cloud.normals @ t.R.T
    return PointCloud(pts, nrm)


class NeighborIndex:
    """Nearest-neighbor index over a cloud (space-partitioning tree). It
    pickles with its tree, so a copy answers as the original does."""

    def __init__(self, cloud: PointCloud):
        self.cloud = cloud
        self._tree = cKDTree(cloud.points) if len(cloud) else None

    def __len__(self):
        return len(self.cloud)

    def query_batch(self, queries, k: int = 1):
        """Vectorized queries -> (distances, ids), shaped (N,) for k = 1 and
        (N, k) nearest first otherwise. No tie canonicalization."""
        if self._tree is None:
            raise DataError("nearest-neighbor query against an empty index")
        return self._tree.query(np.asarray(queries, dtype=float), k=k)

    def with_normals(self, k: int) -> NeighborIndex:
        """This index, sharing its tree, over the cloud with the normals of
        estimate_normals(cloud, k). A neighbour whose distance overflows
        comes back from the tree as id n, missing, which raises DataError."""
        if k < 3:
            raise ValueError("k must be at least 3")
        pts = self.cloud.points
        if len(pts) < k + 1:
            raise DataError(f"need at least {k + 1} points, have {len(pts)}")
        ids = self._tree.query(pts, k=k + 1)[1]
        if ids[:, -1].max() == len(pts):
            raise _scatter_overflow(pts)
        # nested, so that the scatter's arrays are freed before the next step runs
        with np.errstate(over="ignore", invalid="ignore"):
            normals = _smallest_eigenvectors(*_scatter_entries(pts, ids))
        if not np.isfinite(normals).all():
            raise _scatter_overflow(pts)
        normals[np.einsum("ij,ij->i", normals, pts) > 0.0] *= -1.0
        index = copy.copy(self)
        index.cloud = PointCloud(pts, normals)
        return index


def build_local_map(scans, poses, k: int, setup: MapSetup) -> NeighborIndex:
    """Merge a window of scans around frame k into one normal-equipped map.

    Frames k-window_before .. k+window_after are clamped to the sequence
    bounds, each scan is moved into the shared frame by its pose, the union
    is voxel filtered at map_voxel, and the result's NeighborIndex is
    returned, with normals from its own tree. Maps too small to define a
    neighborhood (under 4 points) come back without normals; between 4
    points and normal_k the neighborhood shrinks to the whole map.
    """
    n = len(scans)
    if n == 0:
        raise DataError("no scans available")
    if not 0 <= k < n:
        raise DataError(f"frame {k} outside sequence of length {n}")
    lo = max(0, k - setup.window_before)
    hi = min(n - 1, k + setup.window_after)
    parts = []
    for i in range(lo, hi + 1):
        if i >= len(poses) or poses[i] is None:
            raise DataError(f"frame {i} has no pose")
        parts.append(transform_cloud(scans[i], poses[i]).points)
    merged = PointCloud(np.vstack(parts))
    try:
        reduced = voxel_downsample(merged, setup.map_voxel)
        if len(reduced) == 0:
            raise DataError("local map is empty after voxel filtering")
        index = NeighborIndex(reduced)
        if len(reduced) < 4:
            return index
        return index.with_normals(min(setup.normal_k, len(reduced) - 1))
    except DataError as e:
        raise DataError(f"frame {k}: {e}") from None
