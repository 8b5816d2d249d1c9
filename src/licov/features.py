"""Deterministic 32-dim geometry descriptor for a single scan.

Every block except the normal-azimuth histogram is invariant under
rotations about z (and blocks built from range/eigenvalues are invariant
under any rotation); rotating the cloud by a multiple of the 45-degree
bin width therefore only circularly shifts the histogram block.

Layout (FEATURE_DIM = 32):
    [0]      occupancy entropy over a cylindrical (radius, z) grid
    [1:13]   linearity, planarity, sphericity for 4 radial shells
    [13:17]  occupancy fraction of each radial shell
    [17:25]  normal azimuth histogram, 8 bins of 45 degrees
    [25]     log1p(point count)
    [26:29]  principal extents (sqrt of global scatter eigenvalues, desc)
    [29]     mean range
    [30]     range variance
    [31]     max range
"""
from __future__ import annotations

import hashlib

import numpy as np

from .cloud import PointCloud, estimate_normals
from .errors import DataError, NumericError

FEATURE_DIM = 32

N_SHELLS = 4
N_AZ_BINS = 8
N_RHO_BINS = 12
N_Z_BINS = 6

# Normals this close to vertical have no meaningful azimuth.
_MIN_HORIZONTAL = 1e-3


def feature_spec_hash() -> str:
    """Hash of the extractor layout, stored in model files so that a model
    is never applied to features from a different extractor."""
    desc = (
        f"v1;dim={FEATURE_DIM};shells={N_SHELLS};az_bins={N_AZ_BINS};"
        f"rho_bins={N_RHO_BINS};z_bins={N_Z_BINS}"
    )
    return hashlib.sha256(desc.encode()).hexdigest()[:16]


def _shape_descriptors(points) -> tuple:
    """(linearity, planarity, sphericity) of a point set, zeros if trivial."""
    if points.shape[0] < 3:
        return 0.0, 0.0, 0.0
    centered = points - points.mean(axis=0)
    eig = np.linalg.eigvalsh(centered.T @ centered / points.shape[0])
    eig = np.clip(eig[::-1], 0.0, None)  # descending
    if eig[0] <= 0.0:
        return 0.0, 0.0, 0.0
    l1, l2, l3 = eig
    return (l1 - l2) / l1, (l2 - l3) / l1, l3 / l1


def _occupancy_entropy(rho, z) -> float:
    rho_hi = max(float(rho.max()), 1e-9)
    z_lo, z_hi = float(z.min()), float(z.max())
    if z_hi - z_lo < 1e-9:
        z_hi = z_lo + 1e-9
    rho_edges = np.linspace(0.0, rho_hi, N_RHO_BINS + 1)
    z_edges = np.linspace(z_lo, z_hi, N_Z_BINS + 1)
    counts, _, _ = np.histogram2d(rho, z, bins=(rho_edges, z_edges))
    p = counts[counts > 0].ravel() / counts.sum()
    return float(-(p * np.log(p)).sum())


def with_normals(cloud: PointCloud, normal_k: int) -> PointCloud:
    """The cloud with estimated normals; as given if it has normals or
    too few points (normal_k or fewer) for a neighborhood."""
    if cloud.normals is not None or len(cloud) <= normal_k:
        return cloud
    return estimate_normals(cloud, k=normal_k)


def extract_features(cloud: PointCloud, normal_k: int = 10) -> np.ndarray:
    """Describe a scan (sensor at the origin) as a fixed 32-vector."""
    pts = cloud.points
    n = pts.shape[0]
    if n == 0:
        raise DataError("cannot extract features from an empty cloud")

    r = np.linalg.norm(pts, axis=1)
    r_max = float(r.max())
    rho = np.hypot(pts[:, 0], pts[:, 1])

    out = np.zeros(FEATURE_DIM)
    out[0] = _occupancy_entropy(rho, pts[:, 2])

    if r_max > 0:
        shell = np.minimum((r / r_max * N_SHELLS).astype(int), N_SHELLS - 1)
    else:
        shell = np.zeros(n, dtype=int)
    for s in range(N_SHELLS):
        sel = pts[shell == s]
        lin, pla, sph = _shape_descriptors(sel)
        out[1 + 3 * s : 4 + 3 * s] = (lin, pla, sph)
        out[13 + s] = sel.shape[0] / n

    normals = with_normals(cloud, normal_k).normals
    if normals is not None:
        horiz = np.hypot(normals[:, 0], normals[:, 1])
        keep = horiz > _MIN_HORIZONTAL
        if keep.any():
            az = np.arctan2(normals[keep, 1], normals[keep, 0])  # (-pi, pi]
            bins = np.floor((az + np.pi) / (2 * np.pi / N_AZ_BINS)).astype(int)
            bins = np.clip(bins, 0, N_AZ_BINS - 1)
            hist = np.bincount(bins, minlength=N_AZ_BINS).astype(float)
            out[17:25] = hist / hist.sum()

    out[25] = np.log1p(n)
    centered = pts - pts.mean(axis=0)
    eig = np.clip(np.linalg.eigvalsh(centered.T @ centered / n), 0.0, None)
    out[26:29] = np.sqrt(eig[::-1])
    out[29] = r.mean()
    out[30] = r.var()
    out[31] = r_max
    if not np.isfinite(out).all():
        raise NumericError("non-finite feature encountered")
    return out
