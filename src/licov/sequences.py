"""Frame-indexed scan/pose sources consumed by the pipeline.

A sequence exposes len(), scan(k) in the sensor frame, and pose(k) as the
sensor-to-world transform. `scans` / `poses` are list-like views so the
map builder can index frames without loading everything up front.
"""
from __future__ import annotations

import functools
import os

from . import cloud, se3
from .errors import ConfigError, DataError


class _View:
    def __init__(self, fn, length):
        self._fn = fn
        self._length = length

    def __len__(self):
        return self._length

    def __getitem__(self, i):
        if not 0 <= i < self._length:
            raise IndexError(i)
        return self._fn(i)


class Sequence:
    """Base class wiring scan()/pose() into indexable views."""

    def __len__(self):
        raise NotImplementedError

    def scan(self, k) -> cloud.PointCloud:
        raise NotImplementedError

    def pose(self, k) -> se3.SE3:
        raise NotImplementedError

    @property
    def scans(self):
        return _View(self.scan, len(self))

    @property
    def poses(self):
        return _View(self.pose, len(self))


class KittiSequence(Sequence):
    """Directory of zero-padded .bin scans plus a 12-value-per-line pose file."""

    def __init__(self, scan_dir, pose_file):
        if not os.path.isdir(scan_dir):
            raise DataError(f"scan directory not found: {scan_dir}")
        names = sorted(n for n in os.listdir(scan_dir) if n.endswith(".bin"))
        if not names:
            raise DataError(f"no .bin scans in {scan_dir}")
        self._paths = [os.path.join(scan_dir, n) for n in names]
        self._poses = cloud.load_kitti_poses(pose_file)
        if len(self._poses) < len(self._paths):
            raise DataError(
                f"{pose_file}: {len(self._poses)} poses for {len(self._paths)} scans"
            )
        self._load = functools.lru_cache(maxsize=64)(cloud.load_kitti_scan)

    def __len__(self):
        return len(self._paths)

    def scan(self, k):
        return self._load(self._paths[k])

    def pose(self, k):
        return self._poses[k]


class InMemorySequence(Sequence):
    """Sequence over materialized clouds and poses (tests, small fixtures)."""

    def __init__(self, scans, poses):
        if len(scans) == 0:
            raise DataError("no scans")
        if len(poses) < len(scans):
            raise DataError("fewer poses than scans")
        self._scans = list(scans)
        self._poses = list(poses)

    def __len__(self):
        return len(self._scans)

    def scan(self, k):
        return self._scans[k]

    def pose(self, k):
        return self._poses[k]


def frame_selection(expr, key="frames"):
    """'all' (or empty), 'a:b' or 'i,j,k' -> slice(a or 0, b or None) or
    [i, j, k]; any other text is a ConfigError naming `key`."""
    expr = str(expr).strip()
    try:
        if expr in ("", "all"):
            return slice(0, None)
        if ":" in expr:
            lo, hi = expr.split(":", 1)
            return slice(int(lo) if lo else 0, int(hi) if hi else None)
        return [int(x) for x in expr.split(",")]
    except ValueError:
        raise ConfigError(f"{key} must be 'all', 'a:b' or 'i,j,k', got {expr!r}") from None


def parse_frames(expr, length, key="frames") -> list:
    """Frame selection: 'a:b' (half-open, clamped), 'all', or 'i,j,k', as
    ascending frames, each once. One that selects no frame, or lists one
    outside the sequence, is a ConfigError naming `key`."""
    frames = frame_selection(expr, key)
    if isinstance(frames, slice):
        hi = length if frames.stop is None else min(length, frames.stop)
        frames = list(range(max(0, frames.start), hi))
    for f in frames:
        if not 0 <= f < length:
            raise ConfigError(f"{key} lists frame {f}, outside a sequence of length {length}")
    if not frames:
        raise ConfigError(f"{key} {expr!r} selects no frame of a sequence of length {length}")
    return sorted(set(frames))
