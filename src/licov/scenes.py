"""Procedural scan sequences over simple planar environments.

Three scene kinds with known conditioning:

- room: closed box with interior clutter, constrains all six degrees of
  freedom (well conditioned).
- corridor: long hallway whose middle section shows only walls, floor and
  ceiling, leaving translation along the corridor axis unobservable;
  cluttered zones near both ends are feature rich, so a full traverse is
  a heterogeneous sequence.
- plane: bare ground plane, degenerate in both in-plane translations and
  yaw.

Scans are resampled per frame with a per-(seed, frame) substream, so the
same seed always reproduces identical clouds.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import se3
from .cloud import PointCloud
from .errors import ConfigError, require
from .sequences import KittiSequence, Sequence


@dataclass(frozen=True)
class Rect:
    """Planar patch: origin corner plus two orthogonal edge vectors."""

    origin: tuple
    e1: tuple
    e2: tuple

    def area(self) -> float:
        return float(
            np.linalg.norm(np.asarray(self.e1)) * np.linalg.norm(np.asarray(self.e2))
        )

    def sample(self, n: int, rng) -> np.ndarray:
        uv = rng.random((n, 2))
        o = np.asarray(self.origin, dtype=float)
        return o + np.outer(uv[:, 0], self.e1) + np.outer(uv[:, 1], self.e2)


def _box_sides(x0, y0, x1, y1, height, z0=0.0):
    """Four vertical side panels of an axis-aligned box footprint."""
    return [
        Rect((x0, y0, z0), (x1 - x0, 0, 0), (0, 0, height)),
        Rect((x0, y1, z0), (x1 - x0, 0, 0), (0, 0, height)),
        Rect((x0, y0, z0), (0, y1 - y0, 0), (0, 0, height)),
        Rect((x1, y0, z0), (0, y1 - y0, 0), (0, 0, height)),
    ]


def _panel(x, y, length, angle_deg, height):
    """Vertical panel of given length rotated about z; oblique normals."""
    a = np.deg2rad(angle_deg)
    return Rect((x, y, 0.0), (length * np.cos(a), length * np.sin(a), 0.0), (0, 0, height))


def _room_rects():
    lx, ly, lz = 10.0, 8.0, 3.0
    rects = [
        Rect((0, 0, 0), (lx, 0, 0), (0, ly, 0)),
        Rect((0, 0, lz), (lx, 0, 0), (0, ly, 0)),
        Rect((0, 0, 0), (0, ly, 0), (0, 0, lz)),
        Rect((lx, 0, 0), (0, ly, 0), (0, 0, lz)),
        Rect((0, 0, 0), (lx, 0, 0), (0, 0, lz)),
        Rect((0, ly, 0), (lx, 0, 0), (0, 0, lz)),
    ]
    rects += _box_sides(2.0, 2.0, 3.0, 3.0, 1.6)
    rects += _box_sides(6.5, 5.0, 7.5, 6.0, 2.2)
    rects.append(_panel(7.0, 1.0, 1.8, 45.0, 2.0))
    return rects


def _room_path(n_frames):
    poses = []
    for k in range(n_frames):
        a = 2.0 * np.pi * k / n_frames
        pos = np.array([5.0 + 2.0 * np.cos(a), 4.0 + 2.0 * np.sin(a), 1.5])
        yaw = a + np.pi / 2.0  # face along the circle tangent
        poses.append(se3.SE3(se3.rot_z(yaw), pos))
    return poses


def _corridor_rects():
    lx, ly, lz = 120.0, 6.0, 4.0
    rects = [
        Rect((0, 0, 0), (lx, 0, 0), (0, ly, 0)),
        Rect((0, 0, lz), (lx, 0, 0), (0, ly, 0)),
        Rect((0, 0, 0), (lx, 0, 0), (0, 0, lz)),
        Rect((0, ly, 0), (lx, 0, 0), (0, 0, lz)),
        Rect((0, 0, 0), (0, ly, 0), (0, 0, lz)),
        Rect((lx, 0, 0), (0, ly, 0), (0, 0, lz)),
    ]
    # feature-rich zones near both ends; oblique panels observe x
    rects += _box_sides(6.0, 1.0, 8.0, 2.2, 2.5)
    rects += _box_sides(14.0, 4.0, 16.0, 5.2, 2.0)
    rects.append(_panel(10.0, 0.8, 1.6, 60.0, 3.0))
    rects.append(_panel(17.5, 3.0, 1.6, -50.0, 3.0))
    rects += _box_sides(102.0, 3.5, 104.0, 4.8, 2.4)
    rects += _box_sides(110.0, 1.0, 112.0, 2.3, 2.1)
    rects.append(_panel(106.0, 4.6, 1.6, -120.0, 3.0))
    rects.append(_panel(113.5, 2.0, 1.6, 45.0, 3.0))
    return rects


def _corridor_path(n_frames):
    xs = np.linspace(10.0, 110.0, n_frames)
    return [se3.SE3(np.eye(3), (x, 3.0, 1.5)) for x in xs]


def _plane_rects():
    return [Rect((-30.0, -30.0, 0.0), (60.0, 0.0, 0.0), (0.0, 60.0, 0.0))]


def _plane_path(n_frames):
    xs = np.linspace(-10.0, 11.0, n_frames)
    return [se3.SE3(np.eye(3), (x, 0.0, 1.8)) for x in xs]


_KINDS = {
    "room": (_room_rects, _room_path, 25.0, 30.0, 12),
    "corridor": (_corridor_rects, _corridor_path, 6.0, 20.0, 26),
    "plane": (_plane_rects, _plane_path, 8.0, 20.0, 8),
}


class SyntheticSequence(Sequence):
    """Deterministic resampled scans along a fixed path through a scene."""

    def __init__(self, rects, poses, density, max_range, noise_sigma, seed):
        self._rects = rects
        self._poses = poses
        self.density = float(density)
        self.max_range = float(max_range)
        self.noise_sigma = float(noise_sigma)
        self.seed = int(seed)
        self._load = functools.lru_cache(maxsize=64)(self._generate)

    def __len__(self):
        return len(self._poses)

    def pose(self, k):
        return self._poses[k]

    def scan(self, k):
        if not 0 <= k < len(self):
            raise IndexError(k)
        return self._load(k)

    def _generate(self, k):
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, k)))
        parts = []
        for rect in self._rects:
            n = int(round(self.density * rect.area()))
            if n > 0:
                parts.append(rect.sample(n, rng))
        world = np.vstack(parts)
        if self.noise_sigma > 0:
            world = world + rng.normal(0.0, self.noise_sigma, world.shape)
        pose = self._poses[k]
        keep = np.linalg.norm(world - pose.t, axis=1) <= self.max_range
        local = se3.inverse(pose).apply(world[keep])
        return PointCloud(local)


@dataclass(frozen=True)
class SequenceSpec:
    """The `[sequence]` settings: a synthetic `scene`, or KITTI-layout scans
    and poses when `kind` is kitti. An unset (None) number takes the
    scene's default."""

    kind: str = "synthetic"
    scene: str = "corridor"
    density: float | None = None
    n_frames: int | None = None
    noise_sigma: float = 0.01
    max_range: float | None = None
    seed: int = 0
    scan_dir: str = ""
    pose_file: str = ""

    def __post_init__(self):
        if self.kind not in ("synthetic", "kitti"):
            raise ConfigError(f"kind must be synthetic or kitti, got {self.kind!r}")
        if self.scene not in _KINDS:
            raise ConfigError(f"scene must be one of {' | '.join(_KINDS)}, got {self.scene!r}")
        require(self, 0, "density", "max_range", strict=True)
        require(self, 1, "n_frames")
        require(self, 0, "noise_sigma", "seed")
        for name in ("scan_dir", "pose_file"):
            if self.kind == "kitti" and not getattr(self, name):
                raise ConfigError(f"{name} must be set for a kitti sequence")

    def open(self) -> Sequence:
        """The sequence these settings describe."""
        if self.kind == "kitti":
            return KittiSequence(self.scan_dir, self.pose_file)
        rects_fn, path_fn, density, max_range, n_frames = _KINDS[self.scene]
        n_frames = n_frames if self.n_frames is None else int(self.n_frames)
        return SyntheticSequence(
            rects_fn(), path_fn(n_frames),
            density if self.density is None else self.density,
            max_range if self.max_range is None else self.max_range,
            self.noise_sigma, self.seed,
        )


def make_synthetic_scene(
    kind: str,
    density: float | None = None,
    seed: int = 0,
    n_frames: int | None = None,
    noise_sigma: float = 0.01,
    max_range: float | None = None,
) -> SyntheticSequence:
    """Build a deterministic synthetic sequence of one of the known kinds."""
    return SequenceSpec(scene=kind, density=density, n_frames=n_frames,
                        noise_sigma=noise_sigma, max_range=max_range, seed=seed).open()
