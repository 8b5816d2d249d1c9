"""Scan descriptor: layout, determinism, rotation behavior."""

import re

import numpy as np
import pytest

from licov import se3
from licov.cloud import PointCloud, transform_cloud
from licov.errors import DataError, NumericError
from licov.features import FEATURE_DIM, extract_features, feature_spec_hash


def random_cloud_with_normals(seed, n=240):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-4, 4, size=(n, 3)) + np.array([0.0, 0.0, 1.0])
    nrm = rng.normal(size=(n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(pts, nrm)


class TestBasics:
    def test_dimension_and_determinism(self):
        cloud = random_cloud_with_normals(0)
        a = extract_features(cloud)
        b = extract_features(cloud)
        assert a.shape == (FEATURE_DIM,)
        assert np.array_equal(a, b)

    def test_empty_cloud_raises(self):
        with pytest.raises(DataError, match="empty cloud"):
            extract_features(PointCloud(np.zeros((0, 3))))

    def test_scalar_slots(self):
        cloud = random_cloud_with_normals(1, n=100)
        f = extract_features(cloud)
        r = np.linalg.norm(cloud.points, axis=1)
        assert f[25] == np.log1p(100)
        assert abs(f[29] - r.mean()) < 1e-12
        assert abs(f[30] - r.var()) < 1e-12
        assert f[31] == r.max()

    def test_shell_fractions_sum_to_one(self):
        f = extract_features(random_cloud_with_normals(2))
        assert abs(f[13:17].sum() - 1.0) < 1e-12

    def test_histogram_normalized(self):
        f = extract_features(random_cloud_with_normals(3))
        assert np.all(f[17:25] >= 0.0)
        assert abs(f[17:25].sum() - 1.0) < 1e-12

    def test_overflowing_ranges_are_a_numeric_error(self):
        # finite points past ~1e154 overflow |p| but not the scatter about
        # their mean; normals are given, so the final finite check raises
        rng = np.random.default_rng(0)
        cloud = PointCloud(1e155 + 1e150 * rng.normal(size=(200, 3)),
                           np.tile([0.0, 0.0, 1.0], (200, 1)))
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite feature"):
            extract_features(cloud)

    def test_small_cloud_without_normals_has_empty_histogram(self):
        f = extract_features(PointCloud(np.eye(3) + 1.0))
        assert np.array_equal(f[17:25], np.zeros(8))

    def test_spec_hash_format(self):
        h = feature_spec_hash()
        assert re.fullmatch(r"[0-9a-f]{16}", h)
        assert h == feature_spec_hash()


class TestRotation:
    def test_eighth_turn_shifts_histogram_only(self):
        cloud = random_cloud_with_normals(4)
        rot = se3.SE3(se3.rot_z(np.pi / 4), np.zeros(3))
        f = extract_features(cloud)
        g = extract_features(transform_cloud(cloud, rot))
        assert np.allclose(g[17:25], np.roll(f[17:25], 1), atol=1e-12)
        others = np.r_[0:17, 25:32]
        assert np.allclose(g[others], f[others], atol=1e-9)

    def test_full_turn_identity(self):
        cloud = random_cloud_with_normals(5)
        rot = se3.SE3(se3.rot_z(2 * np.pi), np.zeros(3))
        f = extract_features(cloud)
        g = extract_features(transform_cloud(cloud, rot))
        assert np.allclose(g, f, atol=1e-9)


class TestShapeDescriptors:
    def test_flat_plane_shells(self):
        rng = np.random.default_rng(6)
        xy = rng.uniform(-3, 3, size=(400, 2))
        pts = np.hstack([xy, np.zeros((400, 1))])
        nrm = np.tile([0.0, 0.0, 1.0], (400, 1))
        f = extract_features(PointCloud(pts, nrm))
        for s in range(4):
            if f[13 + s] * 400 < 3:
                continue
            lin, pla, sph = f[1 + 3 * s : 4 + 3 * s]
            assert sph < 1e-9
            assert abs(lin + pla + sph - 1.0) < 1e-9
            assert pla > 0.5
        # vertical normals carry no azimuth
        assert np.array_equal(f[17:25], np.zeros(8))
        assert f[0] > 0.0

    def test_line_cloud_is_linear(self):
        t = np.linspace(0.1, 5.0, 200)
        pts = np.column_stack([t, 0.2 * t, 0.1 * t + 1.0])
        f = extract_features(PointCloud(pts))
        for s in range(4):
            if f[13 + s] * 200 < 3:
                continue
            lin = f[1 + 3 * s]
            assert lin > 0.99
