"""Point-cloud I/O, voxel filtering, normals, neighbor search, local maps."""

import gc
import pickle
import re
import struct
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from licov import cloud, se3
from licov.cloud import (
    MapSetup,
    NeighborIndex,
    PointCloud,
    build_local_map,
    estimate_normals,
    load_kitti_poses,
    load_kitti_scan,
    save_kitti_poses,
    save_kitti_scan,
    transform_cloud,
    voxel_downsample,
)
from licov.errors import ConfigError, DataError
from licov.features import extract_features
from licov.sequences import InMemorySequence, KittiSequence, parse_frames

from conftest import random_pose


class TestScanIO:
    def test_two_record_fixture(self, tmp_path):
        path = tmp_path / "scan.bin"
        path.write_bytes(struct.pack("<8f", 1, 2, 3, 0.5, 4, 5, 6, 0.1))
        cloud = load_kitti_scan(path)
        assert np.array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])
        assert cloud.normals is None

    def test_empty_file_gives_empty_cloud(self, tmp_path):
        path = tmp_path / "scan.bin"
        path.write_bytes(b"")
        assert len(load_kitti_scan(path)) == 0

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "scan.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(DataError, match="size 17 is not a multiple of 16"):
            load_kitti_scan(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "scan.bin"
        path.write_bytes(struct.pack("<4f", 1, float("nan"), 3, 0))
        with pytest.raises(DataError, match="non-finite coordinates"):
            load_kitti_scan(path)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3)).astype(np.float32).astype(float)
        path = tmp_path / "scan.bin"
        save_kitti_scan(path, PointCloud(pts))
        assert np.array_equal(load_kitti_scan(path).points, pts)


class TestPoseIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        poses = [random_pose(rng) for _ in range(5)]
        path = tmp_path / "poses.txt"
        save_kitti_poses(path, poses)
        again = load_kitti_poses(path)
        assert len(again) == 5
        for a, b in zip(poses, again):
            assert np.array_equal(a.matrix(), b.matrix())

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1\n")
        with pytest.raises(DataError, match=":1: expected 12 values, got 11"):
            load_kitti_poses(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("\n1 0 0 0 0 1 0 0 0 0 1 0\n\n")
        assert len(load_kitti_poses(path)) == 1

    @pytest.mark.parametrize("text", [
        "2 0 0 0 0 1 0 0 0 0 1 0",
        "-1 0 0 0 0 1 0 0 0 0 1 0",
        "1 0 0 0 0 1 0 0 0 0 1 nan",
    ], ids=["not_orthonormal", "reflection", "non_finite"])
    def test_bad_transform_is_a_data_error_at_its_line(self, tmp_path, text):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n\n" + text + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: "):
            load_kitti_poses(path)


def reference_voxel_downsample(pts, voxel_size):
    """The row-key voxel filter: np.unique over the (N, 3) integer keys,
    centroid sums by np.add.at. voxel_downsample must match it bit for bit."""
    keys = np.floor(pts / voxel_size).astype(np.int64)
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    sums = np.zeros((uniq.shape[0], 3))
    np.add.at(sums, inv, pts)
    counts = np.bincount(inv, minlength=uniq.shape[0]).astype(float)
    return sums / counts[:, None]


# Spans of a grid with exactly 2**63 - 1 cells (7^2 * 73 * 127, 337 * 92737,
# 649657): the largest the packed key can hold.
_MAX_GRID = (454279, 31252369, 649657)


class TestVoxelDownsample:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_row_key_reference(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(np.exp(rng.uniform(0.0, np.log(20000.0))))
        voxel = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        offset = rng.uniform(-500.0, 500.0, size=3)
        spread = voxel * np.exp(rng.uniform(np.log(0.3), np.log(20.0), size=3))
        pts = offset + rng.normal(size=(n, 3)) * spread
        if seed % 4 == 0:
            # points on voxel faces, where floor() decides the key
            pts = np.round(pts / (0.5 * voxel)) * (0.5 * voxel)
        out = voxel_downsample(PointCloud(pts), voxel)
        assert out.points.tobytes() == reference_voxel_downsample(pts, voxel).tobytes()

    def test_largest_packable_grid(self):
        far = np.array(_MAX_GRID, dtype=float) - 0.5
        pts = np.array([[0.5, 0.5, 0.5], far, far, [0.5, 0.5, 0.7]])
        out = voxel_downsample(PointCloud(pts), 1.0)
        assert out.points.tobytes() == reference_voxel_downsample(pts, 1.0).tobytes()

    def test_grid_over_int64_cells_rejected(self):
        nx, ny, nz = _MAX_GRID
        far = [nx - 0.5, ny - 0.5, nz + 0.5]  # one more z layer: 2**63 - 1 + nx * ny cells
        with pytest.raises(DataError, match=r"cells, over 2\*\*63 - 1"):
            voxel_downsample(PointCloud([[0.5, 0.5, 0.5], far]), 1.0)
        with pytest.raises(DataError, match=r"cells, over 2\*\*63 - 1"):
            voxel_downsample(PointCloud([[-1e7, 0.0, 0.0], [1e7, 1e7, 1e7]]), 1e-5)

    def test_keys_past_int64_are_a_data_error(self):
        # -2**63 is the lowest int64 key and passes; 2**63 is one past the top
        edge = voxel_downsample(PointCloud([[-2.0**63, 0.0, 0.0]]), 1.0)
        assert edge.points.tolist() == [[-2.0**63, 0.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pts, voxel in (([[2.0**63, 0.0, 0.0]], 1.0), ([[0.0, 0.0, 1e300]], 1e-10)):
                with pytest.raises(DataError, match="voxel keys past the int64 range"):
                    voxel_downsample(PointCloud(pts), voxel)

    def test_two_points_one_voxel_centroid(self):
        cloud = PointCloud([[0.1, 0, 0], [0.3, 0, 0]])
        out = voxel_downsample(cloud, 1.0)
        assert np.allclose(out.points, [[0.2, 0, 0]])

    def test_separate_voxels_kept(self):
        cloud = PointCloud([[0.1, 0, 0], [1.3, 0, 0]])
        out = voxel_downsample(cloud, 1.0)
        assert out.points.shape == (2, 3)

    def test_order_independent(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-5, 5, size=(300, 3))
        a = voxel_downsample(PointCloud(pts), 0.7)
        b = voxel_downsample(PointCloud(pts[::-1]), 0.7)
        assert np.allclose(a.points, b.points, atol=1e-12)

    def test_each_centroid_inside_its_voxel(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-4, 4, size=(500, 3))
        out = voxel_downsample(PointCloud(pts), 0.5)
        keys = np.floor(out.points / 0.5)
        assert np.all(out.points >= keys * 0.5 - 1e-12)
        assert np.all(out.points <= (keys + 1) * 0.5 + 1e-12)

    def test_count_never_grows(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-2, 2, size=(200, 3))
        out = voxel_downsample(PointCloud(pts), 0.4)
        assert len(out) <= 200

    def test_invalid_sizes(self):
        cloud = PointCloud([[0, 0, 0]])
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="voxel_size must be positive"):
                voxel_downsample(cloud, bad)

    def test_empty_cloud_passthrough(self):
        out = voxel_downsample(PointCloud(np.zeros((0, 3))), 1.0)
        assert len(out) == 0

    def test_normals_dropped(self):
        cloud = PointCloud([[0, 0, 1.0]], normals=[[0, 0, 1.0]])
        assert voxel_downsample(cloud, 1.0).normals is None


def reference_normals(pts, k):
    """Normals by batched LAPACK eigh of the (n, 3, 3) neighborhood
    scatter, flipped toward the origin."""
    _, idx = cKDTree(pts).query(pts, k=k + 1)
    neigh = pts[idx]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    normals = np.linalg.eigh(np.einsum("nij,nik->njk", centered, centered))[1][:, :, 0]
    normals[np.einsum("ij,ij->i", normals, -pts) < 0.0] *= -1.0
    return normals


@pytest.fixture(scope="module")
def corridor_scans(corridor_sequence):
    setup = MapSetup(scan_voxel=0.2)
    return [setup.scan(corridor_sequence, k).points for k in range(0, len(corridor_sequence), 5)]


class TestNormals:
    def test_flat_plane_z0(self):
        rng = np.random.default_rng(5)
        xy = rng.uniform(-1, 1, size=(80, 2))
        pts = np.hstack([xy, np.zeros((80, 1))])
        out = estimate_normals(PointCloud(pts), k=10)
        # orientation is degenerate for a plane through the origin, so only
        # check the axis
        assert np.all(np.abs(out.normals[:, 2]) > 1.0 - 1e-6)
        assert np.allclose(out.normals[:, :2], 0.0, atol=1e-6)

    def test_offset_plane_oriented_toward_origin(self):
        # plane x + y + z = 10; the sensor at the origin sees the -(1,1,1)
        # side, so every normal must be -(1,1,1)/sqrt(3)
        rng = np.random.default_rng(6)
        a = rng.uniform(-1, 1, size=(60, 1))
        b = rng.uniform(-1, 1, size=(60, 1))
        e1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        e2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
        base = np.array([10.0, 0.0, 0.0])
        pts = base + a * e1 + b * e2
        out = estimate_normals(PointCloud(pts), k=8)
        expected = -np.ones(3) / np.sqrt(3)
        assert np.allclose(out.normals, expected, atol=1e-6)

    def test_unit_length(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(50, 3))
        out = estimate_normals(PointCloud(pts), k=5)
        assert np.allclose(np.linalg.norm(out.normals, axis=1), 1.0, atol=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DataError, match="need at least 4 points, have 3"):
            estimate_normals(PointCloud(np.eye(3)), k=3)

    # neighbourhoods 1e150 wide overflow the closed form; 1e160 apart, the
    # k-d tree's distances overflow and it reports neighbours as missing
    @pytest.mark.parametrize("offset, spread", [(1e155, 1e150), (0.0, 1e160)])
    def test_overflowing_scatter_is_a_data_error(self, offset, spread):
        pts = offset + spread * np.random.default_rng(0).normal(size=(200, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="overflow the normals' scatter"):
                estimate_normals(PointCloud(pts))

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            estimate_normals(PointCloud(np.eye(3)), k=2)

    # A = Q diag(lams) Q^T for random rotations Q, and Gaussian scatters
    # with columns scaled over eight decades
    @seed(20261019)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lams=st.lists(st.floats(0.0, 1e3), min_size=3, max_size=3),
           stack_seed=st.integers(0, 2**32 - 1))
    def test_closed_form_matches_eigh(self, lams, stack_seed):
        rng = np.random.default_rng(stack_seed)
        q, _ = np.linalg.qr(rng.normal(size=(64, 3, 3)))
        g = rng.normal(size=(64, 3, 4)) * 10.0 ** rng.uniform(-6.0, 2.0, size=(64, 1, 4))
        a = np.concatenate([q @ (np.array(lams)[:, None] * q.transpose(0, 2, 1)),
                            g @ g.transpose(0, 2, 1)])
        a = 0.5 * (a + a.transpose(0, 2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vecs = cloud._smallest_eigenvectors(a[:, 0, 0], a[:, 1, 1], a[:, 2, 2],
                                                a[:, 0, 1], a[:, 0, 2], a[:, 1, 2])
        assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0, rtol=0, atol=1e-12)
        lam, ref = np.linalg.eigh(a)
        sin = np.linalg.norm(np.cross(vecs, ref[:, :, 0]), axis=1)
        scaled = lam[:, 2] > 0.0
        relgap = (lam[scaled, 1] - lam[scaled, 0]) / lam[scaled, 2]
        assert np.all(sin[scaled] * relgap <= 1e-12)

    @pytest.mark.parametrize("pts", [
        np.c_[np.mgrid[0:4, 0:4].reshape(2, -1).T * 0.5, np.full(16, 2.0)],
        np.outer(np.arange(12.0), [0.3, -0.2, 0.1]) + [1.0, 2.0, 3.0],
        np.vstack([np.eye(3), -np.eye(3)]),
        np.full((12, 3), 1.5),
        np.repeat(np.c_[np.mgrid[0:3, 0:3].reshape(2, -1).T, np.zeros(9)], 2, axis=0),
    ], ids=["plane", "collinear", "axes", "one_point", "doubled_plane"])
    def test_degenerate_neighborhoods_give_unit_normals(self, pts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = estimate_normals(PointCloud(pts), k=5)
        assert np.allclose(np.linalg.norm(out.normals, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_tree_order_query_matches_plain_query(self, corridor_scans):
        for pts in corridor_scans:
            assert np.array_equal(cloud._knn_in_tree_order(pts, 11),
                                  cKDTree(pts).query(pts, k=11)[1])

    def test_scan_normals_and_features_match_eigh(self, corridor_scans):
        for pts in corridor_scans:
            ref = reference_normals(pts, 10)
            new = estimate_normals(PointCloud(pts), k=10).normals
            assert np.einsum("ij,ij->i", ref, new).min() > 0.0
            assert np.linalg.norm(np.cross(ref, new), axis=1).max() < 1e-10
            assert np.allclose(extract_features(PointCloud(pts, ref)),
                               extract_features(PointCloud(pts)), rtol=0, atol=1e-12)


class TestNeighborIndex:
    def test_basic_query(self):
        index = NeighborIndex(PointCloud([[0, 0, 0], [3, 3, 3]]))
        dist, idx = index.query_batch([[1, 1, 1]])
        assert idx[0] == 0
        assert abs(dist[0] - np.sqrt(3)) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            pts = rng.normal(size=(40, 3))
            index = NeighborIndex(PointCloud(pts))
            q = rng.normal(size=3)
            d = np.linalg.norm(pts - q, axis=1)
            dist, idx = index.query_batch(q[None, :])
            assert idx[0] == int(np.argmin(d))
            assert abs(dist[0] - d.min()) < 1e-12

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(60, 3))
        index = NeighborIndex(PointCloud(pts))
        queries = rng.normal(size=(15, 3))
        dists, ids = index.query_batch(queries)
        brute = np.linalg.norm(queries[:, None, :] - pts[None, :, :], axis=2)
        assert np.array_equal(ids, brute.argmin(axis=1))
        assert np.allclose(dists, brute.min(axis=1), rtol=0, atol=1e-12)

    def test_two_nearest_are_sorted_and_lead_with_the_nearest(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(60, 3))
        index = NeighborIndex(PointCloud(pts))
        queries = rng.normal(size=(15, 3))
        dists, ids = index.query_batch(queries, k=2)
        brute = np.linalg.norm(queries[:, None, :] - pts[None, :, :], axis=2)
        assert dists.shape == ids.shape == (15, 2)
        assert np.array_equal(ids, np.argsort(brute, axis=1)[:, :2])
        assert np.array_equal(dists[:, 0], index.query_batch(queries)[0])

    def test_pickle_round_trip_answers_alike(self):
        # fuse ships prepared indexes to its worker processes
        rng = np.random.default_rng(11)
        index = NeighborIndex(estimate_normals(PointCloud(rng.normal(size=(300, 3))), 10))
        copy = pickle.loads(pickle.dumps(index))
        assert copy.cloud.points.tobytes() == index.cloud.points.tobytes()
        assert copy.cloud.normals.tobytes() == index.cloud.normals.tobytes()
        queries = rng.normal(size=(500, 3))
        for k in (1, 2):
            for a, b in zip(copy.query_batch(queries, k), index.query_batch(queries, k)):
                assert a.tobytes() == b.tobytes()

    def test_empty_index_raises(self):
        index = NeighborIndex(PointCloud(np.zeros((0, 3))))
        with pytest.raises(DataError, match="query against an empty index"):
            index.query_batch(np.zeros((1, 3)))


class TestTransform:
    def test_identity(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(30, 3))
        out = transform_cloud(PointCloud(pts), se3.SE3.identity())
        assert np.array_equal(out.points, pts)

    def test_translation_only(self):
        out = transform_cloud(
            PointCloud([[1, 1, 1]]), se3.exp([0.5, -0.5, 2.0, 0, 0, 0])
        )
        assert np.allclose(out.points, [[1.5, 0.5, 3.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(40, 3))
        t = random_pose(rng)
        out = transform_cloud(transform_cloud(PointCloud(pts), t), se3.inverse(t))
        assert np.allclose(out.points, pts, atol=1e-10)

    def test_rigidity(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(20, 3))
        t = random_pose(rng)
        out = transform_cloud(PointCloud(pts), t).points
        d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
        assert np.allclose(d_in, d_out, atol=1e-9)

    def test_normals_rotated_not_translated(self):
        cloud = PointCloud([[0, 0, 5.0]], normals=[[0, 0, 1.0]])
        t = se3.SE3(se3.rot_z(np.pi / 2), np.array([100.0, 0, 0]))
        out = transform_cloud(cloud, t)
        assert np.allclose(out.normals, [[0, 0, 1.0]], atol=1e-12)


class TestLocalMap:
    def test_two_scans_merge_to_one_voxel(self):
        scans = [PointCloud([[0.1, 0, 0]]), PointCloud([[0.2, 0, 0]])]
        poses = [se3.SE3.identity(), se3.exp([0.5, 0, 0, 0, 0, 0])]
        out = build_local_map(scans, poses, 0, MapSetup(5, 5, map_voxel=10.0))
        # centroid of (0.1, 0, 0) and (0.7, 0, 0)
        assert np.allclose(out.points, [[0.4, 0, 0]])
        assert out.normals is None

    def test_window_clamped_to_sequence(self):
        scans = [PointCloud([[float(i), 0, 0]]) for i in range(100)]
        poses = [se3.SE3.identity()] * 100
        out = build_local_map(scans, poses, 5, MapSetup(20, 10, map_voxel=1e-3))
        xs = np.sort(out.points[:, 0])
        assert np.array_equal(xs, np.arange(16.0))

    def test_scans_moved_by_poses(self):
        scans = [PointCloud([[0, 0, 0]]), PointCloud([[0, 0, 0]])]
        poses = [se3.SE3.identity(), se3.exp([4.0, 0, 0, 0, 0, 0])]
        out = build_local_map(scans, poses, 0, MapSetup(0, 1, map_voxel=0.5))
        xs = np.sort(out.points[:, 0])
        assert np.allclose(xs, [0.0, 4.0])

    def test_normals_present_on_big_maps(self, room_sequence):
        seq = room_sequence
        out = build_local_map(
            seq.scans, seq.poses, 0, MapSetup(2, 2, map_voxel=0.2)
        )
        assert out.normals is not None
        assert len(out) > 100

    def test_window_zero_is_single_frame(self):
        scans = [PointCloud([[float(i), 0, 0]]) for i in range(3)]
        poses = [se3.SE3.identity()] * 3
        out = build_local_map(scans, poses, 1, MapSetup(0, 0, map_voxel=1e-3))
        assert np.allclose(out.points, [[1.0, 0, 0]])

    def test_empty_sequence(self):
        with pytest.raises(DataError, match="no scans available"):
            build_local_map([], [], 0, MapSetup())

    def test_overflowing_normals_name_the_frame(self):
        scans = [PointCloud(1e155 + 1e150 * np.random.default_rng(1).normal(size=(50, 3)))]
        with pytest.raises(DataError, match=r"^frame 0: coordinates up to 1e\+155 overflow"):
            build_local_map(scans, [se3.SE3.identity()], 0, MapSetup(0, 0, map_voxel=1e148))

    def test_frame_out_of_range(self):
        scans = [PointCloud([[0, 0, 0]])]
        with pytest.raises(DataError, match="frame 3 outside sequence of length 1"):
            build_local_map(scans, [se3.SE3.identity()], 3, MapSetup())


class TestMapSetup:
    def test_negative_window_rejected(self):
        for bounds in ({"window_before": -1}, {"window_after": -1}):
            with pytest.raises(ValueError, match=f"^{next(iter(bounds))} "):
                MapSetup(**bounds)

    @pytest.mark.parametrize("key,value", [
        ("normal_k", 2), ("normal_k", -1), ("map_voxel", 0.0), ("map_voxel", -1.0),
        ("map_voxel", np.nan), ("scan_voxel", 0.0), ("scan_voxel", np.inf),
    ])
    def test_normal_k_and_voxels_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} "):
            MapSetup(**{key: value})
        assert MapSetup(normal_k=3, map_voxel=1e-3, scan_voxel=1e-3).normal_k == 3

    def test_frame_is_filtered_scan_and_local_map(self, room_sequence):
        seq = room_sequence
        setup = MapSetup(1, 1, map_voxel=0.4, scan_voxel=0.3, normal_k=6)
        scan, index = setup.frame(seq, 1)
        assert isinstance(index, NeighborIndex)
        local_map = index.cloud
        assert np.array_equal(scan.points, voxel_downsample(seq.scan(1), 0.3).points)
        assert np.array_equal(setup.scan(seq, 1).points, scan.points)
        merged = np.vstack([transform_cloud(seq.scan(i), seq.pose(i)).points for i in range(3)])
        expected = estimate_normals(voxel_downsample(PointCloud(merged), 0.4), k=6)
        assert np.array_equal(local_map.points, expected.points)
        assert np.array_equal(local_map.normals, expected.normals)


class TestSequences:
    def test_kitti_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        scan_dir = tmp_path / "scans"
        scan_dir.mkdir()
        clouds = []
        for i in range(3):
            pts = rng.normal(size=(10, 3)).astype(np.float32).astype(float)
            clouds.append(pts)
            save_kitti_scan(scan_dir / f"{i:06d}.bin", PointCloud(pts))
        poses = [random_pose(rng) for _ in range(3)]
        save_kitti_poses(tmp_path / "poses.txt", poses)
        seq = KittiSequence(scan_dir, tmp_path / "poses.txt")
        assert len(seq) == 3
        for i in range(3):
            assert np.array_equal(seq.scan(i).points, clouds[i])
            assert np.array_equal(seq.pose(i).matrix(), poses[i].matrix())

    def test_kitti_scan_cache_does_not_keep_the_sequence(self, tmp_path):
        scan_dir = tmp_path / "scans"
        scan_dir.mkdir()
        save_kitti_scan(scan_dir / "000000.bin", PointCloud([[1.0, 2.0, 3.0]]))
        save_kitti_poses(tmp_path / "poses.txt", [se3.SE3.identity()])
        seq = KittiSequence(scan_dir, tmp_path / "poses.txt")
        assert seq.scan(0) is seq.scan(0)
        ref = weakref.ref(seq)
        del seq
        gc.collect()
        assert ref() is None

    def test_missing_scan_dir(self, tmp_path):
        with pytest.raises(DataError, match="scan directory not found"):
            KittiSequence(tmp_path / "nope", tmp_path / "poses.txt")

    def test_no_scans(self, tmp_path):
        (tmp_path / "scans").mkdir()
        with pytest.raises(DataError, match=r"no \.bin scans in"):
            KittiSequence(tmp_path / "scans", tmp_path / "poses.txt")

    def test_fewer_poses_than_scans(self, tmp_path):
        scan_dir = tmp_path / "scans"
        scan_dir.mkdir()
        save_kitti_scan(scan_dir / "000000.bin", PointCloud([[0, 0, 0]]))
        save_kitti_scan(scan_dir / "000001.bin", PointCloud([[1, 0, 0]]))
        save_kitti_poses(tmp_path / "poses.txt", [se3.SE3.identity()])
        with pytest.raises(DataError, match="1 poses for 2 scans"):
            KittiSequence(scan_dir, tmp_path / "poses.txt")

    def test_in_memory_sequence(self):
        seq = InMemorySequence([PointCloud([[0, 0, 0]])], [se3.SE3.identity()])
        assert len(seq) == 1
        assert len(seq.scans) == 1
        with pytest.raises(IndexError):
            seq.scans[1]

    def test_parse_frames(self):
        assert parse_frames("all", 4) == [0, 1, 2, 3]
        assert parse_frames("", 3) == [0, 1, 2]
        assert parse_frames("1:3", 10) == [1, 2]
        assert parse_frames("5:100", 8) == [5, 6, 7]
        assert parse_frames(":2", 8) == [0, 1]
        assert parse_frames("0,2,5", 6) == [0, 2, 5]
        assert parse_frames("3,1,3", 6) == [1, 3]
        with pytest.raises(ValueError):
            parse_frames("0,9", 6)

    @pytest.mark.parametrize("expr", ["3:1", "0:0", "8:", "0,8", "-1", "x"])
    def test_parse_frames_rejects_naming_the_key(self, expr):
        with pytest.raises(ConfigError, match="^fusion.frames "):
            parse_frames(expr, 8, "fusion.frames")


class TestPointCloudValidation:
    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            PointCloud([[0, 0, float("inf")]])

    def test_normals_validated(self):
        with pytest.raises(ValueError):
            PointCloud([[0, 0, 0]], normals=[[0, 0, 2.0]])
        with pytest.raises(ValueError):
            PointCloud([[0, 0, 0]], normals=[[0, 0, 1], [0, 0, 1]])

    def test_immutable(self):
        cloud = PointCloud([[1.0, 2, 3]])
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 9.0
        with pytest.raises(AttributeError):
            cloud.points = np.zeros((1, 3))

    @pytest.mark.parametrize("normals", [None, [[0.0, 0.0, 1.0], [0.6, 0.8, 0.0]]])
    def test_pickle_round_trip(self, normals):
        cloud = PointCloud([[1.0, 2.0, 3.0], [0.1, -1e-300, 5e300]], normals)
        copy = pickle.loads(pickle.dumps(cloud))
        assert copy.points.tobytes() == cloud.points.tobytes()
        assert (copy.normals is None) == (normals is None)
        if normals is not None:
            assert copy.normals.tobytes() == cloud.normals.tobytes()
        with pytest.raises(ValueError):
            copy.points[0, 0] = 9.0
        with pytest.raises(AttributeError, match="immutable"):
            copy.points = np.zeros((2, 3))
