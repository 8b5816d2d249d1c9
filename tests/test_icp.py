"""Point-to-plane ICP behavior: convergence, degeneracy, equivariance."""

import numpy as np
import pytest

from licov import se3
from licov.cloud import MapSetup, PointCloud, build_local_map, transform_cloud
from licov.errors import NoCorrespondences
from licov.icp import IcpConfig, icp_point_to_plane, point_to_plane_rmse

XI0 = np.array([0.1, -0.2, 0.05, 0.01, 0.02, -0.03])


@pytest.fixture(scope="module")
def room_map(room_sequence):
    seq = room_sequence
    return build_local_map(seq.scans, seq.poses, 0, MapSetup(1, 1, map_voxel=0.2))


def plane_grid(nx=21, ny=21, spacing=0.2):
    xs = (np.arange(nx) - nx // 2) * spacing
    ys = (np.arange(ny) - ny // 2) * spacing
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(nx * ny)])
    normals = np.tile([0.0, 0.0, 1.0], (nx * ny, 1))
    return PointCloud(pts, normals)


class TestConvergence:
    def test_self_alignment_is_immediate(self, room_map):
        source = PointCloud(room_map.points)
        res = icp_point_to_plane(source, room_map, se3.SE3.identity())
        assert res.converged
        assert res.iterations_used <= 2
        assert np.max(np.abs(res.estimate.matrix() - np.eye(4))) < 1e-8
        assert res.final_rmse < 1e-10

    def test_recovers_known_offset(self, room_map):
        source = transform_cloud(PointCloud(room_map.points), se3.exp(XI0))
        res = icp_point_to_plane(source, room_map, se3.SE3.identity())
        assert res.converged
        got = se3.log(res.estimate)
        assert np.allclose(got[:3], -XI0[:3], atol=1e-4)
        assert np.allclose(got[3:], -XI0[3:], atol=1e-4)

    def test_rmse_not_worse_than_initial(self, room_map):
        source = transform_cloud(PointCloud(room_map.points), se3.exp(XI0))
        cfg = IcpConfig()
        before = point_to_plane_rmse(source, room_map, se3.SE3.identity(), cfg)
        res = icp_point_to_plane(source, room_map, se3.SE3.identity(), cfg)
        assert res.final_rmse <= before

    def test_iteration_budget_respected(self, room_map):
        source = transform_cloud(PointCloud(room_map.points), se3.exp(XI0))
        cfg = IcpConfig(max_iterations=2, translation_eps=1e-12, rotation_eps=1e-12)
        res = icp_point_to_plane(source, room_map, se3.SE3.identity(), cfg)
        assert res.iterations_used == 2
        assert not res.converged


class TestDegeneracy:
    def test_in_plane_offset_preserved(self):
        target = plane_grid()
        source = PointCloud(target.points)
        initial = se3.exp([0.3, 0.2, 0.0, 0, 0, 0])
        res = icp_point_to_plane(source, target, initial)
        assert res.singular
        assert res.condition_number > 1e6
        # the unobservable in-plane offset must come out untouched
        assert np.allclose(res.estimate.t[:2], [0.3, 0.2], atol=1e-9)
        assert abs(res.estimate.t[2]) < 1e-9

    def test_out_of_plane_offset_corrected(self):
        target = plane_grid()
        source = PointCloud(target.points)
        initial = se3.exp([0.3, 0.2, 0.5, 0, 0, 0])
        res = icp_point_to_plane(source, target, initial)
        assert res.converged
        assert np.allclose(res.estimate.t, [0.3, 0.2, 0.0], atol=1e-9)

    def test_null_space_structure(self):
        # with all normals on +z, columns for x shift, y shift and yaw vanish
        target = plane_grid()
        source = PointCloud(target.points)
        res = icp_point_to_plane(source, target, se3.SE3.identity())
        a = res.normal_matrix
        vals, vecs = np.linalg.eigh(a)
        null = vecs[:, vals < 1e-9 * vals[-1]]
        assert null.shape[1] == 3
        for basis_idx in (0, 1, 5):
            e = np.zeros(6)
            e[basis_idx] = 1.0
            # e must lie in the span of the null eigenvectors
            residual = e - null @ (null.T @ e)
            assert np.linalg.norm(residual) < 1e-3

    def test_normal_matrix_shape_and_symmetry(self, room_map):
        source = PointCloud(room_map.points)
        res = icp_point_to_plane(source, room_map, se3.SE3.identity())
        a = res.normal_matrix
        assert a.shape == (6, 6)
        assert np.allclose(a, a.T, atol=1e-9)
        assert np.min(np.linalg.eigvalsh(a)) > -1e-9


class TestEquivariance:
    def test_rotated_problem_gives_rotated_answer(self, room_map):
        g = se3.SE3(se3.rot_z(np.deg2rad(30.0)), np.zeros(3))
        source = transform_cloud(PointCloud(room_map.points), se3.exp(XI0))
        res = icp_point_to_plane(source, room_map, se3.SE3.identity())
        res_g = icp_point_to_plane(source, transform_cloud(room_map, g), g)
        expected = g @ res.estimate
        assert np.allclose(res_g.estimate.matrix(), expected.matrix(), atol=1e-6)


class TestErrors:
    def test_target_without_normals_rejected(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            icp_point_to_plane(cloud, cloud, se3.SE3.identity())

    def test_gate_rejecting_everything(self):
        target = plane_grid()
        source = PointCloud(target.points + np.array([100.0, 0, 0]))
        cfg = IcpConfig(max_correspondence_distance=0.5)
        with pytest.raises(NoCorrespondences):
            icp_point_to_plane(source, target, se3.SE3.identity(), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IcpConfig(max_iterations=0)
        with pytest.raises(ValueError):
            IcpConfig(translation_eps=0.0)
        with pytest.raises(ValueError):
            IcpConfig(rotation_eps=-1.0)
        with pytest.raises(ValueError):
            IcpConfig(max_correspondence_distance=0.0)
