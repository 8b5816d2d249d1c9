"""Point-to-plane ICP behavior: convergence, degeneracy, equivariance, and
the cached correspondences' exactness against a full query per iteration."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from licov import icp, se3
from licov.cloud import MapSetup, NeighborIndex, PointCloud, build_local_map, transform_cloud
from licov.errors import NoCorrespondences
from licov.icp import (
    _RANK_TOL, _ROUNDING, IcpConfig, IcpResult, _Matcher, icp_point_to_plane,
)

XI0 = np.array([0.1, -0.2, 0.05, 0.01, 0.02, -0.03])
# Prior spreads (x, y, z in m; roll, pitch, yaw in rad) like those of the
# labels (1 m, 1 deg) and of fuse's odometry (2 cm, 0.2 deg).
LABEL_PRIOR = np.r_[1.0, 1.0, 1.0, np.deg2rad([1.0, 1.0, 1.0])]
FUSE_PRIOR = np.r_[0.02, 0.02, 0.02, np.deg2rad([0.2, 0.2, 0.2])]
SETUP = MapSetup(1, 1, scan_voxel=0.2)


def ref_icp(source, target, initial, config=IcpConfig(), index=None):
    """Point-to-plane ICP with a full nearest-neighbour query in every
    iteration: the answer the cache must reproduce."""
    index = NeighborIndex(target) if index is None else index
    gate = config.max_correspondence_distance
    src, tgt, nrm = source.points, target.points, target.normals
    estimate, converged, singular = initial, False, False
    for iterations in range(1, config.max_iterations + 1):
        p = estimate.apply(src)
        d, j = index.query_batch(p)
        mask = d <= gate
        if not mask.any():
            raise NoCorrespondences("correspondence gate rejected every candidate pair")
        pm, j = p[mask], j[mask]
        n = nrm[j]
        r = np.einsum("ij,ij->i", pm - tgt[j], n)
        jac = np.hstack([n, np.cross(pm, n)])
        A = jac.T @ jac
        b = -(jac.T @ r)
        eig = np.linalg.eigvalsh(A)
        if eig[0] < _RANK_TOL * max(eig[-1], np.finfo(float).tiny):
            singular = True
            delta = np.linalg.pinv(A, rcond=_RANK_TOL) @ b
        else:
            delta = np.linalg.solve(A, b)
        estimate = se3.exp(delta) @ estimate
        if (np.linalg.norm(delta[:3]) < config.translation_eps
                and np.linalg.norm(delta[3:]) < config.rotation_eps):
            converged = True
            break
    return IcpResult(estimate, converged, iterations, singular)


def full_query_rmse(source, index, estimate, config):
    """Gated point-to-plane RMSE at a fixed estimate, from one full query."""
    target = index.cloud
    p = estimate.apply(source.points)
    d, j = index.query_batch(p)
    mask = d <= config.max_correspondence_distance
    j = j[mask]
    r = np.einsum("ij,ij->i", p[mask] - target.points[j], target.normals[j])
    return float(np.sqrt(np.mean(r**2)))


def result_bytes(res: IcpResult):
    return res.estimate.matrix().tobytes(), res.iterations_used, res.converged, res.singular


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
        index = NeighborIndex(room_map)
        res = icp_point_to_plane(source, index, se3.SE3.identity())
        assert res.converged
        assert res.iterations_used <= 2
        assert np.max(np.abs(res.estimate.matrix() - np.eye(4))) < 1e-8
        assert full_query_rmse(source, index, res.estimate, IcpConfig()) < 1e-10

    def test_recovers_known_offset(self, room_map):
        source = transform_cloud(PointCloud(room_map.points), se3.exp(XI0))
        res = icp_point_to_plane(source, NeighborIndex(room_map), se3.SE3.identity())
        assert res.converged
        got = se3.log(res.estimate)
        assert np.allclose(got[:3], -XI0[:3], atol=1e-4)
        assert np.allclose(got[3:], -XI0[3:], atol=1e-4)

    def test_rmse_not_worse_than_initial(self, room_map):
        source = transform_cloud(PointCloud(room_map.points), se3.exp(XI0))
        cfg = IcpConfig()
        index = NeighborIndex(room_map)
        before = full_query_rmse(source, index, se3.SE3.identity(), cfg)
        res = icp_point_to_plane(source, index, se3.SE3.identity(), cfg)
        assert full_query_rmse(source, index, res.estimate, cfg) <= before

    def test_iteration_budget_respected(self, room_map):
        source = transform_cloud(PointCloud(room_map.points), se3.exp(XI0))
        cfg = IcpConfig(max_iterations=2, translation_eps=1e-12, rotation_eps=1e-12)
        res = icp_point_to_plane(source, NeighborIndex(room_map), se3.SE3.identity(), cfg)
        assert res.iterations_used == 2
        assert not res.converged

    @pytest.mark.parametrize("max_iterations, converged", [(30, True), (2, False)])
    def test_one_match_per_iteration(self, room_map, monkeypatch, max_iterations, converged):
        calls = []
        call = _Matcher.__call__

        def spy(self, p):
            calls.append(len(p))
            return call(self, p)

        monkeypatch.setattr(_Matcher, "__call__", spy)
        source = transform_cloud(PointCloud(room_map.points), se3.exp(XI0))
        eps = 1e-4 if converged else 1e-12
        cfg = IcpConfig(max_iterations=max_iterations, translation_eps=eps, rotation_eps=eps)
        res = icp_point_to_plane(source, NeighborIndex(room_map), se3.SE3.identity(), cfg)
        assert res.converged == converged
        assert len(calls) == res.iterations_used


class TestDegeneracy:
    def test_in_plane_offset_preserved(self):
        # every normal is on +z, so x shift, y shift and yaw are unobservable
        # and must come out untouched
        target = plane_grid()
        source = PointCloud(target.points)
        initial = se3.SE3(se3.rot_z(0.1), [0.3, 0.2, 0.0])
        res = icp_point_to_plane(source, NeighborIndex(target), initial)
        assert res.singular
        assert np.allclose(res.estimate.t[:2], [0.3, 0.2], atol=1e-9)
        assert abs(res.estimate.t[2]) < 1e-9
        assert np.allclose(res.estimate.R, se3.rot_z(0.1), atol=1e-9)

    def test_out_of_plane_offset_corrected(self):
        target = plane_grid()
        source = PointCloud(target.points)
        initial = se3.exp([0.3, 0.2, 0.5, 0, 0, 0])
        res = icp_point_to_plane(source, NeighborIndex(target), initial)
        assert res.converged
        assert np.allclose(res.estimate.t, [0.3, 0.2, 0.0], atol=1e-9)


class TestEquivariance:
    def test_rotated_problem_gives_rotated_answer(self, room_map):
        g = se3.SE3(se3.rot_z(np.deg2rad(30.0)), np.zeros(3))
        source = transform_cloud(PointCloud(room_map.points), se3.exp(XI0))
        res = icp_point_to_plane(source, NeighborIndex(room_map), se3.SE3.identity())
        res_g = icp_point_to_plane(source, NeighborIndex(transform_cloud(room_map, g)), g)
        expected = g @ res.estimate
        assert np.allclose(res_g.estimate.matrix(), expected.matrix(), atol=1e-6)


class TestErrors:
    def test_target_without_normals_rejected(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            icp_point_to_plane(cloud, NeighborIndex(cloud), se3.SE3.identity())

    def test_gate_rejecting_everything(self):
        target = plane_grid()
        source = PointCloud(target.points + np.array([100.0, 0, 0]))
        cfg = IcpConfig(max_correspondence_distance=0.5)
        with pytest.raises(NoCorrespondences):
            icp_point_to_plane(source, NeighborIndex(target), se3.SE3.identity(), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IcpConfig(max_iterations=0)
        with pytest.raises(ValueError):
            IcpConfig(translation_eps=0.0)
        with pytest.raises(ValueError):
            IcpConfig(rotation_eps=-1.0)
        with pytest.raises(ValueError):
            IcpConfig(max_correspondence_distance=0.0)


@pytest.fixture(scope="module")
def frames(corridor_sequence, room_sequence):
    """(scan, map, index, true pose) of corridor frames 2 and 12, room frame 5."""
    out = {}
    for name, seq, k in (("corridor", corridor_sequence, 2), ("corridor", corridor_sequence, 12),
                         ("room", room_sequence, 5)):
        scan, index = SETUP.frame(seq, k)
        out[name, k] = (scan, index.cloud, index, seq.pose(k))
    return out


class TestCachedCorrespondences:
    @pytest.mark.parametrize("frame", [("corridor", 2), ("corridor", 12), ("room", 5)],
                             ids=["corridor2", "corridor12", "room5"])
    @pytest.mark.parametrize("prior", ["label", "fuse"])
    def test_icp_is_byte_identical_to_full_queries(self, frames, frame, prior):
        scan, local_map, index, pose = frames[frame]
        sigma = LABEL_PRIOR if prior == "label" else FUSE_PRIOR
        rng = np.random.default_rng([frame[1], len(prior)])
        for run in range(3):
            start = se3.exp(rng.normal(size=6) * sigma) @ pose
            got = icp_point_to_plane(scan, index, start)
            want = ref_icp(scan, local_map, start, index=index)
            assert result_bytes(got) == result_bytes(want)

    def test_points_beyond_the_gate(self, room_map, monkeypatch):
        # far points fail the gate in every iteration; without them a few
        # points start beyond it and all pass once ICP closes in, so the
        # masked and the all-pass path of _residuals both run
        cfg = IcpConfig(max_correspondence_distance=0.5)
        all_pass = []
        residuals = icp._residuals

        def spy(p, d, *rest):
            all_pass.append(bool((d <= cfg.max_correspondence_distance).all()))
            return residuals(p, d, *rest)

        monkeypatch.setattr(icp, "_residuals", spy)
        far = room_map.points[::7] + np.array([0.0, 0.0, 50.0])
        for points, paths in ((np.vstack([room_map.points, far]), {False}),
                              (room_map.points, {False, True})):
            source = transform_cloud(PointCloud(points), se3.exp(XI0))
            all_pass.clear()
            got = icp_point_to_plane(source, NeighborIndex(room_map), se3.SE3.identity(), cfg)
            want = ref_icp(source, room_map, se3.SE3.identity(), cfg)
            assert result_bytes(got) == result_bytes(want)
            assert set(all_pass) == paths

    def test_lattice_with_exact_ties(self):
        # points half a cell off a unit grid are equidistant to 2 or 4 map
        # points, and k = 2 lists such ties in another order than k = 1;
        # tilted normals make the residual depend on which one is taken
        grid = plane_grid(spacing=1.0).points
        tilt = np.random.default_rng(2).normal(scale=0.2, size=grid.shape) + [0.0, 0.0, 1.0]
        target = PointCloud(grid, tilt / np.linalg.norm(tilt, axis=1, keepdims=True))
        source = PointCloud(grid[::3] + [0.5, 0.5, 0.25])
        for initial in (se3.SE3.identity(), se3.exp([0.5, 0.0, 0.3, 0, 0, 0.01])):
            got = icp_point_to_plane(source, NeighborIndex(target), initial)
            want = ref_icp(source, target, initial)
            assert result_bytes(got) == result_bytes(want)

    def test_fewer_points_queried_than_iterations_times_scan(self, frames, monkeypatch):
        scan, _, index, pose = frames["corridor", 12]
        queried = []
        query = NeighborIndex.query_batch

        def spy(self, queries, k=1):
            queried.append(len(queries))
            return query(self, queries, k=k)

        monkeypatch.setattr(NeighborIndex, "query_batch", spy)
        start = se3.exp(FUSE_PRIOR) @ pose
        res = icp_point_to_plane(scan, index, start)
        assert res.iterations_used > 2
        assert queried[0] == len(scan)
        assert sum(queried) < res.iterations_used * len(scan)

    @pytest.mark.parametrize("prior", ["label", "fuse"])
    def test_queries_no_more_points_than_the_half_gap_rule(self, frames, monkeypatch, prior):
        scan, _, index, pose = frames["corridor", 12]
        positions, queried = [], []
        call, query = _Matcher.__call__, NeighborIndex.query_batch

        def call_spy(self, p):
            positions.append(p.copy())
            return call(self, p)

        def query_spy(self, queries, k=1):
            if k == 2:
                queried.append(len(queries))
            return query(self, queries, k=k)

        monkeypatch.setattr(_Matcher, "__call__", call_spy)
        monkeypatch.setattr(NeighborIndex, "query_batch", query_spy)
        sigma = LABEL_PRIOR if prior == "label" else FUSE_PRIOR
        icp_point_to_plane(scan, index, se3.exp(sigma) @ pose)
        monkeypatch.undo()
        ref = half_gap_queries(index, positions)
        assert len(queried) == len(ref) > 3
        assert all(q <= r for q, r in zip(queried, ref))
        assert sum(queried) < sum(ref)


def half_gap_queries(index, positions):
    """Points queried per call along the same positions by the half-gap
    rule: keep a match while the point has moved less than half the gap
    between its two nearest distances at its last k = 2 query."""
    at = np.zeros_like(positions[0])
    slack = np.full(len(at), -np.inf)
    counts = []
    for p in positions:
        stale = ~(np.linalg.norm(p - at, axis=1) < slack)
        dk, _ = index.query_batch(p[stale], k=2)
        at[stale] = p[stale]
        slack[stale] = (1.0 - _ROUNDING) * 0.5 * (dk[:, 1] - dk[:, 0]) - _ROUNDING * dk[:, 0]
        counts.append(int(stale.sum()))
    return counts


def assert_matches_full_query(index, points, moves):
    """Move points step by step; each answer must be a full query's bits,
    and the offsets those of the points from their matched map points."""
    match = _Matcher(index, len(points))
    for step in moves:
        points = points + step
        d, j, off = match(points)
        d_ref, j_ref = index.query_batch(points)
        assert d.tobytes() == d_ref.tobytes()
        assert j.tobytes() == j_ref.astype(j.dtype).tobytes()
        assert off.tobytes() == (points - index.cloud.points[j]).tobytes()


class TestMatcher:
    @pytest.mark.parametrize("pts", [[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]] * 2],
                             ids=["two_sides", "duplicate_at_query"])
    def test_exact_tie_takes_the_k1_answer(self, pts):
        index = NeighborIndex(PointCloud(pts))
        d2, j2 = index.query_batch(np.zeros((1, 3)), k=2)
        assert d2[0, 0] == d2[0, 1]
        assert j2[0, 0] != index.query_batch(np.zeros((1, 3)))[1][0]
        assert_matches_full_query(index, np.zeros((1, 3)), [0.0, 0.0, [[1e-9, 0.0, 0.0]], 0.0])

    def test_one_point_map(self):
        index = NeighborIndex(PointCloud([[0.5, -1.0, 2.0]]))
        rng = np.random.default_rng(3)
        moves = [0.0, *rng.normal(size=(4, 50, 3))]
        assert_matches_full_query(index, rng.normal(size=(50, 3)), moves)

    def test_random_cloud_and_far_points(self):
        rng = np.random.default_rng(5)
        index = NeighborIndex(PointCloud(rng.uniform(-5, 5, (300, 3))))
        points = np.vstack([rng.uniform(-5, 5, (400, 3)), rng.uniform(40, 60, (20, 3))])
        moves = [0.0] + [s * rng.normal(size=(420, 3)) for s in (1e-3, 1e-2, 0.3) for _ in range(6)]
        assert_matches_full_query(index, points, moves)

    @seed(20251018)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        map_seed=st.integers(0, 2**32 - 1),
        n_map=st.integers(1, 60),
        lattice=st.booleans(),
        scales=st.lists(st.sampled_from([0.0, 1e-9, 1e-4, 1e-2, 0.5]), min_size=1, max_size=6),
    )
    def test_any_motion_gives_the_full_query(self, map_seed, n_map, lattice, scales):
        rng = np.random.default_rng(map_seed)
        pts = rng.integers(-3, 4, (n_map, 3)).astype(float) if lattice else rng.normal(size=(n_map, 3))
        index = NeighborIndex(PointCloud(pts))
        start = rng.integers(-6, 7, (40, 3)) / 2.0 if lattice else 2.0 * rng.normal(size=(40, 3))
        moves = [0.0, *(s * rng.normal(size=(40, 3)) for s in scales)]
        assert_matches_full_query(index, start, moves)
