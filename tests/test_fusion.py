"""Tangent-space EKF steps, fusion modes, and trajectory metrics."""
import re
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from licov import fusion as fusion_mod
from licov import model as model_mod
from licov import se3
from licov.cloud import MapSetup
from licov.errors import ConfigError, DataError, NumericError
from licov.features import extract_features
from licov.fusion import (
    MODES,
    FusionSetup,
    FusionState,
    MotionInput,
    Trajectory,
    ade,
    ekf_predict,
    ekf_update,
    fde,
    read_trajectory,
    run_fusion,
    write_trajectory,
)
from licov.model import RegressionModel, cov_to_params
from licov.scenes import make_synthetic_scene

from conftest import random_pose, random_spd


def constant_model(cov):
    """Model whose prediction is `cov` for every input scan."""
    return RegressionModel(
        np.zeros(32), np.ones(32), np.zeros((64, 32)), np.zeros(64),
        np.zeros((21, 64)), cov_to_params(cov),
    )


@pytest.fixture(scope="module")
def small_room():
    return make_synthetic_scene("room", density=4, seed=7, n_frames=5)


def truth_oracle(sequence, frames):
    """Align stub returning the ground-truth pose of each visited frame."""
    it = iter(sorted(frames)[1:])

    def align(source, index, initial, cfg):
        return SimpleNamespace(estimate=sequence.pose(next(it)))

    return align


def truth_trajectory(sequence, frames):
    return Trajectory(list(frames), [sequence.pose(f) for f in frames])


class TestPredict:
    def test_identity_delta_adds_process_noise(self):
        rng = np.random.default_rng(0)
        p = random_spd(rng, scale=0.1)
        q = random_spd(rng, scale=0.01)
        state = FusionState(random_pose(rng), p)
        out = ekf_predict(state, MotionInput(se3.SE3.identity(), q))
        assert np.allclose(out.covariance, p + q, rtol=0, atol=1e-14)
        assert np.allclose(out.pose.R, state.pose.R, rtol=0, atol=0)
        assert np.allclose(out.pose.t, state.pose.t, rtol=0, atol=0)

    def test_two_step_composition(self):
        # chaining two predictions from zero covariance must match the
        # closed-form transport Ad(d2^-1) Q1 Ad(d2^-1)^T + Q2
        rng = np.random.default_rng(1)
        d1, d2 = random_pose(rng), random_pose(rng)
        q1 = random_spd(rng, scale=0.1)
        q2 = random_spd(rng, scale=0.05)
        state = FusionState(se3.SE3.identity(), np.zeros((6, 6)))
        state = ekf_predict(state, MotionInput(d1, q1))
        state = ekf_predict(state, MotionInput(d2, q2))
        ad = se3.adjoint(se3.inverse(d2))
        expected = ad @ q1 @ ad.T + q2
        assert np.allclose(state.covariance, expected, rtol=0, atol=1e-9)
        ref = d1 @ d2
        assert np.allclose(state.pose.R, ref.R, rtol=0, atol=1e-12)
        assert np.allclose(state.pose.t, ref.t, rtol=0, atol=1e-12)

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(2)
        state = FusionState(se3.SE3.identity(), 1e-6 * np.eye(6))
        for _ in range(20):
            m = MotionInput(random_pose(rng), random_spd(rng, scale=1e-3))
            state = ekf_predict(state, m)
            assert np.array_equal(state.covariance, state.covariance.T)
            assert np.linalg.eigvalsh(state.covariance)[0] >= -1e-12


class TestUpdate:
    def test_scalar_analog(self):
        # with P = p I and R = r I the filter reduces to six decoupled
        # scalar updates: x = p/(p+r) d, P' = (1-k)^2 p + k^2 r
        state = FusionState(se3.SE3.identity(), 0.3 * np.eye(6))
        meas = se3.exp(np.array([0.4, 0.0, 0.0, 0.0, 0.0, 0.0]))
        out = ekf_update(state, meas, 0.7 * np.eye(6))
        assert abs(out.pose.t[0] - 0.12) < 1e-12
        assert np.all(np.abs(out.pose.t[1:]) < 1e-12)
        assert np.allclose(out.pose.R, np.eye(3), rtol=0, atol=1e-12)
        assert np.allclose(out.covariance, 0.21 * np.eye(6), rtol=0, atol=1e-12)

    def test_update_matches_information_form(self):
        # Joseph form with the optimal gain equals P - P (P+R)^-1 P
        rng = np.random.default_rng(3)
        p = random_spd(rng, scale=0.2)
        r = random_spd(rng, scale=0.3)
        state = FusionState(random_pose(rng, max_angle=1.0), p)
        meas = state.pose @ se3.exp(0.01 * rng.normal(size=6))
        out = ekf_update(state, meas, r)
        expected = p - p @ np.linalg.solve(p + r, p)
        assert np.allclose(out.covariance, expected, rtol=0, atol=1e-9)

    def test_huge_r_leaves_pose_unchanged(self):
        rng = np.random.default_rng(4)
        state = FusionState(random_pose(rng, max_angle=1.0), 1e-4 * np.eye(6))
        meas = state.pose @ se3.exp(np.array([0.5, -0.2, 0.1, 0.05, 0.0, -0.04]))
        out = ekf_update(state, meas, 1e12 * np.eye(6))
        assert np.linalg.norm(out.pose.t - state.pose.t) < 1e-9
        assert np.linalg.norm(out.pose.R - state.pose.R) < 1e-9

    def test_tiny_r_snaps_to_measurement(self):
        rng = np.random.default_rng(5)
        state = FusionState(random_pose(rng, max_angle=1.0), np.eye(6))
        meas = state.pose @ se3.exp(np.array([0.3, 0.1, -0.2, 0.1, -0.05, 0.08]))
        out = ekf_update(state, meas, 1e-12 * np.eye(6))
        err = se3.log(se3.inverse(out.pose) @ meas)
        assert np.linalg.norm(err) < 1e-6

    def test_zero_r_is_regularized(self):
        state = FusionState(se3.SE3.identity(), np.eye(6))
        meas = se3.exp(np.array([0.2, 0.0, 0.0, 0.0, 0.0, 0.0]))
        out = ekf_update(state, meas, np.zeros((6, 6)))
        assert abs(out.pose.t[0] - 0.2) < 1e-6

    def test_trace_never_increases(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            p = random_spd(rng, scale=0.5)
            r = random_spd(rng, scale=0.5)
            state = FusionState(random_pose(rng, max_angle=1.0), p)
            meas = state.pose @ se3.exp(0.05 * rng.normal(size=6))
            out = ekf_update(state, meas, r)
            assert np.trace(out.covariance) <= np.trace(p) + 1e-12

    def test_interleaved_fuzz_keeps_covariance_psd(self):
        rng = np.random.default_rng(7)
        state = FusionState(se3.SE3.identity(), 1e-6 * np.eye(6))
        for i in range(200):
            if i % 2 == 0:
                m = MotionInput(
                    random_pose(rng, max_angle=0.8), random_spd(rng, scale=1e-3)
                )
                state = ekf_predict(state, m)
            else:
                meas = state.pose @ se3.exp(0.05 * rng.normal(size=6))
                state = ekf_update(state, meas, random_spd(rng, scale=0.01))
            assert np.array_equal(state.covariance, state.covariance.T)
            assert np.linalg.eigvalsh(state.covariance)[0] >= -1e-10
            assert np.allclose(
                state.pose.R.T @ state.pose.R, np.eye(3), rtol=0, atol=1e-9
            )


class TestMetrics:
    def test_ade_pinned_offset(self):
        ref = Trajectory([0, 1], [se3.SE3.identity(), se3.exp(np.r_[1.0, np.zeros(5)])])
        off = np.array([0.3, 0.4, 0.0])
        est = Trajectory([0, 1], [se3.SE3(p.R, p.t + off) for p in ref.poses])
        assert abs(ade(est, ref) - 0.5) < 1e-15
        assert abs(fde(est, ref) - 0.5) < 1e-15

    def test_fde_uses_final_frame_only(self):
        ref = Trajectory([0, 1], [se3.SE3.identity(), se3.SE3.identity()])
        est = Trajectory(
            [0, 1],
            [
                se3.SE3(np.eye(3), np.array([1.0, 0.0, 0.0])),
                se3.SE3(np.eye(3), np.array([0.3, 0.4, 0.0])),
            ],
        )
        assert abs(fde(est, ref) - 0.5) < 1e-15
        assert abs(ade(est, ref) - 0.75) < 1e-15

    def test_frame_mismatch(self):
        a = Trajectory([0, 1], [se3.SE3.identity()] * 2)
        b = Trajectory([0, 2], [se3.SE3.identity()] * 2)
        with pytest.raises(DataError, match="trajectories cover different frames"):
            ade(a, b)

    def test_empty_trajectory(self):
        empty = Trajectory([], [])
        with pytest.raises(DataError, match="trajectory metrics need at least one frame"):
            ade(empty, empty)
        with pytest.raises(DataError, match="trajectory metrics need at least one frame"):
            fde(empty, empty)


class TestTrajectoryIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        ids = [0, 3, 4, 7, 9]
        traj = Trajectory(ids, [random_pose(rng) for _ in ids])
        path = tmp_path / "traj.txt"
        write_trajectory(path, traj, header={"mode": "icp_only", "seed": 3})
        back = read_trajectory(path)
        assert back.frame_ids == ids
        for a, b in zip(traj.poses, back.poses):
            assert np.array_equal(a.R, b.R)
            assert np.array_equal(a.t, b.t)
        text = path.read_text()
        assert text.startswith("# licov-trajectory,1\n")
        assert "# mode=icp_only" in text

    def test_non_numeric_value_names_the_line(self, tmp_path):
        path = tmp_path / "traj.txt"
        write_trajectory(path, Trajectory([0, 1], [se3.SE3.identity()] * 2))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("0", "x", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: could not convert"):
            read_trajectory(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 " + " ".join(["0.0"] * 11) + "\n")
        with pytest.raises(DataError):
            read_trajectory(path)


class TestRunFusion:
    def test_mode_validation(self, small_room):
        for modes in ("kalman", "", "icp_only,kalman", "icp_only fixed_cov icp_only"):
            with pytest.raises(ConfigError, match="^modes "):
                FusionSetup(modes=modes)
        assert FusionSetup(modes="fixed_cov,icp_only").mode_names == ("fixed_cov", "icp_only")
        with pytest.raises(ConfigError):
            run_fusion(small_room, [0, 1], FusionSetup(modes="icp_only predicted_cov"))
        with pytest.raises(ConfigError):
            run_fusion(small_room, [0, 1], FusionSetup(modes="fixed_cov"))
        with pytest.raises(DataError, match="no frames to fuse"):
            run_fusion(small_room, [], FusionSetup(modes="icp_only"))

    def test_zero_noise_perfect_measurements(self, small_room):
        # with exact odometry the prediction already sits on the truth, so
        # every mode must reproduce the ground-truth trajectory
        frames = list(range(5))
        setup = FusionSetup(
            map=MapSetup(1, 1, map_voxel=0.4, scan_voxel=0.3),
            motion_sigma_xyz=0.0, motion_sigma_rot_deg=0.0,
        )
        passthrough = lambda source, index, initial, cfg: SimpleNamespace(estimate=initial)
        truth = truth_trajectory(small_room, frames)
        for mode, kw in [
            ("icp_only", {}),
            ("fixed_cov", {"fixed_cov": 1e-4 * np.eye(6)}),
            ("predicted_cov", {"model": constant_model(1e-4 * np.eye(6))}),
        ]:
            traj = run_fusion(small_room, frames, replace(setup, modes=mode),
                              align=passthrough, **kw)[mode]
            assert traj.frame_ids == frames
            assert ade(traj, truth) < 1e-9

    def test_constant_model_matches_fixed_cov(self, small_room):
        frames = list(range(5))
        setup = FusionSetup(map=MapSetup(1, 1, map_voxel=0.4, scan_voxel=0.3), seed=3)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6)) * 0.1
        avg = a @ a.T * 1e-2 + 1e-3 * np.eye(6)
        fixed = run_fusion(
            small_room, frames, replace(setup, modes="fixed_cov"), fixed_cov=avg,
            align=truth_oracle(small_room, frames),
        )["fixed_cov"]
        pred = run_fusion(
            small_room, frames, replace(setup, modes="predicted_cov"),
            model=constant_model(avg), align=truth_oracle(small_room, frames),
        )["predicted_cov"]
        assert fixed.frame_ids == pred.frame_ids
        assert np.allclose(
            fixed.translations(), pred.translations(), rtol=0, atol=1e-9
        )

    def test_measurement_trust_ordering(self, small_room):
        # accurate measurements with a tight R pull the filter onto the
        # truth; a loose R leaves it on the drifting odometry
        frames = list(range(5))
        setup = FusionSetup(map=MapSetup(1, 1, map_voxel=0.4, scan_voxel=0.3), seed=3,
                            modes="fixed_cov")
        truth = truth_trajectory(small_room, frames)
        tight = run_fusion(
            small_room, frames, setup, fixed_cov=1e-8 * np.eye(6),
            align=truth_oracle(small_room, frames),
        )["fixed_cov"]
        loose = run_fusion(
            small_room, frames, setup, fixed_cov=1e2 * np.eye(6),
            align=truth_oracle(small_room, frames),
        )["fixed_cov"]
        assert ade(tight, truth) < 1e-4
        assert ade(loose, truth) > 1e-2
        assert ade(tight, truth) < ade(loose, truth)

    def test_seeded_odometry_noise_repeats(self, small_room):
        frames = list(range(4))
        setup = FusionSetup(map=MapSetup(1, 1, map_voxel=0.4, scan_voxel=0.3), modes="icp_only")
        passthrough = lambda source, index, initial, cfg: SimpleNamespace(estimate=initial)

        def run(seed):
            return run_fusion(small_room, frames, replace(setup, seed=seed),
                              align=passthrough)["icp_only"]

        a, b, c = run(9), run(9), run(10)
        assert np.array_equal(a.translations(), b.translations())
        assert not np.array_equal(a.translations(), c.translations())

    def test_real_icp_tracks_room(self, small_room):
        frames = list(range(5))
        setup = FusionSetup(map=MapSetup(1, 1, map_voxel=0.4, scan_voxel=0.3), seed=3,
                            modes="fixed_cov icp_only")
        truth = truth_trajectory(small_room, frames)
        trajs = run_fusion(small_room, frames, setup, fixed_cov=1e-4 * np.eye(6))
        assert ade(trajs["fixed_cov"], truth) < 0.05
        assert ade(trajs["icp_only"], truth) < 0.05

    def test_one_pass_matches_single_mode_runs(self, small_room):
        # sharing each frame's scan, map and index across modes must not
        # move a single pose bit against one call per mode
        frames = list(range(5))
        setup = FusionSetup(map=MapSetup(1, 1, map_voxel=0.4, scan_voxel=0.3), seed=3)
        kw = {"model": constant_model(3e-4 * np.eye(6)), "fixed_cov": 1e-4 * np.eye(6)}
        together = run_fusion(small_room, frames, setup, **kw)
        assert list(together) == list(MODES)
        for mode in MODES:
            alone = run_fusion(small_room, frames, replace(setup, modes=mode), **kw)[mode]
            assert together[mode].frame_ids == alone.frame_ids == frames
            for a, b in zip(together[mode].poses, alone.poses):
                assert np.array_equal(a.R, b.R)
                assert np.array_equal(a.t, b.t)

    def test_predicted_cov_features_use_setup_normal_k(self, small_room, monkeypatch):
        seen = []

        def spy(cloud, normal_k=10):
            seen.append(normal_k)
            return extract_features(cloud, normal_k)

        monkeypatch.setattr(model_mod, "extract_features", spy)
        frames = list(range(3))
        setup = FusionSetup(map=MapSetup(1, 1, map_voxel=0.4, scan_voxel=0.3, normal_k=6),
                            modes="predicted_cov")
        run_fusion(small_room, frames, setup, model=constant_model(1e-4 * np.eye(6)),
                   align=truth_oracle(small_room, frames))
        assert seen == [6, 6]

    def test_modes_tuple(self):
        assert MODES == ("icp_only", "fixed_cov", "predicted_cov")


class TestThreads:
    """run_fusion prepares at most two frames past its slowest mode, and
    each mode is a chain of frames; the first fault it raises does not
    depend on `threads` (the CLI chain tests check that the poses do not
    either). The stubs know a frame by its filtered scan's bytes and log
    each map preparation and align to a file, which forked workers append
    to as well."""

    SETUP = FusionSetup(map=MapSetup(1, 1, map_voxel=0.4, scan_voxel=0.3), seed=3)
    KW = {"model": constant_model(3e-4 * np.eye(6)), "fixed_cov": 1e-4 * np.eye(6)}

    @pytest.fixture(scope="class")
    def room(self):
        return make_synthetic_scene("room", density=4, seed=7, n_frames=9)

    def stubs(self, room, monkeypatch, tmp_path):
        """Install stubs of map preparation, align and predict over every
        frame of `room`, and learn the mode of every align from a
        fault-free one-thread run -> (armed, slow, align, events). After the
        learning run, align raises NumericError at armed["align_faults"]'s
        (frame, mode) pairs and sleeps slow[mode] seconds; predict raises
        NumericError at armed["predict_faults"] frames and map preparation
        DataError at armed["map_faults"] frames. events() reads and clears
        the log -> (frames started, [(frame aligned, frames started by
        then)], [(event, frame, mode)] of every align start and end)."""
        frames = list(range(len(room)))
        armed = dict.fromkeys(("align_faults", "predict_faults", "map_faults"), ())
        slow = {}
        frame_of = {self.SETUP.map.scan(room, k).points.tobytes(): k for k in frames}
        assert len(frame_of) == len(frames)
        log = tmp_path / "events.log"
        # The aligns of a frame differ by mode only through their prior:
        # a fault-free one-thread run, whose aligns come in mode order,
        # names the mode of every prior. Each align moves its prior, so
        # the modes part after frame 1.
        modes_of = {}
        prepare = MapSetup.frame

        def record(*event):
            with open(log, "a") as f:
                f.write(" ".join(map(str, event)) + "\n")

        def frame(self, sequence, k):
            record("map", k)
            if k in armed["map_faults"]:
                raise DataError(f"stub map fault at frame {k}")
            return prepare(self, sequence, k)

        def align(source, index, initial, cfg):
            k = frame_of[source.points.tobytes()]
            key = (k, initial.R.tobytes(), initial.t.tobytes())
            if key not in modes_of:
                modes_of[key] = MODES[sum(x[0] == k for x in modes_of)]
            mode = modes_of[key]
            record("align", k, mode)
            if (k, mode) in armed["align_faults"]:
                raise NumericError(f"stub align fault at frame {k}, {mode}")
            time.sleep(slow.get(mode, 0.0))
            record("aligned", k, mode)
            return SimpleNamespace(estimate=initial @ se3.exp(np.full(6, 1e-3)))

        def predict(model, scan, normal_k):
            k = frame_of[scan.points.tobytes()]
            if k in armed["predict_faults"]:
                raise NumericError(f"stub predict fault at frame {k}")
            return model_mod.predict(model, scan, normal_k)

        def events():
            started, seen, aligns = [], [], []
            for line in log.read_text().splitlines():
                event, k, *mode = line.split()
                if event == "map":
                    started.append(int(k))
                else:
                    aligns.append((event, int(k), *mode))
                    if event == "align":
                        seen.append((int(k), list(started)))
            log.unlink()
            return started, seen, aligns

        monkeypatch.setattr(MapSetup, "frame", frame)
        monkeypatch.setattr(fusion_mod, "predict", predict)
        run_fusion(room, frames, self.SETUP, align=align, **self.KW)
        assert len(modes_of) == len(MODES) * (len(frames) - 1) - 2  # frame 1 is shared
        events()
        return armed, slow, align, events

    def faulty_run(self, room, monkeypatch, tmp_path, threads, **faults):
        """run_fusion over every frame of `room` with the stubs armed at
        `faults` -> (exception, frames started, [(frame aligned, frames
        started by then)])."""
        armed, _, align, events = self.stubs(room, monkeypatch, tmp_path)
        armed.update(faults)
        with pytest.raises(Exception) as info:
            run_fusion(room, range(len(room)), self.SETUP, align=align, threads=threads,
                       **self.KW)
        started, seen, _ = events()
        return info.value, started, seen

    @pytest.mark.parametrize("faults, error, message", [
        ({"align_faults": {(2, "fixed_cov"), (2, "predicted_cov")}, "map_faults": {3}},
         NumericError, "stub align fault at frame 2, fixed_cov"),
        ({"align_faults": {(2, "icp_only"), (2, "predicted_cov")}, "predict_faults": {2},
          "map_faults": {3}}, NumericError, "stub predict fault at frame 2"),
        ({"predict_faults": {2}, "map_faults": {3}}, NumericError, "stub predict fault at frame 2"),
        ({"align_faults": {(3, "icp_only")}, "map_faults": {3}}, DataError,
         "stub map fault at frame 3"),
    ], ids=["align-mode-order", "predict-before-align", "predict-before-map", "map-before-align"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_first_fault_is_the_serial_one(self, room, monkeypatch, tmp_path, threads, faults,
                                           error, message):
        e, started, seen = self.faulty_run(room, monkeypatch, tmp_path, threads, **faults)
        assert type(e) is error and str(e) == message
        # no frame past the current one plus two was started
        assert all(max(before) <= k + 2 for k, before in seen)
        current = max(k for k, _ in seen)
        assert max(started) <= current + 2 < len(room) - 1

    @pytest.fixture
    def installed(self, room, monkeypatch, tmp_path):
        return self.stubs(room, monkeypatch, tmp_path)

    @settings(max_examples=20, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(map_faults=st.sets(st.integers(1, 8), max_size=2),
           predict_faults=st.sets(st.integers(1, 8), max_size=2),
           align_faults=st.sets(st.tuples(st.integers(2, 8), st.sampled_from(MODES)),
                                max_size=4))
    def test_any_faults_raise_the_serial_first(self, room, installed, map_faults,
                                               predict_faults, align_faults):
        # align faults start at frame 2, where the stubs tell the modes apart
        armed, _, align, events = installed
        armed.update(map_faults=map_faults, predict_faults=predict_faults,
                     align_faults=align_faults)
        serial = None
        for k in reversed(range(1, len(room))):
            for mode in reversed(MODES):
                if (k, mode) in align_faults:
                    serial = NumericError, f"stub align fault at frame {k}, {mode}"
            if k in predict_faults:
                serial = NumericError, f"stub predict fault at frame {k}"
            if k in map_faults:
                serial = DataError, f"stub map fault at frame {k}"
        for threads in (1, 3):
            try:
                run_fusion(room, range(len(room)), self.SETUP, align=align, threads=threads,
                           **self.KW)
                raised = None
            except Exception as e:
                raised = type(e), str(e)
            events()
            assert raised == serial

    def test_modes_run_ahead_of_a_slow_one(self, room, monkeypatch, tmp_path):
        # predicted_cov's aligns are slow; icp_only starts its next frame
        # before predicted_cov's align of the frame before has ended
        _, slow, align, events = self.stubs(room, monkeypatch, tmp_path)
        slow["predicted_cov"] = 0.3
        fast = run_fusion(room, range(len(room)), self.SETUP, align=align, threads=3,
                          **self.KW)
        _, _, aligns = events()
        ahead = [k for k in range(2, len(room) - 1)
                 if aligns.index(("align", k + 1, "icp_only"))
                 < aligns.index(("aligned", k, "predicted_cov"))]
        assert ahead
        slow.clear()
        alone = run_fusion(room, range(len(room)), self.SETUP, align=align, **self.KW)
        for mode in MODES:
            assert [p.t.tobytes() for p in fast[mode].poses] == [
                p.t.tobytes() for p in alone[mode].poses]
