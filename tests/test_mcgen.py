"""Monte-Carlo covariance labeling and the dataset file format."""

import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from licov import cloud, mcgen, se3
from licov.cloud import MapSetup, NeighborIndex, PointCloud
from licov.errors import DataError, NoCorrespondences, TooFewValidSamples
from licov.icp import IcpConfig
from licov.mcgen import (
    CovRecord,
    PerturbationSpec,
    average_covariance,
    generate_dataset,
    pack_upper,
    read_dataset,
    run_monte_carlo,
    sample_perturbation,
    sample_rng,
    unpack_upper,
    write_dataset,
)
from licov.scenes import make_synthetic_scene
from licov.sequences import InMemorySequence

DUMMY = PointCloud([[0.0, 0.0, 0.0]])
IDENT = se3.SE3.identity()


def stub_align(pose_fn):
    """Alignment stand-in: ignores the clouds, returns pose_fn(call_index)."""
    state = {"i": 0}

    def align(source, index, initial, cfg):
        i = state["i"]
        state["i"] += 1
        return SimpleNamespace(estimate=pose_fn(i))

    return align


class TestPacking:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 6))
        m = a + a.T
        v = pack_upper(m)
        assert v.shape == (21,)
        assert np.array_equal(unpack_upper(v), m)

    def test_row_major_order(self):
        m = np.arange(36.0).reshape(6, 6)
        m = 0.5 * (m + m.T)
        v = pack_upper(m)
        assert v[0] == m[0, 0]
        assert v[1] == m[0, 1]
        assert v[5] == m[0, 5]
        assert v[6] == m[1, 1]
        assert v[20] == m[5, 5]


class TestPerturbationSpec:
    def test_defaults_and_radians(self):
        spec = PerturbationSpec()
        s = spec.sigmas()
        assert np.array_equal(s[:3], [1.0, 1.0, 1.0])
        assert np.allclose(s[3:], np.deg2rad(5.0))
        assert abs(s[3] - 0.0872664625997164) < 1e-15

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSpec(sigma_x=-0.1)
        with pytest.raises(ValueError):
            PerturbationSpec(sigma_psi=float("nan"))

    def test_zero_spec_draws_zero(self):
        spec = PerturbationSpec(0, 0, 0, 0, 0, 0)
        xi = sample_perturbation(spec, np.random.default_rng(0))
        assert np.array_equal(xi, np.zeros(6))

    def test_sampled_moments(self):
        spec = PerturbationSpec()
        rng = np.random.default_rng(42)
        draws = np.array([sample_perturbation(spec, rng) for _ in range(20000)])
        stds = draws.std(axis=0)
        target = spec.sigmas()
        assert np.all(np.abs(stds / target - 1.0) < 0.02)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02 * target)
        corr = np.corrcoef(draws.T)
        off = corr[np.triu_indices(6, 1)]
        assert np.max(np.abs(off)) < 0.03

    def test_rotation_at_branch_cut_rejected(self):
        spec = PerturbationSpec(sigma_phi=1e4)

        class Ones:
            def normal(self, loc, scale, size):
                return np.ones(size)

        with pytest.raises(ValueError):
            sample_perturbation(spec, Ones())

    def test_sample_rng_independent_of_order(self):
        a = sample_rng(3, 5, 7).normal(size=4)
        _ = sample_rng(3, 5, 8).normal(size=4)
        b = sample_rng(3, 5, 7).normal(size=4)
        assert np.array_equal(a, b)


class TestRunMonteCarlo:
    def test_perfect_aligner_gives_zero_label(self):
        align = stub_align(lambda i: IDENT)
        rec = run_monte_carlo(DUMMY, DUMMY, IDENT, PerturbationSpec(), 10, align=align)
        assert np.array_equal(rec.covariance, np.zeros((6, 6)))
        assert np.array_equal(rec.mean_twist, np.zeros(6))
        assert rec.n == 10
        assert rec.diverged_count == 0

    def test_constant_error_two_samples(self):
        # both trials land on exp(xi*); the n=2 label is 2 xi* xi*^T
        xi_star = np.array([0.05, -0.02, 0.01, 0.004, -0.003, 0.002])
        align = stub_align(lambda i: se3.exp(xi_star))
        rec = run_monte_carlo(DUMMY, DUMMY, IDENT, PerturbationSpec(), 2, align=align)
        assert np.allclose(rec.covariance, 2.0 * np.outer(xi_star, xi_star), atol=1e-12)
        assert np.allclose(rec.mean_twist, xi_star, atol=1e-12)

    def test_second_moment_formula_exact(self):
        # feed a known error sequence and compare against the uncentered
        # second moment computed independently here
        rng = np.random.default_rng(7)
        etas = rng.normal(scale=0.05, size=(40, 6))
        align = stub_align(lambda i: se3.exp(etas[i]))
        rec = run_monte_carlo(DUMMY, DUMMY, IDENT, PerturbationSpec(), 40, align=align)
        expected = etas.T @ etas / 39.0
        assert np.allclose(rec.covariance, expected, atol=1e-12)
        assert np.allclose(rec.mean_twist, etas.mean(axis=0), atol=1e-14)

    def test_reference_pose_factored_out(self):
        # same error sequence applied around a non-trivial reference pose
        pose = se3.exp([1.0, -2.0, 0.5, 0.2, -0.1, 0.3])
        rng = np.random.default_rng(8)
        etas = rng.normal(scale=0.03, size=(30, 6))
        align = stub_align(lambda i: pose @ se3.exp(etas[i]))
        rec = run_monte_carlo(DUMMY, DUMMY, pose, PerturbationSpec(), 30, align=align)
        assert np.allclose(rec.covariance, etas.T @ etas / 29.0, atol=1e-12)

    def test_estimator_tightens_with_n(self):
        rng0 = np.random.default_rng(99)
        a = rng0.normal(size=(6, 6)) * 0.05
        sigma = a @ a.T + 0.01 * np.eye(6)
        chol = np.linalg.cholesky(sigma)

        def med_err(n):
            errs = []
            for s in range(8):
                gen = np.random.default_rng(1000 + s)
                align = stub_align(lambda i: se3.exp(chol @ gen.normal(size=6)))
                rec = run_monte_carlo(
                    DUMMY, DUMMY, IDENT, PerturbationSpec(), n, seed=s, align=align
                )
                errs.append(np.linalg.norm(rec.covariance - sigma))
            return float(np.median(errs))

        assert med_err(50) > med_err(400) > med_err(1600)

    def test_diverged_samples_counted_and_dropped(self):
        xi_star = np.array([0.01, 0, 0, 0, 0, 0.0])

        def pose_fn(i):
            if i in (1, 4, 7):
                raise NoCorrespondences("stub")
            return se3.exp(xi_star)

        rec = run_monte_carlo(
            DUMMY, DUMMY, IDENT, PerturbationSpec(), 10, align=stub_align(pose_fn)
        )
        assert rec.n == 7
        assert rec.diverged_count == 3
        assert np.allclose(rec.covariance, 7.0 / 6.0 * np.outer(xi_star, xi_star))

    def test_too_few_valid_samples(self):
        def pose_fn(i):
            if i > 0:
                raise NoCorrespondences("stub")
            return IDENT

        with pytest.raises(TooFewValidSamples):
            run_monte_carlo(
                DUMMY, DUMMY, IDENT, PerturbationSpec(), 8, align=stub_align(pose_fn)
            )

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            run_monte_carlo(DUMMY, DUMMY, IDENT, PerturbationSpec(), 1)

    def test_real_icp_deterministic(self):
        seq = make_synthetic_scene("room", density=3.0, n_frames=3, seed=5)
        scan, index = MapSetup(1, 1, map_voxel=0.4, scan_voxel=0.3).frame(seq, 1)
        spec = PerturbationSpec(0.1, 0.1, 0.1, 2.0, 2.0, 2.0)
        cfg = IcpConfig(max_iterations=10)
        recs = [
            run_monte_carlo(scan, index, seq.pose(1), spec, 4, cfg, seed=3, frame_id=1)
            for _ in range(2)
        ]
        assert np.array_equal(recs[0].covariance, recs[1].covariance)
        assert np.array_equal(recs[0].mean_twist, recs[1].mean_twist)


class TestDatasetIO:
    def _record(self, frame_id=0):
        rng = np.random.default_rng(frame_id + 1)
        a = rng.normal(size=(6, 6)) * 0.1
        return CovRecord(
            frame_id=frame_id,
            n=25,
            covariance=a @ a.T,
            seed=3,
            diverged_count=2,
            mean_twist=rng.normal(size=6),
        )

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "data.csv"
        records = [self._record(i) for i in range(3)]
        write_dataset(path, {"seed": "3", "n": "25"}, records)
        metadata, back = read_dataset(path)
        assert metadata == {"seed": "3", "n": "25"}
        assert len(back) == 3
        for a, b in zip(records, back):
            assert b.frame_id == a.frame_id
            assert b.n == a.n
            assert b.diverged_count == a.diverged_count
            # full covariance survives via its upper triangle
            assert np.array_equal(pack_upper(b.covariance), pack_upper(a.covariance))
            assert np.array_equal(b.mean_twist, a.mean_twist)

    def test_warning_lines_ignored(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset(path, {}, [self._record()], skipped=[(7, "all samples diverged")])
        text = path.read_text()
        assert "# frame 7 skipped: all samples diverged" in text
        _, back = read_dataset(path)
        assert len(back) == 1

    def test_metadata_values_sanitized(self, tmp_path):
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "x.csv", {"note": "a,b"}, [self._record()])
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "x.csv", {"note": "a=b"}, [self._record()])

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_dataset(path, {"n": "5"}, [])
        assert path.read_text().count("\n") == 2
        with pytest.raises(DataError, match="empty.csv: no records"):
            read_dataset(path)

    def test_bad_format_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("something-else,1\n\n")
        with pytest.raises(DataError):
            read_dataset(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("licov-covdataset,1\nseed=0\n1,2,3\n")
        with pytest.raises(DataError):
            read_dataset(path)

    def test_average_covariance(self):
        recs = [self._record(i) for i in range(4)]
        avg = average_covariance(recs)
        assert np.allclose(avg, np.mean([r.covariance for r in recs], axis=0))
        with pytest.raises(DataError, match="no records to average"):
            average_covariance([])


@pytest.fixture(scope="module")
def small_seq():
    return make_synthetic_scene("room", density=4.0, n_frames=4, seed=11)


class TestGenerateDataset:
    def _generate(self, seq, path, threads):
        return generate_dataset(
            seq,
            frames=range(4),
            spec=PerturbationSpec(0.1, 0.1, 0.1, 2.0, 2.0, 2.0),
            n=6,
            config=IcpConfig(max_iterations=8),
            seed=21,
            out_path=path,
            setup=MapSetup(1, 1, map_voxel=0.4, scan_voxel=0.3),
            threads=threads,
        )

    def test_rerun_byte_identical(self, small_seq, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._generate(small_seq, a, threads=1)
        self._generate(small_seq, b, threads=1)
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_bytes(self, small_seq, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "t2.csv"
        self._generate(small_seq, a, threads=1)
        self._generate(small_seq, b, threads=2)
        assert a.read_bytes() == b.read_bytes()

    def test_records_and_metadata_present(self, small_seq, tmp_path):
        path = tmp_path / "d.csv"
        summary = self._generate(small_seq, path, threads=1)
        assert [r.frame_id for r in summary.records] == [0, 1, 2, 3]
        assert path.read_text().splitlines()[1] == (
            "sigma_x=0.10000000000000001,sigma_y=0.10000000000000001,"
            "sigma_z=0.10000000000000001,sigma_phi=2,sigma_theta=2,sigma_psi=2,"
            "n=6,window_before=1,window_after=1,map_voxel=0.40000000000000002,"
            "scan_voxel=0.29999999999999999,normal_k=10,icp_max_iterations=8,"
            "icp_translation_eps=0.0001,icp_rotation_eps=0.0001,"
            "icp_max_correspondence_distance=2,seed=21"
        )
        metadata, records = read_dataset(path)
        assert metadata["n"] == "6"
        assert len(records) == 4
        for r in records:
            vals = np.linalg.eigvalsh(r.covariance)
            assert vals.min() > -1e-12


class TestGenerateCancellation:
    """A failing frame or an interrupt stops the frames not yet started.
    Each frame's start is logged to a file, which forked workers append
    to as well."""

    FRAMES = 12

    def _generate(self, monkeypatch, tmp_path, threads=2, fail_frames=(), progress=None):
        log = tmp_path / "started.log"

        def fake_monte_carlo(*args, frame_id, **kwargs):
            with open(log, "a") as f:
                f.write(f"{frame_id}\n")
            if frame_id in fail_frames:
                raise RuntimeError(f"frame {frame_id} failed")
            time.sleep(0.2)
            return CovRecord(frame_id, 2, 1e-4 * np.eye(6), 0, 0, np.zeros(6))

        index = NeighborIndex(PointCloud(DUMMY.points, [[0.0, 0.0, 1.0]]))  # frame needs normals
        monkeypatch.setattr(cloud, "build_local_map", lambda *args: index)
        monkeypatch.setattr(mcgen, "run_monte_carlo", fake_monte_carlo)
        seq = InMemorySequence([DUMMY] * self.FRAMES, [IDENT] * self.FRAMES)
        generate_dataset(seq, range(self.FRAMES), PerturbationSpec(), 2, IcpConfig(), 0,
                         tmp_path / "d.csv", threads=threads, progress=progress)

    @staticmethod
    def _started(tmp_path):
        return [int(line) for line in (tmp_path / "started.log").read_text().split()]

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_frame_error_starts_at_most_threads_frames(self, monkeypatch, tmp_path, threads):
        # several frames fail at once, with frequent thread switches
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(RuntimeError, match="frame 0 failed"):
                self._generate(monkeypatch, tmp_path, threads, fail_frames={0, 1, 2})
        finally:
            sys.setswitchinterval(interval)
        started = self._started(tmp_path)
        assert 0 in started and len(started) <= threads
        assert not (tmp_path / "d.csv").exists()

    def test_interrupt_cancels_queued_frames(self, monkeypatch, tmp_path):
        def progress(frame, record):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self._generate(monkeypatch, tmp_path, progress=progress)
        # frames 0 and 1 ran; at most one more per worker was already taken
        assert len(self._started(tmp_path)) <= 4
        assert not (tmp_path / "d.csv").exists()
