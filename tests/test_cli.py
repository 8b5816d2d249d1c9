"""End-to-end command-line coverage for every subcommand and exit code."""
import hashlib
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from licov import cli, cloud, metrics
from licov.cloud import load_kitti_poses, load_kitti_scan, voxel_downsample
from licov.errors import ConfigError, DataError, NumericError
from licov.features import extract_features
from licov.fusion import read_trajectory
from licov.mcgen import CovRecord, read_dataset, write_dataset
from licov.model import TrainConfig, load_model, params_to_cov, predict, train
from licov.scenes import make_synthetic_scene

from conftest import COMMON, GENERATE, TRAIN, handcrafted_dataset, run_room_chain


def spy_map_builds(monkeypatch, log):
    """-> ([(frame, local map)], [cloud of each NeighborIndex]), filled as
    build_local_map and NeighborIndex run in this process. Each also
    appends a line to `log`, which forked workers do as well (see
    logged_map_builds)."""
    maps, indexed = [], []
    build, init = cloud.build_local_map, cloud.NeighborIndex.__init__

    def record(*words):
        with open(log, "a") as f:
            f.write(" ".join(map(str, words)) + "\n")

    def build_spy(scans, poses, k, setup):
        local_map = build(scans, poses, k, setup)
        maps.append((k, local_map))
        record("map", k, hashlib.sha256(local_map.points.tobytes()).hexdigest())
        return local_map

    def init_spy(self, c):
        indexed.append(c)
        record("index", hashlib.sha256(c.points.tobytes()).hexdigest())
        init(self, c)

    monkeypatch.setattr(cloud, "build_local_map", build_spy)
    monkeypatch.setattr(cloud.NeighborIndex, "__init__", init_spy)
    return maps, indexed


def logged_map_builds(log):
    """spy_map_builds' log -> ([(frame, digest of the map's points)],
    [digest of the points of each NeighborIndex's cloud])."""
    maps, indexed = [], []
    for line in log.read_text().splitlines():
        kind, *words = line.split()
        if kind == "map":
            maps.append((int(words[0]), words[1]))
        else:
            indexed.append(words[0])
    return maps, indexed


def assert_named_before_reading_data(tmp_path, capsys, command, key, value):
    """key=value exits 1 with one line naming it; every input and output is
    a missing child of tmp_path, so reading any input first would exit 2,
    and nothing is written."""
    missing = ["--set", "sequence.kind=kitti", "--set", f"sequence.scan_dir={tmp_path / 'scans'}",
               "--set", f"sequence.pose_file={tmp_path / 'poses.txt'}",
               "--set", f"paths.dataset={tmp_path / 'ds.csv'}",
               "--set", f"paths.model={tmp_path / 'model.txt'}",
               "--set", f"paths.report={tmp_path / 'report.txt'}",
               "--set", f"paths.out_dir={tmp_path / 'out'}"]
    assert cli.main([command, *missing, "--set", f"{key}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Run the generate/train/eval/fuse chain once in a scratch directory."""
    root = tmp_path_factory.mktemp("cli")
    return {"root": root, "rcs": run_room_chain(root)}


class TestExitCodes:
    @pytest.mark.parametrize("exc, code, prefix", [
        (ConfigError, 1, "error"), (ValueError, 1, "error"),
        (DataError, 2, "data error"), (OSError, 2, "data error"),
        (NumericError, 3, "numeric error"), (np.linalg.LinAlgError, 3, "numeric error"),
    ])
    def test_fault_type_sets_code_and_line(self, monkeypatch, capsys, exc, code, prefix):
        def fails(cfg, threads):
            raise exc("boom")

        monkeypatch.setitem(cli._COMMANDS, "synth", fails)
        assert cli.main(["synth"]) == code
        assert capsys.readouterr().err == f"{prefix}: boom\n"


class TestUsageErrors:
    def test_no_command(self):
        assert cli.main([]) == 1

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_bad_threads(self):
        assert cli.main(["generate", "--threads", "0"]) == 1

    def test_threads_default_to_the_usable_cpus(self):
        args = cli.build_parser().parse_args(["train"])
        assert args.threads == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("preset, printed", [(None, "1 1"), ("3", "3 1")])
    def test_blas_pinned_to_one_thread_unless_set(self, preset, printed):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = ("import licov.cli, os; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == printed + "\n"

    def test_set_needs_key_value(self):
        assert cli.main(["generate", "--set", "novalue"]) == 1
        assert cli.main(["generate", "--set", "keyonly=1"]) == 1

    def test_unknown_section_and_key(self):
        assert cli.main(["generate", "--set", "bogus.n=1"]) == 1
        assert cli.main(["generate", "--set", "icp.bogus=1"]) == 1

    def test_unparsable_value(self):
        assert cli.main(["generate", "--set", "montecarlo.n=abc"]) == 1

    def test_invalid_domain_value(self):
        assert cli.main(["generate", *COMMON, "--set", "perturbation.sigma_x=-1"]) == 1

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["generate", "--config", str(tmp_path / "missing" / "licov.ini")]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_config_file_unknown_section(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[warp]\nspeed = 9\n")
        assert cli.main(["generate", "--config", str(path)]) == 1

    def test_config_file_bad_syntax(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("density = 4\n")  # key before any section header
        assert cli.main(["generate", "--config", str(path)]) == 1

    def test_negative_window_rejected_before_reading_data(self, tmp_path):
        for command in ("train", "eval"):
            assert cli.main([command, *COMMON, "--set", "map.window_before=-1",
                             "--set", f"paths.dataset={tmp_path / 'ds.csv'}",
                             "--set", f"paths.model={tmp_path / 'model.txt'}",
                             "--set", f"paths.report={tmp_path / 'report.txt'}"]) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["generate", "train", "eval", "fuse"])
    @pytest.mark.parametrize("key,value", [
        ("normal_k", "2"), ("map_voxel", "0"), ("map_voxel", "nan"),
        ("scan_voxel", "-0.1"), ("scan_voxel", "inf"),
    ])
    def test_bad_map_setting_named_before_reading_data(self, tmp_path, capsys, command, key,
                                                       value):
        assert_named_before_reading_data(tmp_path, capsys, command, f"map.{key}", value)

    # one table with the map rows above: every section, checked at load
    # whether or not the command uses it
    @pytest.mark.parametrize("command", ["generate", "train", "eval", "fuse"])
    @pytest.mark.parametrize("key,value", [
        ("fusion.init_cov", "-1"), ("fusion.init_cov", "nan"),
        ("fusion.motion_sigma_xyz", "-1"), ("fusion.motion_sigma_rot_deg", "nan"),
        ("fusion.modes", "bogus"), ("fusion.modes", "icp_only,icp_only"), ("fusion.frames", "x"),
        ("montecarlo.n", "1"), ("montecarlo.frames", "x"),
        ("icp.translation_eps", "nan"), ("icp.max_correspondence_distance", "nan"),
        ("train.learning_rate", "-1"), ("train.init_sigma", "0"), ("train.alpha", "nan"),
        ("train.label_floor", "nan"),
        ("perturbation.sigma_x", "inf"),
        ("sequence.noise_sigma", "-1"), ("sequence.max_range", "-1"),
        ("sequence.density", "0"), ("sequence.n_frames", "0"),
        ("sequence.seed", "-1"), ("montecarlo.seed", "-1"), ("train.seed", "-1"),
        ("fusion.seed", "-1"), ("sequence.kind", "bogus"), ("sequence.scene", "bogus"),
    ])
    def test_bad_setting_named_before_reading_data(self, tmp_path, capsys, command, key, value):
        assert_named_before_reading_data(tmp_path, capsys, command, key, value)

    # the room of COMMON has 4 frames; the dataset and model are missing, so
    # fuse would exit 2 had it read them first
    @pytest.mark.parametrize("command,key,value", [
        ("generate", "montecarlo.frames", "3:1"), ("generate", "montecarlo.frames", "7"),
        ("generate", "montecarlo.frames", "4:"), ("fuse", "fusion.frames", "3:1"),
        ("fuse", "fusion.frames", "0,4"), ("fuse", "fusion.frames", "-1,2"),
    ])
    def test_frames_outside_the_sequence_named(self, tmp_path, capsys, command, key, value):
        assert cli.main([command, *COMMON, "--set", f"{key}={value}",
                         "--set", f"paths.out_dir={tmp_path}",
                         "--set", f"paths.dataset={tmp_path / 'ds.csv'}",
                         "--set", f"paths.model={tmp_path / 'model.txt'}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_rotation_draw_past_pi_names_the_sigmas(self, tmp_path, capsys):
        ds = tmp_path / "ds.csv"
        assert cli.main(["generate", *COMMON, "--set", "montecarlo.n=20",
                         "--set", "perturbation.sigma_phi=120",
                         "--set", "perturbation.sigma_theta=120",
                         "--set", f"paths.dataset={ds}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: perturbation.sigma_phi/sigma_theta/sigma_psi: "
                              "drew a rotation of ")
        assert err.endswith(" rad, at or past pi\n") and err.count("\n") == 1
        assert not ds.exists()

    def test_synth_requires_synthetic(self):
        assert cli.main(["synth", "--set", "sequence.kind=kitti"]) == 1


class TestDataErrors:
    def test_missing_dataset(self, tmp_path):
        missing = tmp_path / "missing.csv"
        assert cli.main(["train", *COMMON, "--set", f"paths.dataset={missing}"]) == 2

    def test_missing_model(self, tmp_path):
        ds = tmp_path / "ds.csv"
        handcrafted_dataset(ds, n_frames=1)
        missing = tmp_path / "missing.txt"
        assert cli.main(["eval", *COMMON,
                         "--set", f"paths.dataset={ds}",
                         "--set", f"paths.model={missing}",
                         "--set", f"paths.report={tmp_path / 'report.txt'}"]) == 2
        assert list(tmp_path.iterdir()) == [ds]

    # window 0 at this density leaves a local map of 2 points, too few for
    # the normals point-to-plane ICP needs; fuse starts at frame 1
    @pytest.mark.parametrize("command, frame", [("generate", 0), ("fuse", 1)])
    def test_local_map_too_small_for_normals(self, tmp_path, capsys, command, frame):
        assert cli.main([command, "--set", "sequence.scene=room",
                         "--set", "sequence.density=0.008", "--set", "sequence.n_frames=3",
                         "--set", "map.window_before=0", "--set", "map.window_after=0",
                         "--set", "fusion.modes=icp_only",
                         "--set", f"paths.dataset={tmp_path / 'ds.csv'}",
                         "--set", f"paths.out_dir={tmp_path / 'out'}"]) == 2
        assert capsys.readouterr().err == (
            f"data error: frame {frame}: local map has 2 points, too few for normals (need 4)\n")
        assert not (tmp_path / "out").exists()

    def test_huge_pose_translation_names_the_frame(self, tmp_path, capsys):
        # 1e160 added to every translation puts the map's voxel keys past
        # int64; the fault is the data's, reported with no warning line
        out = tmp_path / "kitti"
        assert cli.main(["synth", "--set", "sequence.scene=plane", "--set", "sequence.density=1",
                         "--set", "sequence.n_frames=2", "--set", f"paths.out_dir={out}"]) == 0
        poses = out / "poses.txt"
        rows = np.loadtxt(poses, ndmin=2)
        rows[:, 3::4] += 1e160
        np.savetxt(poses, rows, fmt="%.17g")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["generate", "--set", "sequence.kind=kitti",
                           "--set", f"sequence.scan_dir={out / 'scans'}",
                           "--set", f"sequence.pose_file={poses}",
                           "--set", f"paths.dataset={tmp_path / 'ds.csv'}"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "data error: frame 0: coordinates up to 1e+160 give voxel keys past the int64 "
            "range at voxel_size 1.0\n")
        assert not (tmp_path / "ds.csv").exists()

    def test_far_off_pose_names_the_frame(self, tmp_path, capsys):
        # 1e15 m added to frame 1 keeps the voxel keys inside int64, but the
        # grid of frame 0's map, which spans frames 0 and 1, has over
        # 2**63 - 1 cells: the data's extent, not the voxel setting, is at fault
        out = tmp_path / "kitti"
        assert cli.main(["synth", "--set", "sequence.scene=plane", "--set", "sequence.density=1",
                         "--set", "sequence.n_frames=3", "--set", f"paths.out_dir={out}"]) == 0
        poses = out / "poses.txt"
        rows = np.loadtxt(poses, ndmin=2)
        rows[1, 3::4] += 1e15
        np.savetxt(poses, rows, fmt="%.17g")
        capsys.readouterr()
        rc = cli.main(["generate", "--set", "sequence.kind=kitti",
                       "--set", f"sequence.scan_dir={out / 'scans'}",
                       "--set", f"sequence.pose_file={poses}",
                       "--set", f"paths.dataset={tmp_path / 'ds.csv'}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: frame 0: voxel_size 1.0 gives a grid of ")
        assert err.endswith(" cells, over 2**63 - 1\n") and err.count("\n") == 1
        assert not (tmp_path / "ds.csv").exists()

    # one non-numeric value per field kind: (line, comma-separated column, text)
    @pytest.mark.parametrize("line, column, text", [
        (1, 1, "one"),
        (2, 0, "seed=s21"),
        (3, 0, "zero"),
        (4, 1, "6.5"),
        (5, 2, "none"),
        (6, 3, "1e-2x"),
        (6, 29, "0y"),
    ], ids=["version", "seed", "frame_id", "n_valid", "diverged", "covariance", "mean_twist"])
    def test_non_numeric_field(self, tmp_path, capsys, line, column, text):
        path = tmp_path / "ds.csv"
        handcrafted_dataset(path)
        lines = path.read_text().splitlines()
        row = lines[line - 1].split(",")
        row[column] = text
        lines[line - 1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["train", *COMMON, *TRAIN, "--set", f"paths.dataset={path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}:{line}: ")
        assert err.count("\n") == 1

    def _bad_poses(self, tmp, ws, first):
        out = tmp / "kitti"
        assert cli.main(["synth", "--set", "sequence.scene=plane", "--set", "sequence.density=1",
                         "--set", "sequence.n_frames=2", "--set", f"paths.out_dir={out}"]) == 0
        poses = out / "poses.txt"
        lines = poses.read_text().splitlines()
        lines[1] = f"{first} " + lines[1].split(" ", 1)[1]
        poses.write_text("\n".join(lines) + "\n")
        argv = ["generate", "--set", "sequence.kind=kitti",
                "--set", f"sequence.scan_dir={out / 'scans'}",
                "--set", f"sequence.pose_file={poses}"]
        return argv, f"{poses}:2: "

    def _cut_model(self, tmp, ws, keep):
        model = tmp / "cut.txt"
        lines = (ws["root"] / "model.txt").read_text().splitlines()
        model.write_text("\n".join(lines[:keep]) + "\n")
        argv = ["eval", *COMMON, "--set", f"paths.dataset={ws['root'] / 'train_ds.csv'}",
                "--set", f"paths.model={model}", "--set", f"paths.report={tmp / 'r.txt'}"]
        return argv, f"{model}: missing key "

    def _edit_model(self, tmp, ws, edit):
        key, value = edit
        model = tmp / "edited.txt"
        lines = [f"{key}={value}" if ln.startswith(f"{key}=") else ln
                 for ln in (ws["root"] / "model.txt").read_text().splitlines()]
        model.write_text("\n".join(lines) + "\n")
        argv = ["eval", *COMMON, "--set", f"paths.dataset={ws['root'] / 'train_ds.csv'}",
                "--set", f"paths.model={model}", "--set", f"paths.report={tmp / 'r.txt'}"]
        return argv, f"{model}: key {key!r}"

    def _non_finite_label(self, tmp, ws, text):
        path = tmp / "ds.csv"
        handcrafted_dataset(path)
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[5] = text
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        return ["train", *COMMON, *TRAIN, "--set", f"paths.dataset={path}"], f"{path}:4: "

    # one corrupted input per reader: exit 2, one line naming the file
    @pytest.mark.parametrize("corrupt, arg", [
        ("_bad_poses", "abc"),
        ("_bad_poses", "2"),
        ("_cut_model", 2),
        ("_cut_model", 6),
        ("_non_finite_label", "nan"),
        ("_non_finite_label", "-inf"),
        ("_edit_model", ("b1", "zz")),
        ("_edit_model", ("b1", "0 0")),
        ("_edit_model", ("b2", " ".join(["nan"] + ["0"] * 20))),
        ("_edit_model", ("w2", " ".join(["0"] * 99 + ["-inf"] + ["0"] * 1244))),
        ("_edit_model", ("feat_scale", " ".join(["1"] * 31 + ["0"]))),
        ("_edit_model", ("feat_scale", " ".join(["-2"] + ["1"] * 31))),
    ], ids=["pose_non_numeric", "pose_not_a_rotation",
            "model_cut_after_line_2", "model_cut_after_line_6",
            "dataset_nan_covariance", "dataset_inf_covariance",
            "model_non_numeric_weight", "model_wrong_length_vector",
            "model_nan_weight", "model_inf_weight", "model_zero_feat_scale",
            "model_negative_feat_scale"])
    def test_corrupt_input_is_a_data_error(self, ws, tmp_path, capsys, corrupt, arg):
        argv, where = getattr(self, corrupt)(tmp_path, ws, arg)
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {where}")
        assert err.count("\n") == 1

    def test_header_only_dataset(self, ws):
        empty = ws["root"] / "empty.csv"
        write_dataset(empty, {}, [])
        assert cli.main(["train", *COMMON, *TRAIN,
                         "--set", f"paths.dataset={empty}"]) == 2


class TestNumericErrors:
    def test_non_pd_label_fails_eval(self, ws):
        bad = ws["root"] / "bad.csv"
        write_dataset(bad, {}, [CovRecord(0, 50, -np.eye(6), 0, 0, np.zeros(6))])
        rc = cli.main(["eval", *COMMON,
                       "--set", f"paths.dataset={bad}",
                       "--set", f"paths.model={ws['root'] / 'model.txt'}"])
        assert rc == 3


    def test_training_blow_up_names_the_step(self, ws, capsys):
        # the default rate with augmentation diverges on these Monte-Carlo
        # labels within 60 steps; the overflow reaches the head's Cholesky
        model = ws["root"] / "blown.txt"
        rc = cli.main(["train", *COMMON, "--set", "train.steps=60",
                       "--set", "train.batch_size=4",
                       "--set", f"paths.dataset={ws['root'] / 'ds.csv'}",
                       "--set", f"paths.model={model}"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == ("numeric error: training step 19: "
                       "KL predicted covariance has non-finite entries\n")
        assert not model.exists()

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_finite_feature_in_a_worker(self, ws, monkeypatch, capsys, command, threads):
        # a finite scan whose ranges overflow (|p| past ~1e154) while its
        # scatter stays finite; it carries normals, so none are estimated
        rng = np.random.default_rng(0)
        huge = cloud.PointCloud(1e155 + 1e150 * rng.normal(size=(200, 3)),
                                np.tile([0.0, 0.0, 1.0], (200, 1)))
        monkeypatch.setattr(cloud.MapSetup, "scan", lambda self, sequence, k: huge)
        monkeypatch.chdir(ws["root"])
        paths = {"train": ["--set", "paths.model=model_huge.txt"],
                 "eval": ["--set", "paths.model=model.txt",
                          "--set", "paths.report=report_huge.txt"]}
        with warnings.catch_warnings():  # the overflow warns in the worker threads
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = cli.main([command, *COMMON, "--threads", threads,
                           "--set", "paths.dataset=train_ds.csv", *paths[command]])
        assert rc == 3
        assert capsys.readouterr().err == "numeric error: non-finite feature encountered\n"
        assert not (ws["root"] / "model_huge.txt").exists()
        assert not (ws["root"] / "report_huge.txt").exists()

    def test_training_blow_up_raises_no_warning(self, ws):
        # the same divergence, with every numpy warning turned into an error:
        # the finite checks must be what stops training
        _, recs = read_dataset(ws["root"] / "ds.csv")
        seq = make_synthetic_scene("room", density=4, n_frames=4, seed=11)
        samples = [(r, voxel_downsample(seq.scan(r.frame_id), 0.3)) for r in recs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="training step"):
                train(samples, TrainConfig(steps=60, batch_size=4))


class TestSynth:
    def test_writes_scans_poses_manifest(self, tmp_path, capsys):
        out = tmp_path / "synth"
        rc = cli.main(["synth", "--set", "sequence.scene=plane",
                       "--set", "sequence.density=1", "--set", "sequence.n_frames=2",
                       "--set", f"paths.out_dir={out}"])
        assert rc == 0
        assert "wrote 2 scans" in capsys.readouterr().out
        scan = load_kitti_scan(out / "scans" / "000000.bin")
        assert len(scan.points) > 100
        assert (out / "scans" / "000001.bin").exists()
        poses = load_kitti_poses(out / "poses.txt")
        assert len(poses) == 2
        manifest = (out / "manifest.txt").read_text()
        assert "sequence.scene=plane" in manifest
        assert "n_frames=2" in manifest

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[sequence]\nscene = plane\ndensity = 1\nn_frames = 1\n"
            f"[paths]\nout_dir = {tmp_path / 'out'}\n"
        )
        rc = cli.main(["synth", "--config", str(cfg), "--set", "sequence.density=2"])
        assert rc == 0
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "sequence.density=2.0" in manifest
        assert "sequence.scene=plane" in manifest

    def test_synth_feeds_kitti_ingestion(self, tmp_path):
        out = tmp_path / "kitti"
        assert cli.main(["synth", "--set", "sequence.scene=room",
                         "--set", "sequence.density=2", "--set", "sequence.n_frames=2",
                         "--set", "sequence.seed=6", "--set", f"paths.out_dir={out}"]) == 0
        ds = tmp_path / "kitti_ds.csv"
        rc = cli.main(["generate",
                       "--set", "sequence.kind=kitti",
                       "--set", f"sequence.scan_dir={out / 'scans'}",
                       "--set", f"sequence.pose_file={out / 'poses.txt'}",
                       "--set", "map.window_before=1", "--set", "map.window_after=1",
                       "--set", "map.map_voxel=0.4", "--set", "map.scan_voxel=0.3",
                       "--set", "icp.max_iterations=8", "--set", "montecarlo.n=4",
                       "--set", "montecarlo.frames=0:1",
                       "--set", f"paths.dataset={ds}"])
        assert rc == 0
        meta, recs = read_dataset(ds)
        assert [(r.frame_id, r.n) for r in recs] == [(0, 4)]
        assert meta["sequence.kind"] == "kitti"


class TestGenerate:
    def test_chain_exit_codes(self, ws):
        assert ws["rcs"] == {"generate": 0, "train": 0, "eval": 0, "fuse": 0}

    def test_dataset_contents(self, ws):
        meta, recs = read_dataset(ws["root"] / "ds.csv")
        assert [r.frame_id for r in recs] == [0, 1, 2, 3]
        assert all(r.n == 6 for r in recs)
        assert meta["seed"] == "21"
        assert meta["montecarlo.seed"] == "21"
        for r in recs:
            assert np.linalg.eigvalsh(r.covariance)[0] >= -1e-12

    def test_rerun_is_byte_identical(self, ws, monkeypatch):
        rerun = ws["root"] / "rerun"
        rerun.mkdir()
        monkeypatch.chdir(rerun)
        assert cli.main(["generate", *COMMON, *GENERATE,
                         "--set", "paths.dataset=ds.csv"]) == 0
        assert (rerun / "ds.csv").read_bytes() == (ws["root"] / "ds.csv").read_bytes()

    def test_thread_count_does_not_change_output(self, ws, monkeypatch):
        rerun = ws["root"] / "rerun_threads"
        rerun.mkdir()
        monkeypatch.chdir(rerun)
        for threads in ("1", "3"):  # ws ran at the default
            assert cli.main(["generate", *COMMON, *GENERATE, "--threads", threads,
                             "--set", "paths.dataset=ds.csv"]) == 0
            assert (rerun / "ds.csv").read_bytes() == (ws["root"] / "ds.csv").read_bytes()

    def test_one_index_per_labelled_frame(self, ws, monkeypatch, tmp_path):
        # the frames are labelled in forked workers: read what they logged
        spy_map_builds(monkeypatch, tmp_path / "builds.log")
        monkeypatch.chdir(ws["root"])
        assert cli.main(["generate", *COMMON, *GENERATE, "--threads", "2",
                         "--set", "paths.dataset=ds_indexed.csv"]) == 0
        maps, indexed = logged_map_builds(tmp_path / "builds.log")
        assert sorted(k for k, _ in maps) == [0, 1, 2, 3]
        assert sorted(indexed) == sorted(digest for _, digest in maps)

    def test_empty_frame_range(self, ws, monkeypatch, capsys):
        # a dataset of no records is one read_dataset refuses: none is written
        monkeypatch.chdir(ws["root"])
        rc = cli.main(["generate", *COMMON, *GENERATE,
                       "--set", "montecarlo.frames=0:0",
                       "--set", "paths.dataset=none.csv"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: montecarlo.frames ")
        assert not (ws["root"] / "none.csv").exists()


class TestTrainEval:
    def test_model_and_trace_written(self, ws):
        model, info = load_model(ws["root"] / "model.txt")
        assert model.w1.shape == (64, 32)
        assert info["train_steps"] == "120"
        assert info["cfg_sequence.scene"] == "room"
        trace = (ws["root"] / "model.loss").read_text().strip().split("\n")
        assert trace[0] == "step,loss"
        assert len(trace) == 121
        first = float(trace[1].split(",")[1])
        last = float(trace[-1].split(",")[1])
        assert last < first

    def test_augment_off_matches_zero_ranges(self, ws, monkeypatch):
        monkeypatch.chdir(ws["root"])
        quick = ["--set", "train.steps=25", "--set", "train.batch_size=4",
                 "--set", "train.seed=5", "--set", "paths.dataset=train_ds.csv"]
        assert cli.main(["train", *COMMON, *quick, "--set", "train.augment=false",
                         "--set", "paths.model=m_off.txt"]) == 0
        assert cli.main(["train", *COMMON, *quick, "--set", "train.augment=true",
                         "--set", "train.augment_xy=0", "--set", "train.augment_yaw_deg=0",
                         "--set", "paths.model=m_zero.txt"]) == 0
        a = (ws["root"] / "m_off.txt").read_text()
        b = (ws["root"] / "m_zero.txt").read_text()
        # config echo differs by construction; weights must not
        head = a.index("train_alpha")
        assert a[:head] == b[:head]

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_thread_count_does_not_change_the_chain(self, ws, tmp_path, threads):
        # the chain writes the bytes ws wrote at the default count
        assert set(run_room_chain(tmp_path, "--threads", threads).values()) == {0}
        names = ["model.txt", "model.loss", "report.txt", "fuse_out/fusion_table.csv",
                 *(f"fuse_out/trajectory_{m}.txt" for m in ("icp_only", "fixed_cov",
                                                            "predicted_cov"))]

        def digests(root):
            return {n: hashlib.sha256((root / n).read_bytes()).hexdigest() for n in names}

        assert digests(tmp_path) == digests(ws["root"])

    def test_eval_report(self, ws):
        report = (ws["root"] / "report.txt").read_text()
        assert "# sequence.scene=room" in report
        kl = float([l for l in report.splitlines() if l.startswith("mean_kl:")][0].split()[1])
        assert 0.0 <= kl < 0.5
        # the text block ends the report; no CSV block follows it
        assert report.splitlines()[-1].startswith("mae_upper: ")
        assert "sample_count," not in report

    def test_eval_features_use_map_normal_k(self, ws, monkeypatch):
        monkeypatch.chdir(ws["root"])
        assert cli.main(["eval", *COMMON, "--set", "map.normal_k=6",
                         "--set", "paths.dataset=train_ds.csv", "--set", "paths.model=model.txt",
                         "--set", "paths.report=report_k6.txt"]) == 0
        trained, _ = load_model("model.txt")
        _, recs = read_dataset("train_ds.csv")
        seq = make_synthetic_scene("room", density=4, n_frames=4, seed=11)
        scans = [voxel_downsample(seq.scan(r.frame_id), 0.3) for r in recs]
        preds = [params_to_cov(trained.forward(extract_features(s, 6)[None])[2][0])
                 for s in scans]
        expected = metrics.report_text(metrics.evaluate(preds, [r.covariance for r in recs]))
        default_k = [predict(trained, s) for s in scans]
        assert not np.allclose(preds, default_k, rtol=0, atol=1e-12)
        assert (ws["root"] / "report_k6.txt").read_text().endswith(expected)


class TestFuse:
    def test_outputs(self, ws):
        out = ws["root"] / "fuse_out"
        table = (out / "fusion_table.csv").read_text()
        rows = [l for l in table.splitlines() if not l.startswith("#")]
        assert rows[0] == "method,ade,fde"
        methods = []
        for row in rows[1:]:
            mode, a, d = row.split(",")
            methods.append(mode)
            assert np.isfinite(float(a)) and float(a) >= 0.0
            assert np.isfinite(float(d)) and float(d) >= 0.0
        assert methods == ["icp_only", "fixed_cov", "predicted_cov"]
        for mode in methods:
            traj = read_trajectory(out / f"trajectory_{mode}.txt")
            assert traj.frame_ids == [0, 1, 2, 3]

    def test_rerun_matches(self, ws, monkeypatch):
        rerun = ws["root"] / "refuse"
        rerun.mkdir()
        shutil.copy(ws["root"] / "train_ds.csv", rerun / "train_ds.csv")
        shutil.copy(ws["root"] / "model.txt", rerun / "model.txt")
        monkeypatch.chdir(rerun)
        rc = cli.main(["fuse", *COMMON,
                       "--set", "paths.dataset=train_ds.csv",
                       "--set", "paths.model=model.txt",
                       "--set", "paths.out_dir=fuse_out",
                       "--set", "fusion.seed=3"])
        assert rc == 0
        for mode in ("icp_only", "fixed_cov", "predicted_cov"):
            a = (rerun / "fuse_out" / f"trajectory_{mode}.txt").read_bytes()
            b = (ws["root"] / "fuse_out" / f"trajectory_{mode}.txt").read_bytes()
            assert a == b

    def test_single_mode_needs_no_artifacts(self, tmp_path, capsys):
        rc = cli.main(["fuse", *COMMON,
                       "--set", "fusion.modes=icp_only",
                       "--set", "fusion.seed=3",
                       "--set", f"paths.out_dir={tmp_path}",
                       "--set", f"paths.dataset={tmp_path / 'missing.csv'}",
                       "--set", f"paths.model={tmp_path / 'missing.txt'}"])
        assert rc == 0
        assert "icp_only" in capsys.readouterr().out
        assert (tmp_path / "trajectory_icp_only.txt").exists()
        assert not (tmp_path / "trajectory_fixed_cov.txt").exists()
        assert not (tmp_path / "missing.csv").exists() and not (tmp_path / "missing.txt").exists()

    @pytest.mark.parametrize("frames", ["3,1", "1,1,3"])
    def test_frames_are_tracked_ascending_and_once(self, tmp_path, frames):
        assert cli.main(["fuse", *COMMON, "--set", "fusion.modes=icp_only",
                         "--set", f"fusion.frames={frames}",
                         "--set", f"paths.out_dir={tmp_path}"]) == 0
        assert read_trajectory(tmp_path / "trajectory_icp_only.txt").frame_ids == [1, 3]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_all_modes_build_each_map_once(self, ws, monkeypatch, tmp_path, threads):
        maps, indexed = spy_map_builds(monkeypatch, tmp_path / "builds.log")
        monkeypatch.chdir(ws["root"])
        assert cli.main(["fuse", *COMMON, "--threads", threads,
                         "--set", "paths.dataset=train_ds.csv", "--set", "paths.model=model.txt",
                         "--set", "paths.out_dir=fuse_once", "--set", "fusion.seed=3"]) == 0
        if threads == "1":
            assert [k for k, _ in maps] == [1, 2, 3]
            assert indexed == [m for _, m in maps]
        else:  # frames are prepared ahead, in any order, in forked workers
            maps, indexed = logged_map_builds(tmp_path / "builds.log")
            assert sorted(k for k, _ in maps) == [1, 2, 3]
            assert sorted(indexed) == sorted(digest for _, digest in maps)

    # a missing input exits 2 before the output directory is made
    @pytest.mark.parametrize("mode", ["predicted_cov", "fixed_cov"])
    def test_filtered_mode_requires_its_input_file(self, tmp_path, mode):
        out_dir = tmp_path / "out"
        rc = cli.main(["fuse", *COMMON,
                       "--set", f"fusion.modes={mode}",
                       "--set", f"paths.out_dir={out_dir}",
                       "--set", f"paths.dataset={tmp_path / 'missing.csv'}",
                       "--set", f"paths.model={tmp_path / 'missing.txt'}"])
        assert rc == 2
        assert not out_dir.exists()
