"""generate_dataset and run_fusion on forked worker processes: the bytes do
not depend on the worker count, and no worker outlives its call."""
import multiprocessing
import os
import signal
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from licov import mcgen
from licov.cloud import MapSetup
from licov.errors import NumericError
from licov.fusion import FusionSetup, run_fusion
from licov.icp import IcpConfig, icp_point_to_plane
from licov.mcgen import PerturbationSpec, generate_dataset
from licov.model import RegressionModel, cov_to_params
from licov.scenes import make_synthetic_scene

MAP = MapSetup(1, 1, map_voxel=0.4, scan_voxel=0.3)
SETUP = FusionSetup(map=MAP, seed=3)
KW = {"model": RegressionModel(np.zeros(32), np.ones(32), np.zeros((64, 32)), np.zeros(64),
                               np.zeros((21, 64)), cov_to_params(3e-4 * np.eye(6))),
      "fixed_cov": 1e-4 * np.eye(6)}


@pytest.fixture(scope="module")
def room():
    return make_synthetic_scene("room", density=4, seed=7, n_frames=5)


def log_pid(log):
    with open(log, "a") as f:
        f.write(f"{os.getpid()}\n")


def pids(log):
    return set(map(int, log.read_text().split()))


def generate(room, path, threads, progress=None):
    return generate_dataset(room, range(len(room)), PerturbationSpec(0.1, 0.1, 0.1, 2, 2, 2), 6,
                            IcpConfig(max_iterations=8), 21, path, setup=MAP, threads=threads,
                            progress=progress)


@pytest.mark.parametrize("threads", [2, 3])
def test_generate_bytes_do_not_depend_on_workers(room, tmp_path, monkeypatch, threads):
    label = mcgen.run_monte_carlo

    def logged(*args, **kwargs):
        log_pid(tmp_path / f"pids{kwargs['frame_id']}")
        return label(*args, **kwargs)

    monkeypatch.setattr(mcgen, "run_monte_carlo", logged)
    generate(room, tmp_path / "one.csv", 1)
    assert set.union(*(pids(p) for p in tmp_path.glob("pids*"))) == {os.getpid()}
    for p in tmp_path.glob("pids*"):
        p.unlink()
    generate(room, tmp_path / "many.csv", threads)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "many.csv").read_bytes()
    # every frame was labelled in a forked worker
    workers = set.union(*(pids(p) for p in tmp_path.glob("pids*")))
    assert len(list(tmp_path.glob("pids*"))) == len(room) and os.getpid() not in workers


@pytest.mark.parametrize("threads", [2, 3])
def test_fusion_bytes_do_not_depend_on_workers(room, tmp_path, threads):
    def logged_icp(log):
        def align(source, index, initial, cfg):
            log_pid(log)
            return icp_point_to_plane(source, index, initial, cfg)
        return align

    runs = {}
    for t in (1, threads):
        trajs = run_fusion(room, range(len(room)), SETUP, align=logged_icp(tmp_path / str(t)),
                           threads=t, **KW)
        runs[t] = {mode: [p.R.tobytes() + p.t.tobytes() for p in traj.poses]
                   for mode, traj in trajs.items()}
    assert runs[1] == runs[threads]
    assert pids(tmp_path / "1") == {os.getpid()}
    assert os.getpid() not in pids(tmp_path / str(threads))


def test_no_worker_outlives_generate(room, tmp_path, monkeypatch, capfd):
    alive = []

    def progress(frame, record):
        alive.append(len(multiprocessing.active_children()))

    generate(room, tmp_path / "ok.csv", 2, progress)
    assert min(alive) >= 1 and not multiprocessing.active_children()

    label = mcgen.run_monte_carlo

    def faulty(*args, frame_id, **kwargs):
        if frame_id == 2:
            raise NumericError("stub fault at frame 2")
        return label(*args, frame_id=frame_id, **kwargs)

    monkeypatch.setattr(mcgen, "run_monte_carlo", faulty)
    with pytest.raises(NumericError, match="stub fault at frame 2"):
        generate(room, tmp_path / "fault.csv", 2)
    assert not multiprocessing.active_children()

    def interrupt(frame, record):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        generate(room, tmp_path / "interrupt.csv", 2, interrupt)
    assert not multiprocessing.active_children()
    assert not any((tmp_path / name).exists() for name in ("fault.csv", "interrupt.csv"))
    out, err = capfd.readouterr()
    assert "Traceback" not in out + err


def test_no_worker_outlives_fusion(room, capfd):
    def slow(source, index, initial, cfg):
        time.sleep(0.1)
        return SimpleNamespace(estimate=initial)

    def faulty(source, index, initial, cfg):
        raise NumericError("stub align fault")

    run_fusion(room, range(len(room)), SETUP, align=slow, threads=2, **KW)
    assert not multiprocessing.active_children()
    with pytest.raises(NumericError, match="stub align fault"):
        run_fusion(room, range(len(room)), SETUP, align=faulty, threads=2, **KW)
    assert not multiprocessing.active_children()

    # Ctrl-C signals every process of the pool; only this one acts on it
    signalled = []

    def ctrl_c():
        signalled.extend(multiprocessing.active_children())
        for child in signalled:
            os.kill(child.pid, signal.SIGINT)
        os.kill(os.getpid(), signal.SIGINT)

    timer = threading.Timer(0.4, ctrl_c)
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_fusion(room, range(len(room)), SETUP, align=slow, threads=2, **KW)
    finally:
        timer.cancel()
    assert len(signalled) == 2 and not multiprocessing.active_children()
    out, err = capfd.readouterr()
    assert "Traceback" not in out + err
