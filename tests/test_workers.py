"""workers.Pool keeps the serial loop's fault order; generate_dataset and
run_fusion on forked worker processes: the bytes do not depend on the
worker count, and no worker outlives its call."""
import multiprocessing
import os
import signal
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from licov import mcgen, workers
from licov.cloud import MapSetup
from licov.errors import NoCorrespondences, NumericError
from licov.fusion import MODES, FusionSetup, run_fusion
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


def task(log, place, seconds=0.0, fault=None):
    """A pool task: logs its place to the context's file, sleeps, then
    raises NumericError(fault) or returns its place."""
    with open(log, "a") as f:
        f.write(f"{place}\n")
    time.sleep(seconds)
    if fault:
        raise NumericError(fault)
    return place


def started(log):
    return [int(line) for line in log.read_text().split()]


@pytest.mark.parametrize("threads", [1, 2])
class TestPool:
    def test_a_place_after_a_fault_is_refused(self, tmp_path, threads):
        log = tmp_path / "started.log"
        with pytest.raises(NumericError, match="caller's fault at 2"):
            with workers.Pool(threads, 4, log) as pool:
                pool.fail(2, NumericError("caller's fault at 2"))
                assert pool.allows(1) and not pool.allows(2) and not pool.allows(3)
                pool.submit(3, task, 3)
                pool.submit(1, task, 1)
                assert list(pool.results()) == [(1, 1)]
        assert started(log) == [1]

    def test_fail_cancels_the_queued_later_tasks(self, tmp_path, threads):
        log = tmp_path / "started.log"
        with pytest.raises(NumericError, match="caller's fault at 2"):
            with workers.Pool(threads, 2, log) as pool:
                for place in (0, 1):
                    pool.submit(place, task, place, 0.3)
                for place in range(3, 10):
                    pool.submit(place, task, place)
                pool.fail(2, NumericError("caller's fault at 2"))
                assert sorted(pool.results()) == [(0, 0), (1, 1)]
        # a process pool hands up to workers + 1 queued tasks to its workers
        # ahead of time; those start, the others were cancelled
        assert {0, 1} <= set(started(log)) <= {0, 1, 3, 4, 5}

    def test_the_earliest_fault_is_raised(self, tmp_path, threads):
        # place 2 fails at once, place 1 after 0.3 s
        log = tmp_path / "started.log"
        with pytest.raises(NumericError, match="slow fault at 1"):
            with workers.Pool(threads, 2, log) as pool:
                pool.submit(1, task, 1, 0.3, "slow fault at 1")
                pool.submit(2, task, 2, 0.0, "fast fault at 2")
                assert list(pool.results()) == []


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


def test_skipped_frame_keeps_its_place(room, tmp_path, monkeypatch):
    # every sample of frame 2 diverges; frame 4 faults in the second part
    label = mcgen.run_monte_carlo
    faults = set()

    def labelled(*args, frame_id, **kwargs):
        def align(source, index, initial, cfg):
            if frame_id == 2:
                raise NoCorrespondences("stub divergence")
            return SimpleNamespace(estimate=initial)

        if frame_id in faults:
            raise NumericError(f"stub fault at frame {frame_id}")
        return label(*args, frame_id=frame_id, align=align, **kwargs)

    monkeypatch.setattr(mcgen, "run_monte_carlo", labelled)
    reason = "frame 2: 0 of 6 samples valid, need at least 2"
    for threads in (1, 2):
        told = []
        summary = generate(room, tmp_path / f"{threads}.csv", threads,
                           lambda f, record: told.append((f, record is None)))
        assert told == [(f, f == 2) for f in range(len(room))]
        assert summary.skipped == [(2, reason)]
    data = (tmp_path / "1.csv").read_bytes()
    assert data == (tmp_path / "2.csv").read_bytes()
    assert f"# frame 2 skipped: {reason}\n".encode() in data

    faults.add(4)
    for threads in (1, 2):
        told = []
        with pytest.raises(NumericError, match="stub fault at frame 4"):
            generate(room, tmp_path / f"fault{threads}.csv", threads,
                     lambda f, record: told.append((f, record is None)))
        assert told == [(0, False), (1, False), (2, True), (3, False)]
        assert not (tmp_path / f"fault{threads}.csv").exists()


def test_fusion_forks_what_it_can_run_at_once(room, monkeypatch):
    # at most three frames' preparations and one align per mode are in flight
    sizes = []

    class Spy(workers.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    def align(source, index, initial, cfg):
        return SimpleNamespace(estimate=initial)

    monkeypatch.setattr(workers, "ProcessPoolExecutor", Spy)
    run_fusion(room, range(len(room)), SETUP, align=align, threads=8, **KW)
    assert sizes == [len(MODES) + 3]


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
