"""Whole-pipeline acceptance checks.

Each test prints one "ACCEPTANCE <n> PASS/FAIL: ..." line before its
assertion, so a run with -s shows the verdict for every criterion it
reached. The checks pin end-to-end behavior rather than unit contracts:
Lie-math accuracy, ICP convergence at full perturbation scale, the
Monte-Carlo estimator against a known ground-truth covariance, scene
conditioning, analytic gradients, training sanity, fusion mode ordering,
CLI determinism, and PSD safety under fuzzing.
"""
import math
import os
import shutil
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from licov import cli, se3
from licov.cloud import MapSetup, NeighborIndex, PointCloud, build_local_map, voxel_downsample
from licov.fusion import (
    FusionSetup,
    FusionState,
    MotionInput,
    Trajectory,
    ade,
    ekf_predict,
    ekf_update,
    run_fusion,
)
from licov.icp import IcpConfig, icp_point_to_plane
from licov.mcgen import (
    CovRecord,
    PerturbationSpec,
    average_covariance,
    generate_dataset,
    run_monte_carlo,
    sample_perturbation,
)
from licov.model import (
    TrainConfig,
    _sampling_p,
    head_loss_and_grad,
    loss_kl,
    params_to_cov,
    train,
)
from licov.scenes import make_synthetic_scene

from conftest import random_pose, random_spd


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


def central_fd(fn, x, step=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return g


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(1e-6, np.maximum(np.abs(a), np.abs(b)))


def binom_tail(wins, n):
    """One-sided sign test: P(X >= wins) for X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0**n


def test_acceptance_01_lie_roundtrips_and_adjoint():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_rt = 0.0
    worst_adj = 0.0
    for _ in range(1000):
        u = rng.uniform(-10.0, 10.0, 3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        xi = np.concatenate([u, rng.uniform(0.0, 3.0) * axis])
        worst_rt = max(worst_rt, float(np.max(np.abs(se3.log(se3.exp(xi)) - xi))))

        v = rng.uniform(-5.0, 5.0, 3)
        axis2 = rng.normal(size=3)
        axis2 /= np.linalg.norm(axis2)
        T = se3.exp(np.concatenate([v, rng.uniform(0.0, 2.5) * axis2]))
        lhs = se3.exp(se3.adjoint(T) @ xi).matrix()
        rhs = (T @ se3.exp(xi) @ se3.inverse(T)).matrix()
        worst_adj = max(worst_adj, float(np.max(np.abs(lhs - rhs))))
    dt = time.perf_counter() - t0
    ok = worst_rt <= 1e-8 and worst_adj <= 1e-8 and dt < 5.0
    _report(1, ok, f"1000 exp/log round trips max |err| {worst_rt:.1e}, "
                   f"adjoint conjugation max |err| {worst_adj:.1e}, {dt:.2f}s")
    assert ok


def test_acceptance_02_icp_recovery_full_scale():
    t0 = time.perf_counter()
    seq = make_synthetic_scene("room", seed=0)
    k = 5
    local_map = build_local_map(seq.scans, seq.poses, k, MapSetup(1, 1, 0.2, normal_k=10))
    scan = voxel_downsample(seq.scan(k), 0.1)
    pose = seq.pose(k)

    spec = PerturbationSpec()  # 1 m on each axis, 5 degrees on each angle
    cfg = IcpConfig(max_iterations=50)
    rng = np.random.default_rng(42)
    hits = 0
    index = NeighborIndex(local_map)
    for _ in range(100):
        start = se3.exp(sample_perturbation(spec, rng)) @ pose
        res = icp_point_to_plane(scan, index, start, cfg)
        err = se3.log(se3.inverse(pose) @ res.estimate)
        if np.linalg.norm(err[:3]) <= 1e-3 and np.linalg.norm(err[3:]) <= 1e-3:
            hits += 1
    dt = time.perf_counter() - t0
    ok = len(scan) >= 5000 and hits >= 95 and dt < 60.0
    _report(2, ok, f"{hits}/100 perturbations corrected to 1e-3 m/rad "
                   f"on a {len(scan)}-point scan, {dt:.1f}s")
    assert ok


def test_acceptance_03_monte_carlo_statistical_oracle():
    # The aligner is replaced by a stub that returns poses drawn from a known
    # covariance, so the estimator's output can be compared to ground truth.
    t0 = time.perf_counter()
    dummy = PointCloud(np.zeros((3, 3)))
    hits = 0
    worst = 0.0
    for s in range(20):
        rng = np.random.default_rng(1000 + s)
        a = rng.normal(size=(6, 6))
        target = 0.005 * (a @ a.T + 6.0 * np.eye(6))
        chol = np.linalg.cholesky(target)
        draws = iter((chol @ rng.standard_normal((5000, 6)).T).T)

        def align(source, tgt, initial, cfg):
            return SimpleNamespace(estimate=se3.exp(next(draws)))

        rec = run_monte_carlo(dummy, dummy, se3.SE3.identity(), PerturbationSpec(),
                              5000, IcpConfig(), seed=s, frame_id=0, align=align)
        rel = float(np.linalg.norm(rec.covariance - target) / np.linalg.norm(target))
        worst = max(worst, rel)
        hits += rel < 0.10
    dt = time.perf_counter() - t0
    ok = hits >= 18 and dt < 30.0
    _report(3, ok, f"{hits}/20 seeds recovered the injected covariance within "
                   f"10% Frobenius (worst {worst:.3f}), {dt:.1f}s")
    assert ok


def test_acceptance_04_scene_conditioning():
    t0 = time.perf_counter()
    cor = make_synthetic_scene("corridor", seed=0)
    lm = build_local_map(cor.scans, cor.poses, 13, MapSetup(1, 1, 0.4, normal_k=10))
    sc = voxel_downsample(cor.scan(13), 0.1)
    rec = run_monte_carlo(sc, NeighborIndex(lm), cor.pose(13), PerturbationSpec(2, 1, 1, 1, 1, 1),
                          200, IcpConfig(), seed=0, frame_id=13)
    var = np.diag(rec.covariance)
    corridor_ratio = float(var[0] / var[1])

    # The room check reads the translation block of the frame-averaged
    # covariance, so the spectrum compares like units (m^2) instead of
    # mixing rad^2 rows whose scale is set by the scene's lever arms.
    room = make_synthetic_scene("room", seed=0)
    recs = []
    for k in range(len(room)):
        lm = build_local_map(room.scans, room.poses, k, MapSetup(1, 1, 0.2, normal_k=10))
        sc = voxel_downsample(room.scan(k), 0.1)
        recs.append(run_monte_carlo(sc, NeighborIndex(lm), room.pose(k), PerturbationSpec(),
                                    200, IcpConfig(), seed=0, frame_id=k))
    w = np.linalg.eigvalsh(average_covariance(recs)[:3, :3])
    room_ratio = float(w[-1] / w[0])
    dt = time.perf_counter() - t0
    ok = corridor_ratio >= 10.0 and room_ratio < 50.0 and dt < 600.0
    _report(4, ok, f"corridor var(u_x)/var(u_y) {corridor_ratio:.1f} (need >= 10), "
                   f"room translation eigenvalue ratio {room_ratio:.1f} (need < 50), "
                   f"{dt:.0f}s")
    assert ok


def test_acceptance_05_analytic_gradients_and_kl_value():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        raw = rng.normal(size=21)
        a = rng.normal(size=(6, 6))
        label = a @ a.T * 0.2 + 1e-3 * np.eye(6)
        _, grad = head_loss_and_grad(raw[None], label[None], alpha=0.1, beta=0.9)
        fd = central_fd(
            lambda r: head_loss_and_grad(r[None], label[None], alpha=0.1, beta=0.9)[0][0], raw)
        worst = max(worst, float(np.max(rel_err(grad[0], fd))))

    closed = loss_kl(2.0 * np.eye(6)[None], np.eye(6)[None])[0]
    kl_err = abs(closed - 3.0 * (2.0 - 1.0 - math.log(2.0)))
    ok = worst < 1e-4 and kl_err <= 1e-9
    _report(5, ok, f"max gradient deviation {worst:.1e} over 20 instances, "
                   f"KL(2I, I) off the closed form by {kl_err:.1e}")
    assert ok


def test_acceptance_06_training_sanity():
    scan = voxel_downsample(make_synthetic_scene("room", seed=0).scan(0), 0.2)
    rng = np.random.default_rng(21)
    a = rng.normal(size=(6, 6)) * 0.3
    label = (a @ a.T + np.eye(6)) * 1e-2
    rec = CovRecord(0, 50, label, 0, 0, np.zeros(6))
    _, losses = train([(rec, scan)], TrainConfig(steps=500, augment=False))
    ratio = losses[-1] / losses[0]

    weights = np.array([1.0, 3.0, 6.0])
    records = [CovRecord(i, 50, w * 1e-2 * np.eye(6), 0, 0, np.zeros(6))
               for i, w in enumerate(weights)]
    idx = np.random.default_rng(5).choice(3, size=100000, replace=True, p=_sampling_p(records))
    counts = np.bincount([records[i].frame_id for i in idx], minlength=3)
    freq_err = float(np.max(np.abs(counts / 100000.0 - weights / weights.sum())))
    ok = ratio < 0.10 and freq_err < 0.01
    _report(6, ok, f"single-record overfit loss ratio {ratio:.4f} after 500 steps, "
                   f"sampling frequency error {freq_err:.4f}")
    assert ok


def test_acceptance_07_fusion_mode_ordering(tmp_path):
    t0 = time.perf_counter()
    cor = make_synthetic_scene("corridor", seed=0)
    frames = list(range(26))
    # Wide sigma_x pushes draws past the corridor's convergence basin, so the
    # labels of poorly constrained frames see the full out-of-basin scatter
    # while the tight y/z sigmas keep well-constrained labels clean.
    spec = PerturbationSpec(1.0, 0.1, 0.1, 1.0, 1.0, 1.0)
    summary = generate_dataset(cor, frames, spec, 40, IcpConfig(), 0,
                               tmp_path / "labels.csv",
                               setup=MapSetup(1, 1, map_voxel=1.0, scan_voxel=0.2))
    recs = summary.records
    samples = [(r, voxel_downsample(cor.scan(r.frame_id), 0.2)) for r in recs]
    cfg = TrainConfig(learning_rate=1e-3, steps=25000, batch_size=16, seed=0,
                      augment=False, init_sigma=0.03, label_floor=1e-4)
    model, _ = train(samples, cfg, normal_k=10)
    fixed = average_covariance(recs)

    setup = FusionSetup(map=MapSetup(1, 1, map_voxel=1.0, scan_voxel=0.2),
                        icp=IcpConfig(), motion_sigma_xyz=0.02)
    truth = Trajectory(frames, [cor.pose(k) for k in frames])
    modes = ("icp_only", "fixed_cov", "predicted_cov")
    ades = {m: [] for m in modes}
    for s in range(20):
        trajs = run_fusion(cor, frames, replace(setup, seed=100 + s), model=model,
                           fixed_cov=fixed)
        for mode in modes:
            ades[mode].append(ade(trajs[mode], truth))
    wins_pf = sum(p < f for p, f in zip(ades["predicted_cov"], ades["fixed_cov"]))
    wins_fi = sum(f < i for f, i in zip(ades["fixed_cov"], ades["icp_only"]))
    p_pf = binom_tail(wins_pf, 20)
    p_fi = binom_tail(wins_fi, 20)
    mean = {m: float(np.mean(v)) for m, v in ades.items()}
    dt = time.perf_counter() - t0
    ok = (mean["predicted_cov"] < mean["fixed_cov"] < mean["icp_only"]
          and p_pf < 0.05 and p_fi < 0.05 and dt < 900.0)
    _report(7, ok, f"mean ADE {mean['predicted_cov']:.4f} (predicted) < "
                   f"{mean['fixed_cov']:.4f} (fixed) < {mean['icp_only']:.4f} (icp) m; "
                   f"sign tests p={p_pf:.1e} ({wins_pf}/20) and p={p_fi:.1e} "
                   f"({wins_fi}/20), {dt:.0f}s")
    assert ok


_SCENE = [
    "--set", "sequence.scene=room", "--set", "sequence.density=4",
    "--set", "sequence.n_frames=4", "--set", "sequence.seed=11",
    "--set", "map.window_before=1", "--set", "map.window_after=1",
    "--set", "map.map_voxel=0.4", "--set", "map.scan_voxel=0.3",
    "--set", "icp.max_iterations=8",
]

_GEN = [
    "--set", "perturbation.sigma_x=0.1", "--set", "perturbation.sigma_y=0.1",
    "--set", "perturbation.sigma_z=0.1", "--set", "perturbation.sigma_phi=2",
    "--set", "perturbation.sigma_theta=2", "--set", "perturbation.sigma_psi=2",
    "--set", "montecarlo.n=6", "--set", "montecarlo.seed=21",
]

_TRAIN = [
    "--set", "train.steps=120", "--set", "train.batch_size=4",
    "--set", "train.augment=false", "--set", "train.seed=5",
]

_ARTIFACTS = [
    "ds.csv", "model.txt", "model.loss", "fuse_out/fusion_table.csv",
    "fuse_out/trajectory_icp_only.txt", "fuse_out/trajectory_fixed_cov.txt",
    "fuse_out/trajectory_predicted_cov.txt",
]


def _cli_pipeline(root, dataset_src, threads=None):
    """generate/train/fuse with fixed settings inside `root`; returns bytes."""
    root.mkdir()
    shutil.copy(dataset_src, root / "train_ds.csv")
    extra = [] if threads is None else ["--threads", str(threads)]
    old = os.getcwd()
    os.chdir(root)
    try:
        assert cli.main(["generate", *_SCENE, *_GEN, *extra,
                         "--set", "paths.dataset=ds.csv"]) == 0
        assert cli.main(["train", *_SCENE, *_TRAIN, *extra,
                         "--set", "paths.dataset=train_ds.csv",
                         "--set", "paths.model=model.txt"]) == 0
        assert cli.main(["fuse", *_SCENE, *extra,
                         "--set", "paths.dataset=train_ds.csv",
                         "--set", "paths.model=model.txt",
                         "--set", "paths.out_dir=fuse_out",
                         "--set", "fusion.seed=3"]) == 0
    finally:
        os.chdir(old)
    return {name: (root / name).read_bytes() for name in _ARTIFACTS}


def test_acceptance_08_cli_determinism(tmp_path):
    from licov.mcgen import write_dataset

    rng = np.random.default_rng(9)
    recs = []
    for fid in range(4):
        a = rng.normal(size=(6, 6)) * 0.3
        recs.append(CovRecord(fid, 50, (a @ a.T + np.eye(6)) * 1e-2, 21, 0,
                              np.zeros(6)))
    src = tmp_path / "train_ds.csv"
    write_dataset(src, {"source": "handcrafted"}, recs)

    first = _cli_pipeline(tmp_path / "a", src, threads=1)
    second = _cli_pipeline(tmp_path / "b", src)
    third = _cli_pipeline(tmp_path / "c", src, threads=3)
    differing = sorted(n for n in _ARTIFACTS
                       if not (first[n] == second[n] == third[n]))
    ok = not differing
    _report(8, ok, f"{len(_ARTIFACTS)} artifacts byte-identical at --threads 1, "
                   f"the default and 3" + (f"; differing: {differing}" if differing else ""))
    assert ok


def test_acceptance_09_psd_fuzzing():
    rng = np.random.default_rng(11)
    raws = rng.normal(size=(100000, 21)) * 10.0 ** rng.uniform(-2.0, 3.0, (100000, 1))
    raws[0] = 1e3
    raws[1] = -1e3
    raws[2, :6] = -1e3  # floor-level diagonal under huge off-diagonal factors
    raws[2, 6:] = 1e3
    covs = np.empty((raws.shape[0], 6, 6))
    for i, raw in enumerate(raws):
        covs[i] = params_to_cov(raw)
    min_eig_params = float(np.linalg.eigvalsh(covs).min())

    state = FusionState(se3.SE3.identity(), 1e-6 * np.eye(6))
    min_eig_ekf = np.inf
    rng = np.random.default_rng(29)
    for i in range(10000):
        if i % 2 == 0:
            state = ekf_predict(state, MotionInput(random_pose(rng, max_angle=0.8),
                                                   random_spd(rng, scale=1e-3)))
        else:
            meas = state.pose @ se3.exp(0.05 * rng.normal(size=6))
            state = ekf_update(state, meas, random_spd(rng, scale=0.01))
        min_eig_ekf = min(min_eig_ekf, float(np.linalg.eigvalsh(state.covariance)[0]))
    ok = min_eig_params >= -1e-10 and min_eig_ekf >= -1e-10
    _report(9, ok, f"min eigenvalue {min_eig_params:.1e} over 1e5 parameterizations, "
                   f"{min_eig_ekf:.1e} over 1e4 filter steps")
    assert ok
