"""End-to-end fusion comparison on the corridor sequence.

Generates Monte-Carlo labels, trains the regressor on them, then tracks
the sequence with noisy odometry plus ICP measurements under the three
fusion modes. Mid-corridor the map discretization biases ICP along the
degenerate axis, so trusting it blindly (icp_only) inherits those biases,
a constant measurement covariance (fixed_cov) rejects x everywhere, and
the predicted covariance re-anchors x only where the scan geometry
actually supports it. Every setting comes from the committed recipe,
configs/corridor.ini.

Run: python3 demos/05_fusion_comparison.py  (about 2 minutes)
"""
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from licov.config import RunConfig
from licov.fusion import Trajectory, ade, run_fusion
from licov.mcgen import average_covariance, generate_dataset
from licov.model import train
from licov.sequences import parse_frames

cfg = RunConfig.load(Path(__file__).resolve().parents[1] / "configs" / "corridor.ini")
corridor = cfg.sequence.open()
labelled = parse_frames(cfg.montecarlo.frames, len(corridor))

print(f"generating Monte-Carlo labels ({len(labelled)} frames x {cfg.montecarlo.n} draws)...")
with tempfile.TemporaryDirectory() as tmp:  # the labels file is this run's alone
    summary = generate_dataset(corridor, labelled, cfg.perturbation, cfg.montecarlo.n, cfg.icp,
                               cfg.montecarlo.seed, Path(tmp) / "corridor_labels.csv",
                               setup=cfg.map)
recs = summary.records
print(f"  {len(recs)} records, {summary.total_diverged} diverged draws")
xx = np.array([r.covariance[0, 0] for r in recs])
print(f"  label var(u_x): ends ~{xx[:3].mean():.3f}, middle ~{xx[10:16].mean():.3f}")

print(f"training the regressor ({cfg.train.steps} steps)...")
samples = [(r, cfg.map.scan(corridor, r.frame_id)) for r in recs]
model, losses = train(samples, cfg.train, normal_k=cfg.map.normal_k)
print(f"  loss {losses[0]:.3f} -> {losses[-1]:.3f}")

fixed = average_covariance(recs)
frames = parse_frames(cfg.fusion.frames, len(corridor))
truth = Trajectory(frames, [corridor.pose(k) for k in frames])

print("\nseed   icp_only   fixed_cov  predicted_cov   (ADE, m)")
means = {m: [] for m in ("icp_only", "fixed_cov", "predicted_cov")}
for seed in (100, 101, 102):
    row = []
    trajs = run_fusion(corridor, frames, replace(cfg.fusion, seed=seed), model=model,
                       fixed_cov=fixed)
    for mode in means:
        err = ade(trajs[mode], truth)
        means[mode].append(err)
        row.append(f"{err:10.4f}")
    print(f"{seed}  " + " ".join(row))
print("mean " + " ".join(f"{np.mean(v):10.4f}" for v in means.values()))
print("\npredicted < fixed < icp_only: per-scan covariance pays off exactly "
      "on the frames where the corridor geometry degrades ICP.")
