"""End-to-end fusion comparison on the corridor sequence.

Generates Monte-Carlo labels, trains the regressor on them, then tracks
the sequence with noisy odometry plus ICP measurements under the three
fusion modes. Mid-corridor the map discretization biases ICP along the
degenerate axis, so trusting it blindly (icp_only) inherits those biases,
a constant measurement covariance (fixed_cov) rejects x everywhere, and
the predicted covariance re-anchors x only where the scan geometry
actually supports it.

Run: python3 demos/05_fusion_comparison.py  (about 2 minutes)
"""
from dataclasses import replace

import numpy as np

from licov.cloud import MapSetup
from licov.fusion import FusionSetup, Trajectory, ade, fde, run_fusion
from licov.icp import IcpConfig
from licov.mcgen import PerturbationSpec, average_covariance, generate_dataset
from licov.model import TrainConfig, train
from licov.scenes import make_synthetic_scene

corridor = make_synthetic_scene("corridor", seed=0)
frames = list(range(26))
map_setup = MapSetup(1, 1, map_voxel=1.0, scan_voxel=0.2)

print("generating Monte-Carlo labels (26 frames x 40 draws)...")
spec = PerturbationSpec(1.0, 0.1, 0.1, 1.0, 1.0, 1.0)
summary = generate_dataset(corridor, frames, spec, 40, IcpConfig(), 0,
                           "/tmp/corridor_labels.csv",
                           setup=map_setup)
recs = summary.records
print(f"  {len(recs)} records, {summary.total_diverged} diverged draws")
xx = np.array([r.covariance[0, 0] for r in recs])
print(f"  label var(u_x): ends ~{xx[:3].mean():.3f}, middle ~{xx[10:16].mean():.3f}")

print("training the regressor (25000 steps)...")
samples = [(r, map_setup.scan(corridor, r.frame_id)) for r in recs]
cfg = TrainConfig(learning_rate=1e-3, steps=25000, batch_size=16, seed=0,
                  augment=False, init_sigma=0.03, label_floor=1e-4)
model, losses = train(samples, cfg)
print(f"  loss {losses[0]:.3f} -> {losses[-1]:.3f}")

setup = FusionSetup(map=map_setup, icp=IcpConfig(), motion_sigma_xyz=0.02)
fixed = average_covariance(recs)
truth = Trajectory(frames, [corridor.pose(k) for k in frames])

print("\nseed   icp_only   fixed_cov  predicted_cov   (ADE, m)")
means = {m: [] for m in ("icp_only", "fixed_cov", "predicted_cov")}
for seed in (100, 101, 102):
    row = []
    trajs = run_fusion(corridor, frames, replace(setup, seed=seed), model=model,
                       fixed_cov=fixed)
    for mode in means:
        err = ade(trajs[mode], truth)
        means[mode].append(err)
        row.append(f"{err:10.4f}")
    print(f"{seed}  " + " ".join(row))
print("mean " + " ".join(f"{np.mean(v):10.4f}" for v in means.values()))
print("\npredicted < fixed < icp_only: per-scan covariance pays off exactly "
      "on the frames where the corridor geometry degrades ICP.")
