"""Point-to-plane ICP on a synthetic room: build a local map from the
neighboring frames, knock the pose off by a metre-scale perturbation, and
watch the alignment pull it back to sub-millimetre error.

Run: python3 demos/02_icp_on_synthetic_scenes.py  (about 5 s)
"""
import numpy as np

from licov import se3
from licov.cloud import MapSetup
from licov.icp import IcpConfig, icp_point_to_plane
from licov.mcgen import PerturbationSpec, sample_perturbation
from licov.scenes import make_synthetic_scene

seq = make_synthetic_scene("room", seed=0)
k = 5
scan, index = MapSetup(1, 1, map_voxel=0.2).frame(seq, k)
pose = seq.pose(k)
print(f"frame {k}: scan {len(scan)} points, local map {len(index)} points")

spec = PerturbationSpec()  # 1 m / 5 deg sigmas on every axis
cfg = IcpConfig(max_iterations=50)
rng = np.random.default_rng(7)
print("\n offset (m)   iters   final error (m, rad)")
for trial in range(5):
    xi = sample_perturbation(spec, rng)
    start = se3.exp(xi) @ pose
    result = icp_point_to_plane(scan, index, start, cfg)
    err = se3.log(se3.inverse(pose) @ result.estimate)
    print(f"   {np.linalg.norm(xi[:3]):7.3f}    {result.iterations_used:3d}     "
          f"{np.linalg.norm(err[:3]):.2e}  {np.linalg.norm(err[3:]):.2e}")
print("\nevery start lands back on the reference pose; the room constrains "
      "all six degrees of freedom.")
