"""Shared fixtures and helpers for the licov test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

from licov import cli, se3
from licov.mcgen import CovRecord, write_dataset
from licov.scenes import make_synthetic_scene

# The committed corridor recipe behind the fusion result.
RECIPE = Path(__file__).resolve().parents[1] / "configs" / "corridor.ini"


def random_twist(rng, max_angle=3.0, max_trans=2.0):
    """Draw a twist (u, w) with rotation magnitude strictly below max_angle."""
    u = rng.uniform(-max_trans, max_trans, 3)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    return np.concatenate([u, angle * axis])


def random_pose(rng, max_angle=3.0, max_trans=2.0):
    return se3.exp(random_twist(rng, max_angle, max_trans))


def random_spd(rng, dim=6, scale=1.0):
    a = rng.normal(size=(dim, dim))
    return a @ a.T * scale + 1e-3 * np.eye(dim)


@pytest.fixture(scope="session")
def room_sequence():
    return make_synthetic_scene("room", seed=7)


@pytest.fixture(scope="session")
def corridor_sequence():
    return make_synthetic_scene("corridor", seed=7)


@pytest.fixture(scope="session")
def plane_sequence():
    return make_synthetic_scene("plane", seed=7)


# The room chain of the CLI tests and acceptance 08: the settings of every
# command, then generate's and train's own.
COMMON = [
    "--set", "sequence.scene=room", "--set", "sequence.density=4",
    "--set", "sequence.n_frames=4", "--set", "sequence.seed=11",
    "--set", "map.window_before=1", "--set", "map.window_after=1",
    "--set", "map.map_voxel=0.4", "--set", "map.scan_voxel=0.3",
    "--set", "icp.max_iterations=8",
]

GENERATE = [
    "--set", "perturbation.sigma_x=0.1", "--set", "perturbation.sigma_y=0.1",
    "--set", "perturbation.sigma_z=0.1", "--set", "perturbation.sigma_phi=2",
    "--set", "perturbation.sigma_theta=2", "--set", "perturbation.sigma_psi=2",
    "--set", "montecarlo.n=6", "--set", "montecarlo.seed=21",
]

TRAIN = [
    "--set", "train.steps=120", "--set", "train.batch_size=4",
    "--set", "train.augment=false", "--set", "train.seed=5",
]


def handcrafted_dataset(path, n_frames=4):
    """Well-scaled labels for the room frames; keeps training fast."""
    rng = np.random.default_rng(9)
    recs = []
    for fid in range(n_frames):
        a = rng.normal(size=(6, 6)) * 0.3
        recs.append(CovRecord(fid, 50, (a @ a.T + np.eye(6)) * 1e-2, 21, 0, np.zeros(6)))
    write_dataset(path, {"source": "handcrafted"}, recs)


def run_room_chain(root, *flags):
    """generate, then train, eval and fuse on the handcrafted dataset, in
    `root` and with `flags` added; -> {command: exit code}."""
    old = os.getcwd()
    os.chdir(root)
    try:
        rcs = {"generate": cli.main(["generate", *COMMON, *GENERATE, *flags,
                                     "--set", "paths.dataset=ds.csv"])}
        handcrafted_dataset("train_ds.csv")
        chain = [*flags, "--set", "paths.dataset=train_ds.csv", "--set", "paths.model=model.txt"]
        rcs["train"] = cli.main(["train", *COMMON, *chain, *TRAIN])
        rcs["eval"] = cli.main(["eval", *COMMON, *chain, "--set", "paths.report=report.txt"])
        rcs["fuse"] = cli.main(["fuse", *COMMON, *chain, "--set", "paths.out_dir=fuse_out",
                                "--set", "fusion.seed=3"])
    finally:
        os.chdir(old)
    return rcs
