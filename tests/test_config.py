"""Run configuration: the CLI's defaults are the library's defaults."""
import ast
import re
from pathlib import Path

import pytest

from licov.cloud import MapSetup
from licov.config import SCHEMA, Paths, RunConfig
from licov.errors import ConfigError
from licov.fusion import FusionSetup
from licov.icp import IcpConfig
from licov.mcgen import MonteCarloSpec, PerturbationSpec
from licov.model import TrainConfig
from licov.scenes import SequenceSpec

from conftest import RECIPE

README = Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_without_config_file_match_library_defaults():
    cfg = RunConfig.load()
    pairs = [
        (cfg.perturbation, PerturbationSpec()),
        (cfg.icp, IcpConfig()),
        (cfg.map, MapSetup()),
        (cfg.montecarlo, MonteCarloSpec()),
        (cfg.train, TrainConfig()),
        (cfg.fusion, FusionSetup()),
        (cfg.sequence, SequenceSpec()),
        (cfg.paths, Paths()),
    ]
    for got, want in pairs:
        # repr also tells 1 from 1.0, which the echoed configuration would show
        assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("key,value", [
    ("perturbation.sigma_x", "-1"),
    ("icp.max_iterations", "0"),
    ("map.normal_k", "2"),
    ("map.scan_voxel", "0"),
    ("icp.rotation_eps", "0"),
    ("train.beta", "-1"),
    ("train.batch_size", "0"),
    ("fusion.modes", ""),
])
def test_rejected_value_is_a_config_error_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key} "):
        RunConfig.load(overrides=[f"{key}={value}"])


def test_kitti_needs_both_paths():
    kitti = ["sequence.kind=kitti", "sequence.scan_dir=scans", "sequence.pose_file=poses.txt"]
    assert RunConfig.load(overrides=kitti).sequence.kind == "kitti"
    for missing in kitti[1:]:
        key = missing.partition("=")[0]
        with pytest.raises(ConfigError, match=f"^{key} must be set"):
            RunConfig.load(overrides=[o for o in kitti if o != missing])


def test_optional_numbers_parse_none_and_empty_as_unset():
    cfg = RunConfig.load(overrides=["sequence.density=none", "sequence.n_frames=",
                                    "sequence.max_range=12.5"])
    assert cfg.sequence == SequenceSpec(max_range=12.5)


def test_echo_lists_every_key_sorted_and_sanitized():
    cfg = RunConfig.load(overrides=[
        "fusion.modes=icp_only,fixed_cov", "paths.report=r=1.txt", "sequence.density=2",
        "sequence.n_frames=none", "train.augment=off",
    ])
    assert [f"{k}={v}" for k, v in cfg.echo().items()] == [
        "fusion.frames=all", "fusion.init_cov=1e-06", "fusion.modes=icp_only;fixed_cov",
        "fusion.motion_sigma_rot_deg=0.2", "fusion.motion_sigma_xyz=0.05", "fusion.seed=0",
        "icp.max_correspondence_distance=2.0", "icp.max_iterations=30",
        "icp.rotation_eps=0.0001", "icp.translation_eps=0.0001",
        "map.map_voxel=1.0", "map.normal_k=10", "map.scan_voxel=0.1", "map.window_after=10",
        "map.window_before=20",
        "montecarlo.frames=all", "montecarlo.n=200", "montecarlo.seed=0",
        "paths.dataset=dataset.csv", "paths.model=model.txt", "paths.out_dir=.",
        "paths.report=r:1.txt",
        "perturbation.sigma_phi=5.0", "perturbation.sigma_psi=5.0",
        "perturbation.sigma_theta=5.0", "perturbation.sigma_x=1.0", "perturbation.sigma_y=1.0",
        "perturbation.sigma_z=1.0",
        "sequence.density=2.0", "sequence.kind=synthetic", "sequence.max_range=",
        "sequence.n_frames=", "sequence.noise_sigma=0.01", "sequence.pose_file=",
        "sequence.scan_dir=", "sequence.scene=corridor", "sequence.seed=0",
        "train.alpha=0.1", "train.augment=False", "train.augment_xy=2.0",
        "train.augment_yaw_deg=180.0", "train.batch_size=8", "train.beta=0.9",
        "train.huber_delta=0.001", "train.init_sigma=0.1", "train.label_floor=0.0",
        "train.learning_rate=0.03", "train.seed=0", "train.steps=500",
    ]


def test_readme_reference_names_every_key():
    text = README.read_text().split("## Configuration reference", 1)[1]
    # one bullet per section: from "- `[section]`" to the next bullet or blank line
    bullets = dict(re.findall(r"^- `\[(\w+)\]`(.*?)(?=^- |^$)", text, re.M | re.S))
    assert sorted(bullets) == sorted(SCHEMA)
    for section, keys in SCHEMA.items():
        missing = [key for key in keys if f"`{key}`" not in bullets[section]]
        assert not missing, f"README's [{section}] bullet lacks {missing}"


def test_benchmark_overrides_restate_the_committed_recipe():
    # benchmarks/run.py still spells the recipe out as --set lists. Their
    # assignments are run alone: importing the module needs its siblings.
    names = {}
    for node in ast.parse((README.parent / "benchmarks" / "run.py").read_text()).body:
        target = getattr(node, "targets", [None])[0]
        if getattr(target, "id", None) in ("BATCH_SIZE", "CORRIDOR", "PERTURBATION", "TRAINING"):
            exec(compile(ast.Module([node], []), "run.py", "exec"), names)
    overrides = names["CORRIDOR"] + names["PERTURBATION"] + names["TRAINING"]
    assert RunConfig.load(RECIPE, overrides).echo() == RunConfig.load(RECIPE).echo()
