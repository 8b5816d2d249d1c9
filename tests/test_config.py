"""Run configuration: the CLI's defaults are the library's defaults."""

import pytest

from licov.cloud import MapSetup
from licov.config import RunConfig
from licov.errors import ConfigError
from licov.fusion import FusionSetup
from licov.icp import IcpConfig
from licov.mcgen import PerturbationSpec
from licov.model import TrainConfig


def test_defaults_without_config_file_match_library_defaults():
    cfg = RunConfig.load()
    pairs = [
        (cfg.perturbation_spec(), PerturbationSpec()),
        (cfg.icp_config(), IcpConfig()),
        (cfg.map_setup(), MapSetup()),
        (cfg.train_config(), TrainConfig()),
        (cfg.fusion_setup(), FusionSetup()),
    ]
    for got, want in pairs:
        # repr also tells 1 from 1.0, which the echoed configuration would show
        assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("key,value,build", [
    ("perturbation.sigma_x", "-1", RunConfig.perturbation_spec),
    ("icp.max_iterations", "0", RunConfig.icp_config),
    ("map.normal_k", "2", RunConfig.map_setup),
    ("map.scan_voxel", "0", RunConfig.fusion_setup),
    ("icp.rotation_eps", "0", RunConfig.fusion_setup),
    ("train.beta", "-1", RunConfig.train_config),
    ("train.batch_size", "0", RunConfig.train_config),
])
def test_rejected_value_is_a_config_error_naming_the_key(key, value, build):
    cfg = RunConfig.load(overrides=[f"{key}={value}"])
    with pytest.raises(ConfigError, match=f"^{key} "):
        build(cfg)
