"""Run configuration: the CLI's defaults are the library's defaults."""

import pytest

from licov.cloud import MapSetup
from licov.config import RunConfig
from licov.errors import ConfigError
from licov.fusion import FusionSetup
from licov.icp import IcpConfig
from licov.mcgen import MonteCarloSpec, PerturbationSpec
from licov.model import TrainConfig


def test_defaults_without_config_file_match_library_defaults():
    cfg = RunConfig.load()
    pairs = [
        (cfg.perturbation, PerturbationSpec()),
        (cfg.icp, IcpConfig()),
        (cfg.map, MapSetup()),
        (cfg.montecarlo, MonteCarloSpec()),
        (cfg.train, TrainConfig()),
        (cfg.fusion, FusionSetup()),
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
])
def test_rejected_value_is_a_config_error_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key} "):
        RunConfig.load(overrides=[f"{key}={value}"])
