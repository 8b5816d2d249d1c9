"""Run configuration: the CLI's defaults are the library's defaults."""

from licov.cloud import MapSetup
from licov.config import RunConfig
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
