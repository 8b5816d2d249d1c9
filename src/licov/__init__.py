"""LiDAR map-matching covariance: Monte-Carlo labels, learned prediction,
and EKF fusion on SE(3)."""

from . import se3
from .cloud import (
    MapSetup,
    NeighborIndex,
    PointCloud,
    build_local_map,
    estimate_normals,
    load_kitti_poses,
    load_kitti_scan,
    transform_cloud,
    voxel_downsample,
)
from .features import FEATURE_DIM, extract_features
from .fusion import (
    FusionSetup,
    FusionState,
    MotionInput,
    Trajectory,
    ade,
    ekf_predict,
    ekf_update,
    fde,
    run_fusion,
)
from .icp import IcpConfig, IcpResult, icp_point_to_plane
from .mcgen import (
    CovRecord,
    PerturbationSpec,
    average_covariance,
    generate_dataset,
    read_dataset,
    run_monte_carlo,
    sample_perturbation,
)
from .metrics import EvalReport, evaluate
from .model import (
    RegressionModel,
    TrainConfig,
    cov_to_params,
    load_model,
    loss_huber,
    loss_kl,
    params_to_cov,
    predict,
    save_model,
    train,
    weighted_sample,
)
from .scenes import make_synthetic_scene
from .sequences import InMemorySequence, KittiSequence

__version__ = "0.1.0"
