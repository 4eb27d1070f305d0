"""Occupancy mapping of occluded space from observed driver behavior.

The package infers what hidden parts of a scene contain by watching how
visible traffic behaves: a braking lead vehicle is evidence about the
crosswalk it is braking for.  Two inference heads share the machinery —
a cell-wise occupancy grid fused from scan data and learned
behavior-conditioned likelihoods, and a landmark posterior over a set of
candidate pedestrian positions.
"""

from .behavior import (
    ActionletModel,
    LikelihoodTable,
    assign_actionlet,
    estimate_likelihoods,
    extract_features,
    kmeans_fit,
)
from .errors import ConfigError, DataError, SpecMismatchError
from .grid import (
    BinaryMap,
    GridSpec,
    OccupancyGrid,
    bayes_cell_update,
    fuse_action,
    joint_map_probability,
    new_uniform_grid,
    threshold,
)
from .landmark import (
    CameraModel,
    LandmarkState,
    LogitModel,
    OccludedRegion,
    SemanticAction,
    bbox_to_landmark,
    fit_logit,
    posterior_over_region,
)
from .metrics import improvement_ratio, score_pair
from .perception import Obstacle, Scan, raycast_scan, standard_inverse_update, visibility_mask
from .simulator import EpisodeLog, PedestrianBehavior, Scenario, ScenarioConfig, run_episode, sample_scenario, simulate_batch

__version__ = "0.1.0"

__all__ = [
    "ActionletModel",
    "BinaryMap",
    "CameraModel",
    "ConfigError",
    "DataError",
    "EpisodeLog",
    "GridSpec",
    "LandmarkState",
    "LikelihoodTable",
    "LogitModel",
    "Obstacle",
    "OccludedRegion",
    "OccupancyGrid",
    "PedestrianBehavior",
    "Scan",
    "Scenario",
    "ScenarioConfig",
    "SemanticAction",
    "SpecMismatchError",
    "assign_actionlet",
    "bayes_cell_update",
    "bbox_to_landmark",
    "estimate_likelihoods",
    "extract_features",
    "fit_logit",
    "fuse_action",
    "improvement_ratio",
    "joint_map_probability",
    "kmeans_fit",
    "new_uniform_grid",
    "posterior_over_region",
    "raycast_scan",
    "run_episode",
    "sample_scenario",
    "score_pair",
    "simulate_batch",
    "standard_inverse_update",
    "threshold",
    "visibility_mask",
]
