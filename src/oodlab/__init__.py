"""Wasserstein-score out-of-distribution detection lab.

A small, reproducible stack: a from-scratch dense network engine,
transport-cost scoring of predicted class distributions, seeded Gaussian
benchmarks, adversarial (`see_ood`) and baseline (`wood`) training,
TNR-calibrated detection metrics, and a replicated experiment runner with
a CLI.
"""

from .config import ConfigError, ExperimentConfig, parse_config, preset_config, serialize_config
from .data import Dataset, make_simulation_dataset, sample_noise, subsample_ood
from .detection import (
    GridSpec,
    mad,
    rejection_region_area,
    score_heatmap,
    select_threshold,
    tpr_at_tnr,
)
from .experiment import compare_rejection_regions, load_report, run_experiment, run_replication
from .nets import (
    AdamState,
    Head,
    MlpParams,
    NumericError,
    adam_step,
    finite_difference_gradient,
    init_adam,
    init_mlp,
    mlp_backward,
    mlp_forward,
    softmax,
)
from .rng import Rng
from .training import (
    TrainConfig,
    TrainHistory,
    discriminator_loss_and_grads,
    generator_objective_and_grads,
    sample_generator,
    train_see_ood,
    train_wood,
)
from .wasserstein import binary_cost_matrix, score_batch, wasserstein_score

__version__ = "0.1.0"
