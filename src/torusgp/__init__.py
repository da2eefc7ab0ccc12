"""Gaussian-process regression on products of unit circles.

The package provides torus-valued input handling (manifold), circle-aware
kernels with analytic hyperparameter derivatives (kernels), exact GP
inference with a jittered factorization policy and multi-output mixing (gp),
monotone gradient-ascent hyperparameter fitting (hyperopt), a ranging
sensor-network simulator with closed ground-truth trajectories (simulator),
and a GP-reweighted particle filter with a Monte Carlo campaign driver
(tracking). The cli module wires the stages into reproducible, manifest-
tracked runs.
"""

__version__ = "0.1.0"

from .gp import (
    FactorizationError,
    PosteriorGaussian,
    TrainedGp,
    cholesky_with_jitter,
    fit,
    load_model,
    predict,
    save_model,
)
from .hyperopt import Dataset, OptResult, objective, gradient, optimize
from .kernels import ExpLinearKernel, kernel_from_family, pair_order
from .manifold import (
    CirclePoint,
    TorusPoint,
    aoa_embedding,
    aoa_embedding_batch,
    as_input_array,
    chart_angles,
    torus_metric,
)
from .simulator import (
    CircularDensity,
    ScenarioConfig,
    TrainingSet,
    Trajectory,
    build_training_set,
    case_study_1_observe,
    case_study_2_sweep,
    measure_range,
    simulate_dynamics,
    trajectory,
)
from .tracking import (
    GpRangeModel,
    ParametricRangeModel,
    ParticleSet,
    TrackingResult,
    campaign,
    fit_parametric,
    run_tracking,
    systematic_resample,
    train_method,
)

__all__ = [
    "__version__",
    "FactorizationError",
    "PosteriorGaussian",
    "TrainedGp",
    "cholesky_with_jitter",
    "fit",
    "load_model",
    "predict",
    "save_model",
    "Dataset",
    "OptResult",
    "objective",
    "gradient",
    "optimize",
    "ExpLinearKernel",
    "kernel_from_family",
    "pair_order",
    "CirclePoint",
    "TorusPoint",
    "aoa_embedding",
    "aoa_embedding_batch",
    "as_input_array",
    "chart_angles",
    "torus_metric",
    "CircularDensity",
    "ScenarioConfig",
    "TrainingSet",
    "Trajectory",
    "build_training_set",
    "case_study_1_observe",
    "case_study_2_sweep",
    "measure_range",
    "simulate_dynamics",
    "trajectory",
    "GpRangeModel",
    "ParametricRangeModel",
    "ParticleSet",
    "TrackingResult",
    "campaign",
    "fit_parametric",
    "run_tracking",
    "systematic_resample",
    "train_method",
]
