"""Kernel Fisher discriminant metric learning toolkit.

Learns a Mahalanobis matching metric from labeled features via kernel
Fisher discriminant analysis, optionally over a learned combination of
multiple kernels, and evaluates it on probe/gallery retrieval with
rank-K / CMC reporting.
"""

from .config import RunConfig
from .data import ClassIndex, Dataset, SplitPlan, index_classes, load_features, make_split
from .errors import InputError, NumericError
from .evaluation import CmcReport, cmc_from_ranks, dimension_sweep, run_trials
from .kernels import KernelAccuracies, KernelSpec, MklConfig, gram, rms_width, width_grid
from .kfda import KfdaModel, build_scatter, load_model, save_model, solve_kfda, train
from .metric import embed_batch, score_matrix, true_ranks
from .mkl import cv_kernel_accuracies, np_weights, select_sm_pair
from .synthetic import make_synthetic

__version__ = "0.1.0"

__all__ = [
    "ClassIndex",
    "CmcReport",
    "Dataset",
    "InputError",
    "KernelAccuracies",
    "KernelSpec",
    "KfdaModel",
    "MklConfig",
    "NumericError",
    "RunConfig",
    "SplitPlan",
    "build_scatter",
    "cmc_from_ranks",
    "cv_kernel_accuracies",
    "dimension_sweep",
    "embed_batch",
    "gram",
    "index_classes",
    "load_features",
    "load_model",
    "make_split",
    "make_synthetic",
    "np_weights",
    "rms_width",
    "run_trials",
    "save_model",
    "score_matrix",
    "select_sm_pair",
    "solve_kfda",
    "train",
    "true_ranks",
    "width_grid",
]
