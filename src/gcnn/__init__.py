"""Grouped convolutional networks for multivariate time-series regression.

The package covers the full workflow: ingesting wide-format CSV series,
discovering channel groups by spectral clustering of a similarity graph,
building (grouped) convolutional regression networks on a small autodiff
engine, training them with minibatch SGD, and comparing grouped against
ungrouped variants from the command line.
"""

from .data import (
    SplitSpec,
    TimeSeriesDataset,
    load_csv,
    make_windows,
    repair_gaps,
    save_csv,
    split,
    standardize,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    GcnnError,
    GraphConsumedError,
    NumericalError,
    ShapeError,
)
from .models import (
    ModelSpec,
    build_model,
    count_params,
    load_checkpoint,
    preset,
    save_checkpoint,
)
from .spectral import (
    SimilarityGraph,
    ncut_value,
    similarity_from_series,
    spectral_cluster,
)
from .tensor import Tensor, backward, grad_check, no_grad
from .training import TrainConfig, evaluate, linear_baseline, srmse, train

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "backward",
    "grad_check",
    "no_grad",
    "TimeSeriesDataset",
    "SplitSpec",
    "load_csv",
    "save_csv",
    "repair_gaps",
    "standardize",
    "make_windows",
    "split",
    "SimilarityGraph",
    "similarity_from_series",
    "spectral_cluster",
    "ncut_value",
    "ModelSpec",
    "build_model",
    "count_params",
    "preset",
    "save_checkpoint",
    "load_checkpoint",
    "TrainConfig",
    "train",
    "evaluate",
    "srmse",
    "linear_baseline",
    "GcnnError",
    "ShapeError",
    "ConfigError",
    "DataError",
    "NumericalError",
    "ConvergenceError",
    "GraphConsumedError",
    "__version__",
]
