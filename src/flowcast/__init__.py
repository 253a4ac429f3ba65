"""Hybrid LSTM/CNN forecasting of multi-station traffic flow.

The package couples a small reverse-mode autodiff engine with recurrent,
convolutional, and dense layers, assembles them into twelve named forecaster
architectures, and wraps the full experiment loop: synthetic or CSV datasets,
windowing with daily and weekly context, missing-value handling, Adam
training, masked evaluation, and robustness sweeps over injected missingness.
Each piece is importable on its own; the ``flowcast`` console script drives
the same code paths from the command line.
"""

from .autodiff import Tensor
from .dataset import FlowDataset, StandardStats, WindowConfig, load_csv, save_csv
from .errors import DataError, NumericError, UsageError
from .evaluation import EvalReport, evaluate, mae, rmse, robustness_sweep
from .hybrid import ARCHITECTURES, ModelSpec, Topology, build
from .imputation import METHODS, ImputationModel, impute, inject_missing
from .synthgen import SynthConfig, generate
from .training import RunTask, TrainConfig, TrainedModel, evaluate_on, run_tasks
from .training import train_once
from .version import VERSION

__version__ = VERSION

__all__ = [
    "ARCHITECTURES",
    "DataError",
    "EvalReport",
    "FlowDataset",
    "ImputationModel",
    "METHODS",
    "ModelSpec",
    "NumericError",
    "RunTask",
    "StandardStats",
    "SynthConfig",
    "Tensor",
    "Topology",
    "TrainConfig",
    "TrainedModel",
    "UsageError",
    "VERSION",
    "WindowConfig",
    "build",
    "evaluate",
    "evaluate_on",
    "generate",
    "impute",
    "inject_missing",
    "load_csv",
    "mae",
    "rmse",
    "robustness_sweep",
    "run_tasks",
    "save_csv",
    "train_once",
]
