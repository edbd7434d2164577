"""Signature features, semi-supervised adversarial training, and cost-aware
fraud metrics for irregularly sampled transaction sequences."""

__version__ = "0.1.0"

from .config import ExperimentConfig, SplitPlan, TrainConfig, HeadConfig, ConfigError
from .lyndon import LyndonBasis, lyndon_words, witt_count
from .signatures import tensor_log
from .training import PreparedData, TrainResult, train, predict

__all__ = [
    "__version__",
    "ExperimentConfig",
    "SplitPlan",
    "TrainConfig",
    "HeadConfig",
    "ConfigError",
    "LyndonBasis",
    "lyndon_words",
    "witt_count",
    "tensor_log",
    "PreparedData",
    "TrainResult",
    "train",
    "predict",
]
