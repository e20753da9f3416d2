"""Riemannian classification of multichannel covariance matrices.

Core pieces: SPD-manifold geometry (:mod:`spdbci.manifold`), covariance
estimators (:mod:`spdbci.estimators`), causal band-pass preprocessing
(:mod:`spdbci.preprocessing`), a synthetic SSVEP-like data generator
(:mod:`spdbci.synthgen`), minimum-distance-to-mean classification
(:mod:`spdbci.mdrm`), the curve-based online classifier
(:mod:`spdbci.online`), evaluation metrics plus the bootstrap
benchmark (:mod:`spdbci.metrics`), and the on-disk formats
(:mod:`spdbci.formats`).
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DataFormatError,
    FilterDesignError,
    ManifestError,
    MissingPayloadError,
    NumericalError,
    ShapeMismatchError,
    UnsupportedVersionError,
    ValidationError,
)
from .estimators import EstimatorSpec, Trial, spec_from_name
from .manifold import (
    condition_ratio,
    distance,
    exp_map,
    karcher_mean,
    log_map,
    matrix_exp,
    matrix_invsqrt,
    matrix_log,
    matrix_sqrt,
)
from .mdrm import ClassModel, PreprocSpec, classify, load_model, potato_filter, save_model, train
from .metrics import BenchConfig, accuracy, idi, itr, run_benchmark, tangent_embed
from .online import Decision, OnlineConfig, OnlineState, evaluate_stream, regate
from .preprocessing import EpochPlan, FilterSpec, design_bandpass, epoch_stream, extend_trial, trim_latency
from .synthgen import GenConfig, TrialSet, generate, load, save

__all__ = [
    "__version__",
    "BenchConfig", "ClassModel", "ConvergenceError", "DataFormatError",
    "Decision", "EpochPlan", "EstimatorSpec", "FilterDesignError",
    "FilterSpec", "GenConfig", "ManifestError", "MissingPayloadError",
    "NumericalError", "OnlineConfig", "OnlineState", "PreprocSpec",
    "ShapeMismatchError", "Trial", "TrialSet", "UnsupportedVersionError",
    "ValidationError", "accuracy", "classify", "condition_ratio",
    "design_bandpass", "distance", "epoch_stream", "evaluate_stream",
    "exp_map", "extend_trial", "generate", "idi", "itr", "karcher_mean",
    "load", "load_model", "log_map", "matrix_exp", "matrix_invsqrt",
    "matrix_log", "matrix_sqrt", "potato_filter", "regate", "run_benchmark",
    "save", "save_model", "spec_from_name", "tangent_embed", "train",
    "trim_latency",
]
