"""Directional semi-supervised anomaly detection.

NND and ALP detectors over tabular data where some attributes are risk
factors: only high values indicate anomality. Three per-attribute distance
treatments (absolute, ramp, signed) plus the evaluation machinery (robust
scaling, cross-validation, AUROC, signed-rank tests) to benchmark them.
"""

from . import alp, nnd
from .dataset import (
    AttributeSpec,
    Dataset,
    Direction,
    LabelRule,
    ScalingParams,
    apply_scaler,
    fit_scaler,
    format_csv,
    format_schema,
    orient,
    parse_csv,
    parse_schema,
)
from .distance import (
    DistanceSpec,
    DistanceVariant,
    distance_matrix,
    per_attribute,
    record_distance,
)
from .evaluation import (
    ExperimentResult,
    auroc,
    directionality_diagnostic,
    fit_detector,
    holm_bonferroni,
    make_folds,
    run_cv,
    score_queries,
    synthetic_auroc,
    wilcoxon_one_sided,
)
from .neighbours import knn_batch, self_knn_batch
from .persist import ModelBundle, load_model, save_model
from .synthgen import SynthSpec, generate, grid

__version__ = "0.1.0"

__all__ = [
    "AttributeSpec",
    "Dataset",
    "Direction",
    "DistanceSpec",
    "DistanceVariant",
    "ExperimentResult",
    "LabelRule",
    "ModelBundle",
    "ScalingParams",
    "SynthSpec",
    "alp",
    "apply_scaler",
    "auroc",
    "directionality_diagnostic",
    "distance_matrix",
    "fit_detector",
    "fit_scaler",
    "format_csv",
    "format_schema",
    "generate",
    "grid",
    "holm_bonferroni",
    "knn_batch",
    "load_model",
    "make_folds",
    "nnd",
    "orient",
    "parse_csv",
    "parse_schema",
    "per_attribute",
    "record_distance",
    "run_cv",
    "save_model",
    "score_queries",
    "self_knn_batch",
    "synthetic_auroc",
    "wilcoxon_one_sided",
]
