"""Static malware-family classification: feature extraction plus a random forest.

Pipeline: corpus scan -> vocabulary -> seven feature groups -> importance
selection -> forest training and evaluation, all deterministic per seed.
"""
from .errors import (
    CorpusError,
    ExtractionError,
    LabelError,
    MalfamError,
    ModelError,
    NotAPeError,
    TrainingError,
    TruncatedPeError,
    WorkerError,
)
from .families import FAMILY_IDS, FAMILY_NAMES, family_name
from .corpus import (
    CorpusManifest,
    Sample,
    load_labels,
    load_manifest,
    save_manifest,
    scan_corpus,
    stratified_split,
)
from .synth import gen_synthetic
from .config import RunConfig, load_config, save_config
from .forest import (
    ForestParams,
    Metrics,
    RandomForest,
    best_split,
    cross_validate,
    evaluate,
    feature_importance,
    fit_forest,
    gini,
    grid_search,
    load_model,
    predict,
    predict_proba,
    save_model,
)
from .pipeline import (
    ModelBundle,
    TrainResult,
    fit_pipeline,
    load_model_dir,
    save_train_dir,
    train_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "CorpusError",
    "CorpusManifest",
    "ExtractionError",
    "FAMILY_IDS",
    "FAMILY_NAMES",
    "ForestParams",
    "LabelError",
    "MalfamError",
    "Metrics",
    "ModelBundle",
    "ModelError",
    "NotAPeError",
    "RandomForest",
    "RunConfig",
    "Sample",
    "TrainResult",
    "TrainingError",
    "TruncatedPeError",
    "WorkerError",
    "best_split",
    "cross_validate",
    "evaluate",
    "family_name",
    "feature_importance",
    "fit_forest",
    "fit_pipeline",
    "gen_synthetic",
    "gini",
    "grid_search",
    "load_config",
    "load_labels",
    "load_manifest",
    "load_model",
    "load_model_dir",
    "predict",
    "predict_proba",
    "save_config",
    "save_manifest",
    "save_model",
    "save_train_dir",
    "scan_corpus",
    "stratified_split",
    "train_pipeline",
    "__version__",
]
