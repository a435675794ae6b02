"""The paper's contribution: the workload-aware DRAM error model."""

from repro.core.conventional import ConventionalErrorModel
from repro.core.correlation import (
    CorrelationStudy,
    FeatureCorrelationPoint,
    run_correlation_study,
)
from repro.core.dataset import ErrorDataset, build_pue_dataset, build_wer_dataset
from repro.core.evaluation import (
    AccuracyEvaluator,
    PueAccuracyReport,
    WerAccuracyReport,
    best_configuration,
    leave_one_workload_out_predictions,
)
from repro.core.features import (
    INPUT_SET_1,
    INPUT_SET_2,
    INPUT_SET_3,
    INPUT_SETS,
    OPERATING_FEATURES,
    FeatureSet,
    feature_set_table,
    get_feature_set,
)
from repro.core.model import MODEL_FAMILIES, DramErrorModel, ModelConfig
from repro.core.predictor import (
    PredictionBatch,
    PredictionGrid,
    PredictionResult,
    PredictorConfig,
    WorkloadAwarePredictor,
)

__all__ = [
    "ConventionalErrorModel",
    "CorrelationStudy",
    "FeatureCorrelationPoint",
    "run_correlation_study",
    "ErrorDataset",
    "build_pue_dataset",
    "build_wer_dataset",
    "AccuracyEvaluator",
    "PueAccuracyReport",
    "WerAccuracyReport",
    "best_configuration",
    "leave_one_workload_out_predictions",
    "INPUT_SET_1",
    "INPUT_SET_2",
    "INPUT_SET_3",
    "INPUT_SETS",
    "OPERATING_FEATURES",
    "FeatureSet",
    "feature_set_table",
    "get_feature_set",
    "MODEL_FAMILIES",
    "DramErrorModel",
    "ModelConfig",
    "PredictionBatch",
    "PredictionGrid",
    "PredictionResult",
    "PredictorConfig",
    "WorkloadAwarePredictor",
]
