"""Workload-Aware DRAM Error Prediction using Machine Learning — reproduction.

This package reproduces Mukhanov et al., IISWC 2019: a characterization
of DRAM error behaviour under relaxed refresh period / lowered voltage /
elevated temperature on an ARMv8 server, and a machine-learning model
that predicts the word error rate (WER) and the probability of an
uncorrectable error (PUE) from program-inherent features.

Quickstart::

    from repro import (
        run_default_campaign, WorkloadAwarePredictor, OperatingPoint,
    )

    campaign = run_default_campaign()
    predictor = WorkloadAwarePredictor().fit(campaign)
    result = predictor.predict("memcached", OperatingPoint.relaxed(2.283, 50.0))
    print(result.memory_wer, result.pue)

The prediction API is batch-first: ``predict`` is a thin wrapper over
``predict_batch`` (arrays in, a frozen result batch out) and
``predict_grid`` sweeps whole operating-point grids columnarly.  Fitted
predictors persist to a versioned on-disk registry and serve behind a
cached facade that batches each burst's cache misses::

    from repro import ModelRegistry, PredictionService

    registry = ModelRegistry("models/")
    registry.save("wer", predictor)            # -> "v1"
    with PredictionService(registry.load("wer")) as service:
        response = service.predict("memcached", OperatingPoint.relaxed(2.283, 50.0))
        print(response.memory_wer, service.stats().hit_rate)

Every module logs under the ``repro.*`` logger hierarchy; the library
installs only a ``NullHandler`` (standard library practice), so nothing
is printed unless the application configures logging.  Runtime telemetry
(spans, counters, run reports) lives in :mod:`repro.telemetry` and is a
no-op unless a session is opened::

    from repro.telemetry import RunReport, telemetry_session

    with telemetry_session() as tel:
        campaign = run_default_campaign(parallel=4)
    print(RunReport.capture(tel).render())
"""

import logging as _logging

# Library logging convention: a NullHandler on the package root, so
# `repro.*` loggers never print unless the application opts in.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro.characterization import (
    CampaignConfig,
    CampaignResult,
    CharacterizationCampaign,
    CharacterizationExperiment,
    XGene2Server,
    run_default_campaign,
)
from repro.core import (
    AccuracyEvaluator,
    ConventionalErrorModel,
    DramErrorModel,
    ModelConfig,
    PredictionBatch,
    PredictionGrid,
    WorkloadAwarePredictor,
    build_pue_dataset,
    build_wer_dataset,
    get_feature_set,
    run_correlation_study,
)
from repro.dram import (
    OperatingPoint,
    StatisticalErrorModel,
    VariationProfile,
    WorkloadBehavior,
)
from repro.errors import RegistryError
from repro.profiling import WorkloadProfiler, profile_workload
from repro.serving import (
    ModelRegistry,
    PredictionService,
    PredictRequest,
    PredictResponse,
    load_model,
    save_model,
)
from repro.telemetry import (
    RunReport,
    Telemetry,
    TelemetrySnapshot,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from repro.workloads import available_workloads, campaign_workload_names, create_workload

__version__ = "1.0.0"

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CharacterizationCampaign",
    "CharacterizationExperiment",
    "XGene2Server",
    "run_default_campaign",
    "AccuracyEvaluator",
    "ConventionalErrorModel",
    "DramErrorModel",
    "ModelConfig",
    "PredictionBatch",
    "PredictionGrid",
    "WorkloadAwarePredictor",
    "build_pue_dataset",
    "build_wer_dataset",
    "get_feature_set",
    "run_correlation_study",
    "RegistryError",
    "ModelRegistry",
    "PredictionService",
    "PredictRequest",
    "PredictResponse",
    "load_model",
    "save_model",
    "OperatingPoint",
    "StatisticalErrorModel",
    "VariationProfile",
    "WorkloadBehavior",
    "WorkloadProfiler",
    "profile_workload",
    "RunReport",
    "Telemetry",
    "TelemetrySnapshot",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
    "available_workloads",
    "campaign_workload_names",
    "create_workload",
    "__version__",
]
