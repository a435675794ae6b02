"""Characterization framework: server model, experiments and campaigns."""

from repro.characterization.campaign import (
    CampaignConfig,
    CampaignResult,
    CharacterizationCampaign,
    run_default_campaign,
)
from repro.characterization.experiment import CharacterizationExperiment, ExperimentResult
from repro.characterization.metrics import (
    PueSummary,
    UeObservation,
    WerColumnStore,
    probability_of_uncorrectable,
    rank_ue_distribution,
)
from repro.characterization.server import XGene2Server
from repro.characterization.slimpro import Slimpro

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CharacterizationCampaign",
    "run_default_campaign",
    "CharacterizationExperiment",
    "ExperimentResult",
    "PueSummary",
    "UeObservation",
    "WerColumnStore",
    "probability_of_uncorrectable",
    "rank_ue_distribution",
    "XGene2Server",
    "Slimpro",
]
