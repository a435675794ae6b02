"""DIMM-to-DIMM and rank-to-rank reliability variation.

The paper observes that WER varies by up to 188x across the eight
DIMM/ranks of the platform (Fig. 8) and that most UEs come from two
specific ranks while one rank never produces a UE (Fig. 9b).  This
module models that variation as a per-rank multiplicative factor on the
failure rate plus a per-rank share of multi-bit-vulnerable words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.dram.geometry import DramGeometry, RankLocation
from repro.errors import ConfigurationError

#: Default per-rank WER scale factors, ordered DIMM0/rank0 .. DIMM3/rank1.
#: Chosen so the strongest/weakest ratio is ~188x (Fig. 8) with DIMM2/rank0
#: the weakest (most error-prone) rank and DIMM3/rank1 the strongest.
DEFAULT_RANK_WER_FACTORS = (0.55, 1.30, 0.40, 0.18, 2.45, 0.75, 0.085, 0.013)

#: Default per-rank relative weights for hosting multi-bit (UE) words.
#: Matches Fig. 9b: DIMM2/rank0 and DIMM0/rank1 dominate, DIMM3/rank1 never
#: produces a UE.
DEFAULT_RANK_UE_WEIGHTS = (0.02, 0.24, 0.008, 0.007, 0.67, 0.05, 0.005, 0.0)


@dataclass
class RankProfile:
    """Reliability profile of one (dimm, rank)."""

    location: RankLocation
    wer_factor: float
    ue_weight: float

    def __post_init__(self) -> None:
        if self.wer_factor <= 0:
            raise ConfigurationError("wer_factor must be positive")
        if self.ue_weight < 0:
            raise ConfigurationError("ue_weight must be non-negative")


@dataclass
class VariationProfile:
    """Per-rank reliability variation for a whole platform."""

    geometry: DramGeometry
    ranks: Dict[RankLocation, RankProfile] = field(default_factory=dict)

    @classmethod
    def default(cls, geometry: Optional[DramGeometry] = None) -> "VariationProfile":
        """The calibrated 8-rank profile of the paper's platform."""
        geom = geometry or DramGeometry()
        locations = list(geom.iter_ranks())
        if len(locations) != len(DEFAULT_RANK_WER_FACTORS):
            # A non-default geometry: fall back to a sampled profile.
            return cls.sampled(geom, seed=2019)
        ranks = {
            loc: RankProfile(loc, DEFAULT_RANK_WER_FACTORS[i], DEFAULT_RANK_UE_WEIGHTS[i])
            for i, loc in enumerate(locations)
        }
        return cls(geometry=geom, ranks=ranks)

    @classmethod
    def sampled(
        cls,
        geometry: Optional[DramGeometry] = None,
        seed: Optional[int] = None,
        spread_sigma: float = 1.3,
    ) -> "VariationProfile":
        """Sample a random variation profile (lognormal WER factors)."""
        geom = geometry or DramGeometry()
        rng = np.random.default_rng(seed)
        locations = list(geom.iter_ranks())
        factors = np.exp(rng.normal(0.0, spread_sigma, size=len(locations)))
        factors /= factors.mean()
        ue_weights = rng.dirichlet(np.full(len(locations), 0.4))
        ranks = {
            loc: RankProfile(loc, float(factors[i]), float(ue_weights[i]))
            for i, loc in enumerate(locations)
        }
        return cls(geometry=geom, ranks=ranks)

    # ------------------------------------------------------------------
    def wer_factor(self, location: RankLocation) -> float:
        """Multiplicative WER factor of a rank (validates the location)."""
        self.geometry.validate_rank(location)
        return self.ranks[location].wer_factor

    def ue_weight(self, location: RankLocation) -> float:
        """Relative share of UE-vulnerable words hosted by a rank."""
        self.geometry.validate_rank(location)
        return self.ranks[location].ue_weight

    def normalized_ue_weights(self) -> Dict[RankLocation, float]:
        """UE weights normalised to sum to 1 (the Fig. 9b distribution)."""
        total = sum(p.ue_weight for p in self.ranks.values())
        if total <= 0:
            raise ConfigurationError("at least one rank must have a positive ue_weight")
        return {loc: p.ue_weight / total for loc, p in self.ranks.items()}
