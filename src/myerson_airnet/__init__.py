"""Auction-driven aerial data collection.

Analytic second-price and revenue-optimal clearing for uniform
valuations, a learned monotone-transform auction trained with
hand-assembled gradients, an image-redundancy valuation model, a
round-based UAV collection simulator, and a CLI experiment harness.
"""

from .auction import (AuctionOutcome, ValuationDistribution, ValuationProfile, myerson_clear,
                      spa_clear, virtual_valuation, virtual_valuation_inverse)
from .checkpoint import load_params, save_params
from .config import ExperimentConfig, build_config, read_config_file
from .errors import (CheckpointError, CheckpointShapeError, CheckpointVersionError,
                     DegenerateProfileError, DomainError, EpisodeExhaustedError, InputError,
                     TrainingDivergedError)
from .network import (MonotoneNetParams, NetConfig, TrainingTrace, allocate_soft, clear_hard,
                      grad, init_params, loss, train, transform, transform_inverse)
from .sim import (LearnedMechanism, RoundRecord, SecondPriceMechanism, WorldConfig, WorldState,
                  form_valuations, generate_world, run_episode, step, write_episode_csv,
                  write_episode_events)
from .valuation import distance, normalize_profile, pile_similarity, pile_terms, valuation_score

__version__ = "0.1.0"

__all__ = [
    "AuctionOutcome", "ValuationDistribution", "ValuationProfile", "myerson_clear",
    "spa_clear", "virtual_valuation", "virtual_valuation_inverse",
    "MonotoneNetParams", "NetConfig", "TrainingTrace", "allocate_soft", "clear_hard",
    "grad", "init_params", "loss", "train", "transform", "transform_inverse",
    "load_params", "save_params",
    "distance", "normalize_profile", "pile_similarity", "pile_terms",
    "valuation_score",
    "LearnedMechanism", "RoundRecord", "SecondPriceMechanism", "WorldConfig",
    "WorldState", "form_valuations", "generate_world", "run_episode", "step",
    "write_episode_csv", "write_episode_events",
    "ExperimentConfig", "build_config", "read_config_file",
    "CheckpointError", "CheckpointShapeError", "CheckpointVersionError",
    "DegenerateProfileError", "DomainError", "EpisodeExhaustedError", "InputError",
    "TrainingDivergedError",
    "__version__",
]
