"""Decentralized task-offloading game simulator with bandit learners.

Self-interested clients repeatedly pick vehicular fog nodes under bandit
feedback, an oblivious adversary and congestion coupling.  The package pairs
the simulator with a verification layer: replicator-ODE integration,
brute-force equilibrium oracles, and regret / price-of-total-anarchy metrics.
"""

__version__ = "0.1.0"

from .bandit import LearnerParams, LearnerState, LearningRates
from .configio import GameConfig
from .env import (
    AdversaryPhaseSchedule,
    CandidateSchedule,
    ChannelParams,
    EnvConfig,
    Environment,
    VfnSpec,
)
from .game import run_game
from .oracle import SmallGame
from .traces import GameTrace

__all__ = [
    "AdversaryPhaseSchedule",
    "CandidateSchedule",
    "ChannelParams",
    "EnvConfig",
    "Environment",
    "GameConfig",
    "GameTrace",
    "LearnerParams",
    "LearnerState",
    "LearningRates",
    "SmallGame",
    "VfnSpec",
    "run_game",
]
