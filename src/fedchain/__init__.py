"""fedchain: a deterministic, single-process simulator of blockchain-coordinated
federated learning with alignment-based rewards, periodic fairness checkpoints,
and consistency multipliers."""

from .numerics import Fixed, GradientVector, dot, sample_weighted_mean
from .keccak import keccak256
from .offchain import ContentStore, publish_checkpoint, verify_checkpoint
from .ledger import GasModel, Ledger, Transaction, Receipt, Block
from .coordinator import Coordinator
from .incentives import (
    alignment_score,
    cumulative_scores,
    consistency_adjusted_reward,
    shapley_exact,
    shapley_alignment,
    coalition_value_alignment,
)
from .flclients import SyntheticDataset, ClientBehavior, local_train, act
from .scenario import ScenarioConfig, load_config, parse_config, run_scenario, gas_sweep, audit

__version__ = "0.1.0"

__all__ = [
    "Fixed",
    "GradientVector",
    "dot",
    "sample_weighted_mean",
    "keccak256",
    "ContentStore",
    "publish_checkpoint",
    "verify_checkpoint",
    "GasModel",
    "Ledger",
    "Transaction",
    "Receipt",
    "Block",
    "Coordinator",
    "alignment_score",
    "cumulative_scores",
    "consistency_adjusted_reward",
    "shapley_exact",
    "shapley_alignment",
    "coalition_value_alignment",
    "SyntheticDataset",
    "ClientBehavior",
    "local_train",
    "act",
    "ScenarioConfig",
    "load_config",
    "parse_config",
    "run_scenario",
    "gas_sweep",
    "audit",
]
