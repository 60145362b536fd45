"""fedchain: a deterministic, single-process simulator of blockchain-coordinated
federated learning with alignment-based rewards, periodic fairness checkpoints,
and consistency multipliers."""

__version__ = "0.1.0"
