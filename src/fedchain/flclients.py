"""Simulated client fleet: synthetic regression datasets, local training,
and scripted adversarial behaviors.

Training runs in ordinary float arithmetic; fixed-point quantization happens
once, at the submission boundary. All randomness flows from a root seed
through counter-based Philox streams keyed by (purpose, client, round), so
no global RNG state exists anywhere: ``act`` builds a dropout client's
stream for each round it is asked about.

Training floats (BLAS ``@``) are not bit-identical across BLAS kernels or
thread counts. ROADMAP measures another OpenBLAS kernel changing 76 169 of
``wide_model``'s 160 000 update floats by up to 2.5e-7 nano units, and two
threads changing a gemv's bits: replays match only as no quantized value moved.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimMismatch
from .keccak import keccak256
from .numerics import GradientVector, check_int, check_number

BEHAVIOR_KINDS = ("honest", "negator", "scaler", "freerider", "dropout")

# stream purposes for the counter-based RNG
STREAM_TRUE_WEIGHTS = 1
STREAM_FEATURES = 2
STREAM_NOISE = 3
STREAM_DROPOUT = 4


def rng_stream(root_seed: int, purpose: int, a: int = 0, b: int = 0) -> np.random.Generator:
    """Independent deterministic stream addressed by (purpose, a, b)."""
    key = [root_seed & 0xFFFFFFFFFFFFFFFF, (root_seed >> 64) & 0xFFFFFFFFFFFFFFFF]
    bits = np.random.Philox(key=key, counter=[purpose, a, b, 0])
    return np.random.Generator(bits)


def make_client_id(index: int) -> bytes:
    """Simulator-assigned 20-byte client identifier."""
    return keccak256(b"fedchain client %d" % index)[:20]


@dataclass
class SyntheticDataset:
    """Linear-regression data: targets = features @ true_weights + noise."""

    features: np.ndarray
    targets: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @classmethod
    def generate(
        cls,
        seed: int,
        n_samples: int,
        dim: int,
        noise_scale: float,
        true_weights: np.ndarray,
        client_index: int = 0,
    ) -> "SyntheticDataset":
        """Reproducible dataset; clients of one scenario share true_weights."""
        features = rng_stream(seed, STREAM_FEATURES, client_index).standard_normal(
            (n_samples, dim)
        )
        noise = rng_stream(seed, STREAM_NOISE, client_index).standard_normal(n_samples)
        targets = features @ true_weights + noise_scale * noise
        return cls(features=features, targets=targets)


def sample_true_weights(seed: int, dim: int) -> np.ndarray:
    return rng_stream(seed, STREAM_TRUE_WEIGHTS).standard_normal(dim)


def local_train(
    model: GradientVector, dataset: SyntheticDataset, epochs: int, lr: float
) -> GradientVector:
    """Full-batch gradient descent on mean half-squared error.

    Returns the parameter delta w_local - w_global, quantized half-to-even
    at the end. The loss is mean_i 0.5 * (y_i - x_i . w)^2, so one step
    moves w by -lr * X^T (X w - y) / n.
    """
    if model.dim != dataset.dim:
        raise DimMismatch(f"model dim {model.dim} != data dim {dataset.dim}")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    start = model.to_floats()
    w = start.copy()
    X, y = dataset.features, dataset.targets
    n = dataset.n_samples
    with np.errstate(over="ignore", invalid="ignore"):  # from_floats rejects inf and NaN
        for _ in range(epochs):
            gradient = X.T @ (X @ w - y) / n
            w = w - lr * gradient
        delta = w - start
    return GradientVector.from_floats(delta)


@dataclass(frozen=True)
class ClientBehavior:
    """Per-client scripted behavior; fixed for the whole scenario. A
    parameter's ``kind`` metadata names the one behavior that reads it."""

    kind: str
    c: int = field(default=100, metadata={"kind": "scaler"})  # submits c * g
    q: float = field(default=0.5, metadata={"kind": "dropout"})  # participates with probability q

    def __post_init__(self) -> None:
        if self.kind not in BEHAVIOR_KINDS:
            raise ValueError(f"unknown behavior {self.kind!r}")
        check_int(self.c, "c", minimum=1)
        object.__setattr__(self, "q", check_number(self.q, "q"))
        if not 0 <= self.q <= 1:
            raise ValueError("dropout probability must lie in [0, 1]")


def act(
    behavior: ClientBehavior,
    honest_update: GradientVector,
    seed: int,
    client_index: int,
    round_index: int,
) -> Optional[GradientVector]:
    """What actually goes on the wire for a client this round.

    Returns None when the client sits the round out (dropout). Only dropout
    draws: from the client's per-round stream under ``seed``, built here.
    """
    if behavior.kind == "honest":
        return honest_update
    if behavior.kind == "negator":
        return honest_update.negate()
    if behavior.kind == "scaler":
        return honest_update.scale_int(behavior.c)
    if behavior.kind == "freerider":
        return GradientVector.zeros(honest_update.dim)
    if behavior.kind == "dropout":
        rng = rng_stream(seed, STREAM_DROPOUT, client_index, round_index)
        return honest_update if rng.random() < behavior.q else None
    raise AssertionError(behavior.kind)
