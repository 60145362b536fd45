"""Incentive math: alignment scores, exact Shapley attribution, cumulative
fairness scores, and consistency multipliers.

Everything here is a pure function over fixed-point values, so results are
reproducible bit-for-bit and safe to recompute off-chain from the event log.
The exact integer kernels behind every coalition's value at once live in
``numerics.coalition_dots``; this module keeps the game.
"""
from __future__ import annotations

import math
from functools import cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import BadParticipation, BadWeights, MissingRounds, TooManyClients
from .numerics import (
    ONE,
    SCALE,
    ZERO,
    Fixed,
    GradientVector,
    coalition_dots,
    div_toward_zero,
    dot,
    sample_weighted_mean,
)

SHAPLEY_MAX_CLIENTS = 12  # 2^n subset enumeration budget


def alignment_score(
    g_i: GradientVector, g_global: GradientVector, n_i: int, n_total: int
) -> Fixed:
    """Client alignment score: (g_i . g_global) * n_i / n_total.

    The sample-count ratio is applied multiply-before-divide so the only
    rounding beyond the dot product is one terminal truncation.
    """
    if not 0 < n_i <= n_total:
        raise BadWeights(f"need 0 < n_i <= n_total, got {n_i}/{n_total}")
    return dot(g_i, g_global).mul_div(n_i, n_total)


def cumulative_scores(
    history: Mapping[int, Mapping[bytes, Fixed]], through_round: int
) -> dict[bytes, Fixed]:
    """Exact per-client sums of alignment scores over rounds 1..through_round.

    Clients absent from a round contribute zero for that round.
    """
    if through_round < 1:
        raise MissingRounds("through_round must be >= 1")
    missing = [r for r in range(1, through_round + 1) if r not in history]
    if missing:
        raise MissingRounds(f"history missing rounds {missing}")
    totals: dict[bytes, Fixed] = {}
    for r in range(1, through_round + 1):
        for client_id, score in history[r].items():
            totals[client_id] = totals.get(client_id, ZERO) + score
    return totals


def consistency_multiplier(alpha: Fixed, participation: Fixed) -> Fixed:
    """(1 + alpha * participation); >= 1 for valid inputs."""
    if participation.raw < 0 or participation > ONE:
        raise BadParticipation(f"participation must lie in [0, 1], got {participation}")
    if alpha.raw < 0:
        raise BadParticipation(f"alpha must be >= 0, got {alpha}")
    return ONE + alpha * participation


def consistency_adjusted_reward(score: Fixed, alpha: Fixed, participation: Fixed) -> Fixed:
    """score * (1 + alpha * participation) with one terminal rounding.

    The whole product is carried in a wide integer and truncated once, so
    the result is within one ulp of the real-valued formula even for large
    scores. Negative inputs stay negative (the multiplier amplifies
    magnitude); payouts clamp at zero downstream.
    """
    consistency_multiplier(alpha, participation)  # validates the inputs
    scale_sq = SCALE * SCALE
    return score.mul_div(scale_sq + alpha.raw * participation.raw, scale_sq)


def shapley_exact(
    clients: Sequence[bytes],
    coalition_value: Callable[[frozenset], Fixed],
) -> dict[bytes, Fixed]:
    """Exact Shapley values by full subset enumeration.

    phi_i = sum over T not containing i of
            |T|! (n-|T|-1)! / n! * (v(T+i) - v(T)).

    Each of the 2^n coalitions is evaluated once. Marginals are accumulated
    with integer coalition weights and divided by n! once at the end, so
    each phi carries a single truncation.
    """
    ids = _players(clients)
    values = [
        coalition_value(frozenset(ids[k] for k in range(len(ids)) if mask >> k & 1)).raw
        for mask in range(1 << len(ids))
    ]
    return _shapley_phi(ids, values)


def shapley_alignment(
    submissions: Mapping[bytes, GradientVector],
    n_map: Mapping[bytes, int],
    aggregate: GradientVector,
) -> dict[bytes, Fixed]:
    """Exact Shapley values under the alignment characteristic, in one pass.

    ``aggregate`` must be the cohort's FedAvg over the sorted ids, as the
    contract scores against it. Bit-identical to ``shapley_exact`` over
    ``coalition_value_alignment``, including which inputs raise
    ``OverflowError`` once that FedAvg exists, but every coalition's value
    comes from one ``numerics.coalition_dots`` call instead of one FedAvg
    per coalition.
    """
    ids = _players(submissions)
    values = coalition_dots([submissions[i] for i in ids], [n_map[i] for i in ids], aggregate)
    return _shapley_phi(ids, values)


def _players(clients: Iterable[bytes]) -> list[bytes]:
    ids = sorted(clients)
    if len(ids) > SHAPLEY_MAX_CLIENTS:
        raise TooManyClients(f"{len(ids)} clients exceeds the {SHAPLEY_MAX_CLIENTS}-player cap")
    if len(set(ids)) != len(ids):
        raise BadWeights("client ids must be distinct")
    return ids


def _shapley_phi(ids: Sequence[bytes], values: Sequence[int]) -> dict[bytes, Fixed]:
    """Shapley values from raw coalition values indexed by bitmask over ``ids``.

    With w(s) = s! (n-s-1)! and w(-1) = w(n) = 0, phi_k * n! is the sum over
    coalitions m containing k of (w(|m|-1) + w(|m|)) * v(m), less the sum
    over all m of w(|m|) * v(m): the marginals v(S+k) - v(S) of the
    definition regrouped by coalition. Both are exact integer sums over
    object arrays, so each phi carries the one truncation by n! the
    per-marginal loop has. The sums over coalitions containing k are taken
    by halving the weighted table from the top bit down.
    """
    n = len(ids)
    joined, left, n_factorial = _phi_weights(n)
    table = np.array(values, dtype=object)
    base = (left * table).sum()
    weighted = joined * table
    accs = [0] * n
    for k in reversed(range(n)):
        # the masks from 2**k up are the ones with bit k; folded onto the
        # masks below, they leave the table over bits 0..k-1
        half = 1 << k
        accs[k] = weighted[half:].sum() - base
        weighted = weighted[:half] + weighted[half:]
    return {cid: Fixed(div_toward_zero(acc, n_factorial)) for cid, acc in zip(ids, accs)}


@cache
def _phi_weights(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``_shapley_phi``'s per-mask weights over n players, read-only object
    arrays of w(|m|-1) + w(|m|) and of w(|m|), and n!."""
    factorial = [math.factorial(k) for k in range(n + 1)]
    weight = [0] + [factorial[s] * factorial[n - s - 1] for s in range(n)] + [0]  # w(s - 1)
    sizes = [mask.bit_count() for mask in range(1 << n)]
    joined = np.array([weight[s] + weight[s + 1] for s in sizes], dtype=object)
    left = np.array([weight[s + 1] for s in sizes], dtype=object)
    joined.flags.writeable = left.flags.writeable = False
    return joined, left, factorial[n]


def coalition_value_alignment(
    subset: Iterable[bytes],
    submissions: Mapping[bytes, GradientVector],
    n_map: Mapping[bytes, int],
) -> Fixed:
    """Coalition usefulness: dot(FedAvg over subset, FedAvg over everyone).

    An inner-product proxy that needs no validation dataset: for a singleton
    it reduces to the client's alignment with the full aggregate, and for
    the grand coalition it is the squared norm of the aggregate. v({}) = 0.
    This is the per-coalition definition; ``shapley_alignment`` takes every
    coalition's value at once from ``numerics.coalition_dots``.
    """
    members = sorted(subset)
    if not members:
        return ZERO
    full_ids = sorted(submissions)
    full_aggregate = sample_weighted_mean(
        [submissions[i] for i in full_ids], [n_map[i] for i in full_ids]
    )
    subset_aggregate = sample_weighted_mean(
        [submissions[i] for i in members], [n_map[i] for i in members]
    )
    return dot(subset_aggregate, full_aggregate)

