"""Incentive math: alignment scores, exact Shapley attribution, cumulative
fairness scores, and consistency multipliers.

Everything here is a pure function over fixed-point values, so results are
reproducible bit-for-bit and safe to recompute off-chain from the event log.
"""
from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Mapping, Sequence

from .errors import BadParticipation, BadWeights, MissingRounds, TooManyClients
from .numerics import (
    ONE,
    SCALE,
    ZERO,
    Fixed,
    GradientVector,
    add_terms,
    div_toward_zero,
    dot,
    raw_dot,
    sample_weighted_mean,
    truncated_mean,
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
    numerator = score.raw * (scale_sq + alpha.raw * participation.raw)
    return Fixed(div_toward_zero(numerator, scale_sq))


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
    submissions: Mapping[bytes, GradientVector], n_map: Mapping[bytes, int]
) -> dict[bytes, Fixed]:
    """Exact Shapley values under the alignment characteristic, in one pass.

    Bit-identical to ``shapley_exact`` over ``coalition_value_alignment``,
    including which inputs raise ``OverflowError``, but the coalition values
    come from ``alignment_coalition_values`` instead of one FedAvg per coalition.
    """
    ids = _players(submissions)
    values = alignment_coalition_values(submissions, n_map)
    return _shapley_phi(ids, values)


def _players(clients: Iterable[bytes]) -> list[bytes]:
    ids = sorted(clients)
    if len(ids) > SHAPLEY_MAX_CLIENTS:
        raise TooManyClients(f"{len(ids)} clients exceeds the {SHAPLEY_MAX_CLIENTS}-player cap")
    if len(set(ids)) != len(ids):
        raise BadWeights("client ids must be distinct")
    return ids


def _shapley_phi(ids: Sequence[bytes], values: Sequence[int]) -> dict[bytes, Fixed]:
    """Shapley values from raw coalition values indexed by bitmask over ``ids``."""
    n = len(ids)
    factorial = [math.factorial(k) for k in range(n + 1)]
    weight = [factorial[size] * factorial[n - size - 1] for size in range(n)]
    phi: dict[bytes, Fixed] = {}
    for k, client_id in enumerate(ids):
        bit = 1 << k
        acc = 0
        for mask in range(1 << n):
            if not mask & bit:
                acc += weight[mask.bit_count()] * (values[mask | bit] - values[mask])
        phi[client_id] = Fixed(div_toward_zero(acc, factorial[n]))
    return phi


def alignment_coalition_values(
    submissions: Mapping[bytes, GradientVector], n_map: Mapping[bytes, int]
) -> list[int]:
    """Raw ``coalition_value_alignment`` of every coalition, indexed by bitmask
    over the sorted client ids (bit k set means the k-th id is a member).

    The full-cohort FedAvg is computed once. Coalitions are walked depth
    first, adding members in sorted-id order, so each coalition's integer
    numerator sum(n_i * raw_i) is its parent's plus one member's term. The
    numerator, mean and dot steps are the ones ``sample_weighted_mean`` and
    ``dot`` take, so values and overflows agree with them. The walk keeps
    each member's term and at most one numerator vector per depth,
    O(n * dim) integers, never one vector per coalition.
    """
    ids = sorted(submissions)
    values = [0] * (1 << len(ids))
    if not ids:
        return values
    vectors = [submissions[i] for i in ids]
    counts = [n_map[i] for i in ids]
    full = sample_weighted_mean(vectors, counts).components
    terms = [[n * raw for raw in v.components] for n, v in zip(counts, vectors)]

    def visit(mask: int, numerators: list[int], total: int, first: int) -> None:
        for j in range(first, len(ids)):
            child = mask | 1 << j
            child_numerators = add_terms(numerators, terms[j])
            # the coalition's mean is freed before the walk descends
            values[child] = raw_dot(truncated_mean(child_numerators, total + counts[j]), full)
            visit(child, child_numerators, total + counts[j], j + 1)

    visit(0, [0] * len(full), 0, 0)
    return values


def coalition_value_alignment(
    subset: Iterable[bytes],
    submissions: Mapping[bytes, GradientVector],
    n_map: Mapping[bytes, int],
) -> Fixed:
    """Coalition usefulness: dot(FedAvg over subset, FedAvg over everyone).

    An inner-product proxy that needs no validation dataset: for a singleton
    it reduces to the client's alignment with the full aggregate, and for
    the grand coalition it is the squared norm of the aggregate. v({}) = 0.
    This is the per-coalition definition; ``alignment_coalition_values``
    computes it for every coalition at once.
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


def attribution_record(
    round_index: int,
    client_id: bytes,
    score: Fixed,
    cumulative: Fixed,
    multiplier: Fixed,
    phi: Fixed | None = None,
) -> dict:
    """One attribution-log record; serialized as a JSON line."""
    return {
        "round": round_index,
        "client": "0x" + client_id.hex(),
        "S": score.to_decimal(),
        "phi": phi.to_decimal() if phi is not None else None,
        "cumulative": cumulative.to_decimal(),
        "multiplier": multiplier.to_decimal(),
    }


def write_attribution_log(path, records: Iterable[dict]) -> None:
    """JSON-lines export, one record per (round, client)."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
