"""Incentive math: alignment scores, exact Shapley attribution, cumulative
fairness scores, and consistency multipliers.

Everything here is a pure function over fixed-point values, so results are
reproducible bit-for-bit and safe to recompute off-chain from the event log.
"""
from __future__ import annotations

import json
import math
from itertools import compress
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import BadParticipation, BadWeights, MissingRounds, TooManyClients
from .numerics import (
    LANE_LIMIT,
    ONE,
    RAW_LIMIT,
    SCALE,
    ZERO,
    Fixed,
    GradientVector,
    _check_raw,
    add_terms,
    div_toward_zero,
    dot,
    raw_dot,
    sample_weighted_mean,
    truncated_mean,
    weighted_sum_lanes,
)

SHAPLEY_MAX_CLIENTS = 12  # 2^n subset enumeration budget
_LANE_BLOCK_CELLS = 4096  # coalition x component cells per int64 block


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
    submissions: Mapping[bytes, GradientVector],
    n_map: Mapping[bytes, int],
    aggregate: GradientVector,
) -> dict[bytes, Fixed]:
    """Exact Shapley values under the alignment characteristic, in one pass.

    ``aggregate`` is the cohort's FedAvg, as ``alignment_coalition_values``
    takes it. Bit-identical to ``shapley_exact`` over
    ``coalition_value_alignment``, including which inputs raise
    ``OverflowError`` once that FedAvg exists, but the coalition values come
    from ``alignment_coalition_values`` instead of one FedAvg per coalition.
    """
    ids = _players(submissions)
    values = alignment_coalition_values(submissions, n_map, aggregate)
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

    phi_k * n! is sum over T containing k of |T-k|! (n-|T|)! * v(T), less the
    sum over S not containing k of |S|! (n-|S|-1)! * v(S): the marginals
    v(S+k) - v(S) of the definition regrouped by coalition. Both sums are
    exact integer sums, taken by ``itertools.compress`` over one weighted
    table each, so each phi carries the one truncation by n! the
    per-marginal loop has.
    """
    n = len(ids)
    factorial = [math.factorial(k) for k in range(n + 1)]
    weight = [factorial[size] * factorial[n - size - 1] for size in range(n)]
    sizes = [mask.bit_count() for mask in range(1 << n)]
    # the empty coalition never contains k and the grand one always does, so
    # their zero weights are never selected
    joined = [weight[s - 1] * v if s else 0 for s, v in zip(sizes, values)]
    left = [weight[s] * v if s < n else 0 for s, v in zip(sizes, values)]
    phi: dict[bytes, Fixed] = {}
    for k, client_id in enumerate(ids):
        run, repeats = 1 << k, 1 << (n - k - 1)
        has_k = ([0] * run + [1] * run) * repeats
        lacks_k = ([1] * run + [0] * run) * repeats
        acc = sum(compress(joined, has_k)) - sum(compress(left, lacks_k))
        phi[client_id] = Fixed(div_toward_zero(acc, factorial[n]))
    return phi


def alignment_coalition_values(
    submissions: Mapping[bytes, GradientVector],
    n_map: Mapping[bytes, int],
    aggregate: GradientVector,
) -> list[int]:
    """Raw ``coalition_value_alignment`` of every coalition, indexed by bitmask
    over the sorted client ids (bit k set means the k-th id is a member).

    ``aggregate`` must be the full-cohort FedAvg: ``sample_weighted_mean``
    over the submissions and their counts in sorted-id order, as the
    contract keeps it on the round. When every coalition numerator and
    sample total fits in int64 (``numerics.weighted_sum_lanes``, the bound
    ``sample_weighted_mean`` takes its lanes under) the coalition means are
    computed on int64 lanes by ``_lane_coalition_values``; otherwise by the
    depth-first ``_walk_coalition_values``, the path for values beyond int64.
    Both give the per-coalition definition's values and raise its
    ``OverflowError``s.
    """
    ids = sorted(submissions)
    if not ids:
        return [0]
    counts = [n_map[i] for i in ids]
    vectors = [submissions[i] for i in ids]
    full = aggregate.components
    lanes = weighted_sum_lanes(vectors, counts)
    if lanes is not None:
        return _lane_coalition_values(lanes, counts, full)
    return _walk_coalition_values([v.components for v in vectors], counts, full)


def _lane_coalition_values(
    lanes: np.ndarray, counts: Sequence[int], full: Sequence[int]
) -> list[int]:
    """``alignment_coalition_values`` with every coalition's truncated mean
    taken on whole int64 arrays, a block of components at a time.

    Only for ``lanes`` that ``weighted_sum_lanes`` admits, under
    ``sum(n_i * max|raw_i|) < 2**63`` and ``sum(n_i) < 2**63``. Then no
    coalition numerator sum(n_i * raw_i), sample total or mean leaves
    int64, and no partial sum of a dot with the full FedAvg reaches
    ACC_LIMIT: |mean| and |full| are below 2**63, so a partial sum is below
    dim * 2**126, and dim < 2**129 for any vector that fits in memory. So
    the walk's per-partial-sum checks cannot fail and are not repeated.

    Each dot is exact: a block's products go into an int64 lane while the
    sum of their bounds ``reach`` stays below 2**63, and into Python ints
    otherwise. Each value gets the walk's terminal range check, in mask
    order; it can fail only when dim * 2**126 / SCALE reaches 2**127, at a
    dim above 2**30. Memory is O(2**n * n) for the membership table plus
    one block of at most ``_LANE_BLOCK_CELLS`` coalition x component cells,
    never a 2**n x dim table.
    """
    n = len(counts)
    members = (np.arange(1, 1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    totals = (members @ np.array(counts, dtype=np.int64))[:, None]
    terms = lanes * np.array(counts, dtype=np.int64)[:, None]
    # |mean_c| <= max_i |raw_ic| for every coalition, so |mean_c * full_c| <= reach[c]
    reach = list(map(mul, np.abs(lanes).max(axis=0).tolist(), map(abs, full)))
    full_lane = np.array(full, dtype=np.int64)
    full_row = np.array(full, dtype=object)
    width = max(1, _LANE_BLOCK_CELLS // len(members))
    lane, lane_reach = np.zeros(len(members), dtype=np.int64), 0
    spill = 0  # exact Python-int sums of what the lane cannot hold
    for start in range(0, len(full), width):
        block = slice(start, start + width)
        numerators = members @ terms[:, block]
        means = np.sign(numerators) * (np.abs(numerators) // totals)
        block_reach = sum(reach[block])
        if block_reach >= LANE_LIMIT:
            spill = spill + means.astype(object) @ full_row[block]
            continue
        if lane_reach + block_reach >= LANE_LIMIT:
            spill = spill + lane.astype(object)
            lane, lane_reach = np.zeros_like(lane), 0
        lane += means @ full_lane[block]
        lane_reach += block_reach
    dots = lane if isinstance(spill, int) else spill + lane.astype(object)
    values = [0] + (np.sign(dots) * (np.abs(dots) // SCALE)).tolist()
    if min(values) <= -RAW_LIMIT or max(values) >= RAW_LIMIT:
        list(map(_check_raw, values))  # the first value out of range, in mask order
    return values


def _walk_coalition_values(
    raws: Sequence[Sequence[int]], counts: Sequence[int], full: Sequence[int]
) -> list[int]:
    """``alignment_coalition_values`` by a depth-first walk over Python ints:
    the path for raws or counts whose coalition numerators leave int64.

    Coalitions are walked depth first, adding members in sorted-id order, so
    each coalition's integer numerator sum(n_i * raw_i) is its parent's plus
    one member's term. The numerator, mean and dot steps are the ones
    ``sample_weighted_mean`` and ``dot`` take, so values and overflows agree
    with them. The walk keeps each member's term and at most one numerator
    vector per depth, O(n * dim) integers, never one vector per coalition.
    """
    values = [0] * (1 << len(counts))
    terms = [[n * raw for raw in r] for n, r in zip(counts, raws)]

    def visit(mask: int, numerators: list[int], total: int, first: int) -> None:
        for j in range(first, len(counts)):
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
