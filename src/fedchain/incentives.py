"""Incentive math: alignment scores, exact Shapley attribution, cumulative
fairness scores, and consistency multipliers.

Everything here is a pure function over fixed-point values, so results are
reproducible bit-for-bit and safe to recompute off-chain from the event log.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from functools import cache
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
_LANE_BLOCK_CELLS = 2**15  # coalition x component cells per int64 block: 256 KB


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
    ``sample_weighted_mean`` takes int64 under, so that FedAvg is int64
    too) the coalition means are computed on int64 lanes by
    ``_lane_coalition_values``; otherwise by the depth-first
    ``_walk_coalition_values``, the path for values beyond int64. Both give
    the per-coalition definition's values and raise its ``OverflowError``s.
    """
    ids = sorted(submissions)
    if not ids:
        return [0]
    counts = [n_map[i] for i in ids]
    vectors = [submissions[i] for i in ids]
    lanes = weighted_sum_lanes(vectors, counts)
    if lanes is not None and aggregate.raw.dtype == np.int64:
        return _lane_coalition_values(lanes, counts, aggregate.raw)
    wide = [v.raw.astype(object) for v in vectors]
    return _walk_coalition_values(wide, counts, aggregate.raw.astype(object))


def _lane_coalition_values(lanes: np.ndarray, counts: Sequence[int], full: np.ndarray) -> list[int]:
    """``alignment_coalition_values`` with every coalition's truncated mean
    taken on whole int64 arrays, a block of components at a time; ``full``
    is the int64 FedAvg.

    Only for ``lanes`` that ``weighted_sum_lanes`` admits, under
    ``sum(n_i * max|raw_i|) < 2**63`` and ``sum(n_i) < 2**63``. Coalition
    numerators sum(n_i * raw_i) and sample totals are subset sums, taken by
    doubling (``_subset_sums``): every value formed is some coalition's, so
    none leaves int64, and no partial sum of a dot with the full FedAvg
    reaches ACC_LIMIT: |mean| and |full| are below 2**63, so a partial sum
    is below dim * 2**126, and dim < 2**129 for any vector that fits in
    memory. So the walk's per-partial-sum checks cannot fail and are not
    repeated.

    Each dot is exact. ``_blocks`` cuts the components where the sum of the
    products' bounds ``reach`` would reach 2**63: a block below it is
    summed on an int64 lane, which moves to Python ints before the blocks
    it holds reach 2**63 together, and a run of components each beyond it
    is summed in Python ints. Each value gets the walk's terminal range
    check, in mask order; it can fail only when dim * 2**126 / SCALE
    reaches 2**127, at a dim above 2**30. Memory is O(2**n) for the totals
    plus one table that every block reuses and its signs, each of about
    ``_LANE_BLOCK_CELLS`` coalition x component cells, never a 2**n x dim
    table.
    """
    counts_lane = np.array(counts, dtype=np.int64)
    totals = _subset_sums(counts_lane, np.empty(1 << len(counts), np.int64))[1:, None]
    terms = lanes * counts_lane[:, None]
    # |mean_c| <= max_i |raw_ic| for every coalition, so |mean_c * full_c| <= reach[c]
    reach = list(map(mul, np.abs(lanes).max(axis=0).tolist(), map(abs, full.tolist())))
    rows, width = len(totals) + 1, max(1, _LANE_BLOCK_CELLS // len(totals))
    buffer = np.empty(rows * min(width, len(full)), np.int64)  # every block's numerators
    lane, lane_reach = np.zeros(len(totals), dtype=np.int64), 0
    spill = 0  # exact Python-int sums of what the lane cannot hold
    for block, block_reach in _blocks(reach, width):
        numerators = buffer[: rows * (block.stop - block.start)].reshape(rows, -1)
        means = _truncate(_subset_sums(terms[:, block], numerators)[1:], totals)
        if block_reach >= LANE_LIMIT:
            spill = spill + means.astype(object) @ full[block].astype(object)
            continue
        if lane_reach + block_reach >= LANE_LIMIT:
            spill = spill + lane.astype(object)
            lane, lane_reach = np.zeros_like(lane), 0
        lane += means @ full[block]
        lane_reach += block_reach
    dots = lane if isinstance(spill, int) else spill + lane.astype(object)
    values = [0] + (np.sign(dots) * (np.abs(dots) // SCALE)).tolist()
    # a value from an int64 dot lies far inside RAW_LIMIT
    if dots.dtype == object and (min(values) <= -RAW_LIMIT or max(values) >= RAW_LIMIT):
        list(map(_check_raw, values))  # the first value out of range, in mask order
    return values


def _truncate(numerators: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``numerators`` divided by ``totals`` and truncated toward zero, in
    place; the one temporary, the signs, is freed on return."""
    signs = np.sign(numerators)
    np.abs(numerators, out=numerators)
    numerators //= totals
    numerators *= signs
    return numerators


def _subset_sums(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` filled with the sum of every subset of ``rows``, indexed by
    bitmask (bit k: row k), by doubling: the sums with bit k set are those
    below 2**k plus row k."""
    out[0] = 0
    for k, row in enumerate(rows):
        np.add(out[: 1 << k], row, out=out[1 << k : 2 << k])
    return out


def _blocks(reach: Sequence[int], width: int) -> Iterator[tuple[slice, int]]:
    """Runs of at most ``width`` components, each with its summed reach: the
    longest run whose sum stays below LANE_LIMIT, or a run of components
    each at or beyond it. Only the components beyond it are visited one by
    one; the others are cut by bisecting the prefix sums."""
    prefix = [0, *accumulate(reach)]
    start = 0
    while start < len(reach):
        stop = min(start + width, len(reach))
        end = start + 1
        if reach[start] >= LANE_LIMIT:
            while end < stop and reach[end] >= LANE_LIMIT:
                end += 1
        else:
            end = min(stop, bisect_left(prefix, prefix[start] + LANE_LIMIT, end) - 1)
        yield slice(start, end), prefix[end] - prefix[start]
        start = end


def _walk_coalition_values(
    raws: Sequence[np.ndarray], counts: Sequence[int], full: np.ndarray
) -> list[int]:
    """``alignment_coalition_values`` by a depth-first walk over Python ints,
    raws and ``full`` as object arrays: the path for raws or counts whose
    coalition numerators leave int64.

    Coalitions are walked depth first, adding members in sorted-id order, so
    each coalition's integer numerator sum(n_i * raw_i) is its parent's plus
    one member's term. The numerator, mean and dot steps are the ones
    ``sample_weighted_mean`` and ``dot`` take, so values and overflows agree
    with them. The walk keeps each member's term and at most one numerator
    vector per depth, O(n * dim) integers, never one vector per coalition.
    """
    values = [0] * (1 << len(counts))
    terms = [r * n for n, r in zip(counts, raws)]

    def visit(mask: int, numerators: np.ndarray, total: int, first: int) -> None:
        for j in range(first, len(counts)):
            child = mask | 1 << j
            child_numerators = add_terms(numerators, terms[j])
            # the coalition's mean is freed before the walk descends
            values[child] = raw_dot(truncated_mean(child_numerators, total + counts[j]), full)
            visit(child, child_numerators, total + counts[j], j + 1)

    visit(0, np.zeros(len(full), dtype=object), 0, 0)
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
