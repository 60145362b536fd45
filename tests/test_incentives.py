"""Alignment scores, Shapley attribution, cumulative scores, multipliers."""
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedchain import coordinator, incentives, numerics

from fedchain.errors import (
    BadParticipation,
    BadWeights,
    MissingRounds,
    TooManyClients,
)
from fedchain.coordinator import _largest_remainder_split
from fedchain.incentives import (
    alignment_coalition_values,
    alignment_score,
    coalition_value_alignment,
    consistency_adjusted_reward,
    consistency_multiplier,
    cumulative_scores,
    shapley_alignment,
    shapley_exact,
)
from fedchain.numerics import (
    RAW_LIMIT,
    SCALE,
    Fixed,
    GradientVector,
    div_toward_zero,
    dot,
    sample_weighted_mean,
)
from fedchain.scenario import parse_config, run_scenario

IDS = [bytes([i]) * 20 for i in range(1, 13)]


def fx(text: str) -> Fixed:
    return Fixed.from_decimal(text)


def vec(*values: str) -> GradientVector:
    return GradientVector.from_decimals(values)


def shapley_permutation_oracle(ids, coalition_value) -> dict:
    """Independent oracle: average marginal contribution over all player
    orderings, accumulated exactly in raw units and divided by n! once."""
    ids = sorted(ids)
    n = len(ids)
    totals = {cid: 0 for cid in ids}
    cache: dict[frozenset, int] = {}

    def v(subset: frozenset) -> int:
        if subset not in cache:
            cache[subset] = coalition_value(subset).raw
        return cache[subset]

    for order in itertools.permutations(ids):
        prefix: frozenset = frozenset()
        prev = v(prefix)
        for cid in order:
            prefix = prefix | {cid}
            current = v(prefix)
            totals[cid] += current - prev
            prev = current
    n_fact = math.factorial(n)
    return {cid: totals[cid] / n_fact / SCALE for cid in ids}


class TestAlignmentScore:
    def test_orthogonal_is_zero(self):
        assert alignment_score(vec("1", "0"), vec("0", "1"), 1, 2).raw == 0

    def test_direct_arithmetic(self):
        score = alignment_score(vec("1", "0"), vec("0.25", "0.75"), 1, 4)
        assert score.to_decimal() == "0.0625"

    def test_negated_gradient_scores_negative(self):
        g = vec("0.5", "-1.5")
        assert alignment_score(g.negate(), g, 3, 7).is_negative()

    def test_bad_weights(self):
        with pytest.raises(BadWeights):
            alignment_score(vec("1"), vec("1"), 0, 4)
        with pytest.raises(BadWeights):
            alignment_score(vec("1"), vec("1"), 5, 4)

    @given(
        st.lists(st.integers(-(2 * SCALE), 2 * SCALE), min_size=1, max_size=8),
        st.integers(1, 50),
        st.integers(1, 50),
        st.integers(1, 20),
    )
    def test_sample_scale_invariance(self, raws, n_i, extra, factor):
        # scaling every client's sample count by the same factor leaves scores unchanged
        g = GradientVector.from_raw(raws)
        n_total = n_i + extra
        base = alignment_score(g, g, n_i, n_total)
        scaled = alignment_score(g, g, n_i * factor, n_total * factor)
        assert base == scaled


class TestCumulativeScores:
    def test_simple_sum(self):
        history = {
            1: {IDS[0]: fx("1")},
            2: {IDS[0]: fx("2")},
            3: {IDS[0]: fx("3")},
        }
        assert cumulative_scores(history, 3)[IDS[0]].to_decimal() == "6"

    def test_absent_client_is_zero(self):
        history = {1: {IDS[0]: fx("1")}, 2: {IDS[0]: fx("1")}}
        assert IDS[1] not in cumulative_scores(history, 2)

    def test_mixed_signs(self):
        history = {1: {IDS[0]: fx("5")}, 2: {IDS[0]: fx("-2")}}
        assert cumulative_scores(history, 2)[IDS[0]].to_decimal() == "3"

    def test_missing_rounds(self):
        with pytest.raises(MissingRounds):
            cumulative_scores({1: {}, 3: {}}, 3)

    @given(
        st.integers(2, 8),
        st.integers(1, 7),
        st.data(),
    )
    def test_linearity_over_round_split(self, total_rounds, split, data):
        split = min(split, total_rounds - 1)
        history = {
            r: {
                IDS[i]: Fixed(data.draw(st.integers(-(10**9), 10**9)))
                for i in range(data.draw(st.integers(0, 3)))
            }
            for r in range(1, total_rounds + 1)
        }
        full = cumulative_scores(history, total_rounds)
        head = cumulative_scores(history, split)
        tail: dict = {}
        for r in range(split + 1, total_rounds + 1):
            for cid, s in history[r].items():
                tail[cid] = tail.get(cid, Fixed(0)) + s
        for cid, value in full.items():
            assert value == head.get(cid, Fixed(0)) + tail.get(cid, Fixed(0))


class TestConsistencyMultiplier:
    def test_alpha_zero_is_identity(self):
        assert consistency_adjusted_reward(fx("7.25"), fx("0"), fx("1")) == fx("7.25")

    def test_plug_in_arithmetic(self):
        assert consistency_adjusted_reward(fx("10"), fx("0.5"), fx("0.8")).to_decimal() == "14"

    def test_negative_score_amplified(self):
        assert consistency_adjusted_reward(fx("-4"), fx("1"), fx("1")).to_decimal() == "-8"

    def test_participation_range_checked(self):
        with pytest.raises(BadParticipation):
            consistency_adjusted_reward(fx("1"), fx("0.5"), fx("1.1"))
        with pytest.raises(BadParticipation):
            consistency_adjusted_reward(fx("1"), fx("0.5"), fx("-0.1"))
        with pytest.raises(BadParticipation):
            consistency_adjusted_reward(fx("1"), fx("-0.5"), fx("0.5"))

    def test_multiplier_at_least_one(self):
        assert consistency_multiplier(fx("0"), fx("0")) == fx("1")
        assert consistency_multiplier(fx("2"), fx("0.5")) == fx("2")

    @given(
        st.integers(1, 10**12),
        st.lists(st.integers(0, 4 * SCALE), min_size=2, max_size=2),
        st.lists(st.integers(0, SCALE), min_size=2, max_size=2),
    )
    def test_monotone_in_alpha_and_participation(self, s_raw, alphas, parts):
        score = Fixed(s_raw)
        a_lo, a_hi = sorted(alphas)
        p_lo, p_hi = sorted(parts)
        low = consistency_adjusted_reward(score, Fixed(a_lo), Fixed(p_lo))
        assert consistency_adjusted_reward(score, Fixed(a_hi), Fixed(p_lo)) >= low
        assert consistency_adjusted_reward(score, Fixed(a_lo), Fixed(p_hi)) >= low


def shapley_phi_loop(ids, values) -> dict:
    """Reference for ``incentives._shapley_phi``: the per-marginal loop
    phi_k = sum over masks without k of |S|! (n-|S|-1)! (v(S+k) - v(S)) / n!,
    one truncation per phi."""
    n = len(ids)
    factorial = [math.factorial(k) for k in range(n + 1)]
    weight = [factorial[size] * factorial[n - size - 1] for size in range(n)]
    phi = {}
    for k, client_id in enumerate(ids):
        bit = 1 << k
        acc = 0
        for mask in range(1 << n):
            if not mask & bit:
                acc += weight[mask.bit_count()] * (values[mask | bit] - values[mask])
        phi[client_id] = Fixed(div_toward_zero(acc, factorial[n]))
    return phi


def _outcome(f, *args):
    """``f(*args)``, or the type and message of the OverflowError it raises."""
    try:
        return f(*args)
    except OverflowError as err:
        return type(err), str(err)


class TestShapleyPhi:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 2**64),
           st.sampled_from([2**20, 2**64, 2**100, RAW_LIMIT]))
    @example(12, 0, RAW_LIMIT)
    @example(12, 1, 2**20)
    def test_matches_the_per_marginal_loop(self, n, seed, bound):
        # raw tables up to +-(2**127 - 1); at the widest, many phi leave the range
        rng = random.Random(seed)
        values = [rng.randrange(-bound + 1, bound) for _ in range(1 << n)]
        ids = IDS[:n]
        assert _outcome(incentives._shapley_phi, ids, values) == _outcome(
            shapley_phi_loop, ids, values
        )


class TestShapley:
    def test_two_player_example(self):
        # v({1}) = 1, v({2}) = 3, v({1,2}) = 6 -> phi = (2, 4)
        table = {
            frozenset(): fx("0"),
            frozenset({IDS[0]}): fx("1"),
            frozenset({IDS[1]}): fx("3"),
            frozenset({IDS[0], IDS[1]}): fx("6"),
        }
        attribution = shapley_exact(IDS[:2], table.__getitem__)
        assert attribution[IDS[0]].to_decimal() == "2"
        assert attribution[IDS[1]].to_decimal() == "4"

    def test_additive_game_returns_weights(self):
        weights = {IDS[0]: fx("1.5"), IDS[1]: fx("-0.25"), IDS[2]: fx("3")}

        def v(subset):
            total = Fixed(0)
            for cid in subset:
                total = total + weights[cid]
            return total

        attribution = shapley_exact(IDS[:3], v)
        for cid, expected in weights.items():
            assert abs(attribution[cid].raw - expected.raw) <= 4

    def test_dummy_player_gets_zero(self):
        def v(subset):
            return fx("5") if IDS[0] in subset else fx("0")

        attribution = shapley_exact(IDS[:3], v)
        assert attribution[IDS[0]].to_decimal() == "5"
        assert abs(attribution[IDS[1]].raw) <= 4
        assert abs(attribution[IDS[2]].raw) <= 4

    def test_too_many_clients(self):
        with pytest.raises(TooManyClients):
            shapley_exact([bytes([i]) * 20 for i in range(13)], lambda s: Fixed(0))

    def test_matches_permutation_oracle_on_random_games(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            ids = IDS[:n]
            table = {
                frozenset(combo): Fixed(int(rng.integers(-(10**9), 10**9)))
                for size in range(n + 1)
                for combo in itertools.combinations(ids, size)
            }
            table[frozenset()] = Fixed(0)
            attribution = shapley_exact(ids, table.__getitem__)
            oracle = shapley_permutation_oracle(ids, table.__getitem__)
            for cid in ids:
                assert abs(attribution[cid].to_float() - oracle[cid]) <= 4 * n / SCALE

    def test_efficiency_on_random_games(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            ids = IDS[:n]
            table = {
                frozenset(combo): Fixed(int(rng.integers(-(10**10), 10**10)))
                for size in range(n + 1)
                for combo in itertools.combinations(ids, size)
            }
            table[frozenset()] = Fixed(0)
            attribution = shapley_exact(ids, table.__getitem__)
            total = sum(v.raw for v in attribution.values())
            grand = table[frozenset(ids)].raw
            assert abs(total - grand) <= 4 * n

    def test_symmetry_for_identical_clients(self):
        submissions = {
            IDS[0]: vec("1", "2"),
            IDS[1]: vec("1", "2"),
            IDS[2]: vec("-1", "0.5"),
        }
        n_map = {IDS[0]: 4, IDS[1]: 4, IDS[2]: 9}
        attribution = shapley_exact(
            list(submissions), lambda s: coalition_value_alignment(s, submissions, n_map)
        )
        assert abs(attribution[IDS[0]].raw - attribution[IDS[1]].raw) <= 4


class TestCoalitionValue:
    def test_empty_coalition_is_zero(self):
        assert coalition_value_alignment([], {IDS[0]: vec("1")}, {IDS[0]: 1}).raw == 0

    def test_grand_coalition_is_aggregate_self_dot(self):
        submissions = {IDS[0]: vec("1", "0"), IDS[1]: vec("0", "1")}
        n_map = {IDS[0]: 1, IDS[1]: 3}
        value = coalition_value_alignment(list(submissions), submissions, n_map)
        aggregate = vec("0.25", "0.75")
        assert value == dot(aggregate, aggregate)

    def test_orthogonal_singleton_is_zero(self):
        # full aggregate is [0, 1]; client 0's update [1, 0] is orthogonal to it
        submissions = {IDS[0]: vec("1", "0"), IDS[1]: vec("-1", "2")}
        n_map = {IDS[0]: 1, IDS[1]: 1}
        value = coalition_value_alignment([IDS[0]], submissions, n_map)
        assert value.raw == 0

    def test_equal_gradients_split_evenly(self):
        g = vec("0.5", "0.5")
        submissions = {IDS[0]: g, IDS[1]: g, IDS[2]: g}
        n_map = {cid: 2 for cid in submissions}
        attribution = shapley_exact(
            list(submissions), lambda s: coalition_value_alignment(s, submissions, n_map)
        )
        expected = dot(g, g).raw / 3
        for value in attribution.values():
            assert abs(value.raw - expected) <= 4


def fedavg(submissions, n_map) -> GradientVector:
    """The cohort's FedAvg as the contract keeps it for Shapley:
    ``sample_weighted_mean`` over the submissions in sorted-id order."""
    ids = sorted(submissions)
    return sample_weighted_mean([submissions[i] for i in ids], [n_map[i] for i in ids])


def coalition_values(submissions, n_map) -> list[int]:
    return alignment_coalition_values(submissions, n_map, fedavg(submissions, n_map))


def one_pass_phi(submissions, n_map) -> dict:
    return shapley_alignment(submissions, n_map, fedavg(submissions, n_map))


def _per_coalition(submissions, n_map):
    """Outcome of the per-coalition definition: phi, or the exception type."""
    try:
        return shapley_exact(
            list(submissions), lambda s: coalition_value_alignment(s, submissions, n_map)
        )
    except OverflowError as err:
        return type(err)


def _one_pass(submissions, n_map):
    try:
        return one_pass_phi(submissions, n_map)
    except OverflowError as err:
        return type(err)


def _games(max_clients: int, raws, counts):
    """(submissions, n_map) over distinct random ids and a shared dimension."""

    @st.composite
    def game(draw):
        ids = draw(st.lists(st.binary(min_size=20, max_size=20), min_size=1,
                            max_size=max_clients, unique=True))
        dim = draw(st.integers(1, 8))
        submissions = {
            cid: GradientVector.from_raw(draw(st.lists(raws, min_size=dim, max_size=dim)))
            for cid in ids
        }
        return submissions, {cid: draw(counts) for cid in ids}

    return game()


class TestShapleyAlignment:
    @settings(deadline=None)
    @given(_games(7, st.integers(-(10**12), 10**12), st.integers(1, 10**6)))
    def test_matches_per_coalition_definition(self, game):
        submissions, n_map = game
        ids = sorted(submissions)
        values = coalition_values(submissions, n_map)
        assert len(values) == 1 << len(ids)
        for mask, value in enumerate(values):
            subset = frozenset(ids[k] for k in range(len(ids)) if mask >> k & 1)
            assert value == coalition_value_alignment(subset, submissions, n_map).raw
        assert one_pass_phi(submissions, n_map) == _per_coalition(submissions, n_map)

    @settings(deadline=None)
    @given(_games(4, st.integers(-RAW_LIMIT + 1, RAW_LIMIT - 1), st.integers(1, 2**130)))
    def test_overflow_agrees_near_raw_limit(self, game):
        submissions, n_map = game
        assert _one_pass(submissions, n_map) == _per_coalition(submissions, n_map)

    @pytest.mark.parametrize(
        "raws, count, message",
        [
            # full-cohort FedAvg numerator: 2^129 * (2^127 - 1) > ACC_LIMIT
            ([[RAW_LIMIT - 1]], 2**129, "wide accumulator"),
            # dot partial sum: 3 * (2^127 - 1)^2 > ACC_LIMIT
            ([[RAW_LIMIT - 1] * 3], 1, "wide accumulator"),
            # dot result: 2^200 / SCALE > RAW_LIMIT
            ([[2**100]], 1, "fixed-point value out of range"),
            # only the numerator of coalition {1, 2}, which is no prefix of the
            # sorted cohort, exceeds ACC_LIMIT; the full aggregate is zero
            ([[-(2**126)], [2**126], [2**126], [-(2**126)]], 5 * 2**126, "wide accumulator"),
        ],
    )
    def test_overflow_raises_on_both_paths(self, raws, count, message):
        submissions = {IDS[k]: GradientVector.from_raw(r) for k, r in enumerate(raws)}
        n_map = {cid: count for cid in submissions}
        with pytest.raises(OverflowError, match=message):
            shapley_exact(
                list(submissions), lambda s: coalition_value_alignment(s, submissions, n_map)
            )
        with pytest.raises(OverflowError, match=message):
            # the FedAvg numerator case raises from the FedAvg the contract computes
            one_pass_phi(submissions, n_map)

    def test_no_clients(self):
        # an empty cohort has no FedAvg, and none is read
        assert alignment_coalition_values({}, {}, None) == [0]
        assert shapley_alignment({}, {}, None) == {}

    def test_too_many_clients(self):
        ids = [bytes([i]) * 20 for i in range(13)]
        with pytest.raises(TooManyClients):
            one_pass_phi({cid: vec("1") for cid in ids}, {cid: 1 for cid in ids})


def _walk_order(n: int) -> list[int]:
    """Non-empty coalition masks in the depth-first walk's order: member
    index lists in lexicographic order."""
    return sorted(range(1, 1 << n), key=lambda mask: [k for k in range(n) if mask >> k & 1])


def _definition_values(submissions, n_map) -> list[int]:
    """Every coalition's raw value by the per-coalition definition; raises the
    OverflowError of the first coalition, in the walk's order, that has one."""
    ids = sorted(submissions)
    values = [0] * (1 << len(ids))
    for mask in _walk_order(len(ids)):
        subset = [ids[k] for k in range(len(ids)) if mask >> k & 1]
        values[mask] = coalition_value_alignment(subset, submissions, n_map).raw
    return values


def _takes_lanes(submissions, n_map) -> bool:
    """The lanes path's bound: sum(n_i * max|raw_i|) and sum(n_i) below 2**63."""
    peak = sum(n_map[c] * max(map(abs, v.raw.tolist())) for c, v in submissions.items())
    return peak < 2**63 and sum(n_map.values()) < 2**63


def _forbid(monkeypatch, name: str) -> None:
    def forbidden(*args):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(numerics, name, forbidden)


def _cohort(raw_rows, counts) -> tuple[dict, dict]:
    submissions = {IDS[k]: GradientVector.from_raw(row) for k, row in enumerate(raw_rows)}
    return submissions, {cid: n for cid, n in zip(submissions, counts)}


@st.composite
def _bound_games(draw):
    """Games whose sum(n_i * max|raw_i|) lands on either side of 2**63: each
    client has a component of magnitude 2**raw_bits and 2**(count_bits - 1)
    to 2**count_bits samples, with raw_bits + count_bits from 58 to 66."""
    total_bits = draw(st.integers(58, 66))
    raw_bits = draw(st.integers(0, total_bits))
    count_bits = total_bits - raw_bits
    dim = draw(st.integers(1, 6))
    raws = st.integers(-(2**raw_bits), 2**raw_bits)
    rows, counts = [], []
    for _ in range(draw(st.integers(1, 5))):
        row = draw(st.lists(raws, min_size=dim - 1, max_size=dim - 1))
        row.insert(draw(st.integers(0, dim - 1)), draw(st.sampled_from([-1, 1])) * 2**raw_bits)
        rows.append(row)
        counts.append(draw(st.integers(max(1, 2 ** count_bits // 2), 2**count_bits)))
    return _cohort(rows, counts)


def _recorded_blocks(monkeypatch) -> list:
    """Every ``(block, bound)`` that ``numerics._blocks`` yields, with the
    width it was asked for, recorded as the lanes take it."""
    recorded, blocks = [], numerics._blocks

    def recording(reach, width):
        for cut in blocks(reach, width):
            recorded.append((cut, width))
            yield cut

    monkeypatch.setattr(numerics, "_blocks", recording)
    return recorded


def _checked_blocks(recorded, submissions, n_map) -> list[bool]:
    """Checks the recorded blocks against the exact reach max_i |raw_ic| *
    |full_c| in Python ints: each block covers at most its width, and one
    whose bound is within the cut, summed on the int64 lane, has exact
    summed reach below 2**63. Returns which blocks took the lane."""
    full = fedavg(submissions, n_map).raw.tolist()
    rows = [v.raw.tolist() for v in submissions.values()]
    reach = [max(abs(row[c]) for row in rows) * abs(f) for c, f in enumerate(full)]
    lane = []
    for (block, bound), width in recorded:
        assert 0 < block.stop - block.start <= width
        lane.append(bound <= numerics._REACH_CUT)
        if lane[-1]:
            assert sum(reach[block]) < 2**63
    return lane


@st.composite
def _straddling_lanes(draw):
    """Lanes and a ``full`` whose per-component reach max_i |raw_ic| *
    |full_c| lies within a few units of |full_c| of 2**61, 2**62 or 2**63:
    on both sides of the float cut, alone and in pairs, and of the lane limit."""
    dim = draw(st.integers(1, 10))
    raw_bits = draw(st.integers(1, 59))  # 3 counts of 3 at 2**59 stay below 2**63: lanes
    rows = draw(st.lists(st.lists(st.integers(-(2**raw_bits), 2**raw_bits),
                                  min_size=dim, max_size=dim), min_size=1, max_size=3))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    full = []
    for c in range(dim):
        peak = max(abs(row[c]) for row in rows) or 1
        near = draw(st.sampled_from([2**61, 2**62, 2**63])) // peak + draw(st.integers(-2, 2))
        full.append(min(max(draw(st.sampled_from([1, -1])) * near, -(2**63)), 2**63 - 1))
    return [GradientVector.from_raw(row) for row in rows], counts, GradientVector.from_raw(full)


class TestCoalitionValuePaths:
    """Each path of ``alignment_coalition_values`` against the per-coalition
    definition: the int64 lanes under the bound, the walk beyond it."""

    @settings(max_examples=150, deadline=None)
    @given(_bound_games())
    @example(_cohort([[2**62]], [2]))  # n * |raw| == 2**63: the walk
    @example(_cohort([[-(2**63 - 1)]], [1]))  # just under: the lanes
    def test_both_sides_of_the_bound_match_the_definition(self, game):
        submissions, n_map = game
        outcome = _outcome(coalition_values, submissions, n_map)
        assert outcome == _outcome(_definition_values, submissions, n_map)
        if _takes_lanes(submissions, n_map):
            # called directly on the inputs the lanes took, the walk agrees
            ids = sorted(submissions)
            vectors, counts = [submissions[c] for c in ids], [n_map[c] for c in ids]
            full = sample_weighted_mean(vectors, counts).raw.astype(object)
            raws = [v.raw.astype(object) for v in vectors]
            assert numerics._walk_coalition_dots(raws, counts, full) == outcome

    def test_shapley_cohort_shape_takes_the_lanes(self, monkeypatch):
        # 12 clients x dim 16 with 40 samples each, raws at gradient scale
        rng = np.random.default_rng(5)
        submissions, n_map = _cohort(rng.integers(-(2**30), 2**30, (12, 16)).tolist(), [40] * 12)
        expected = _definition_values(submissions, n_map)
        _forbid(monkeypatch, "_walk_coalition_dots")
        assert coalition_values(submissions, n_map) == expected
        assert one_pass_phi(submissions, n_map) == shapley_phi_loop(sorted(submissions), expected)

    @pytest.mark.parametrize("raw_rows, counts", [
        ([[2**62]], [2]),  # n * |raw| == 2**63
        ([[2**61, 1], [-(2**61), 3]], [2, 2]),  # sum(n_i * max|raw_i|) == 2**63
        ([[0, 0], [0, 0]], [2**62, 2**62]),  # sum(n_i) == 2**63
    ], ids=["one_client", "sum_of_peaks", "sum_of_counts"])
    def test_at_the_bound_takes_the_walk(self, monkeypatch, raw_rows, counts):
        submissions, n_map = _cohort(raw_rows, counts)
        expected = _definition_values(submissions, n_map)
        _forbid(monkeypatch, "_lane_coalition_dots")
        assert coalition_values(submissions, n_map) == expected

    # column magnitudes that keep every block's dot on the int64 lane, fill the
    # lane so it spills to Python ints between blocks, or overflow it in one
    # column so the block is summed in Python ints, and a mix of all three
    @pytest.mark.parametrize("magnitudes", [
        [2**20] * 9,
        [3 * 2**29] * 9,
        [2**40] * 9,
        [2**40, 2**10, 3 * 2**29, 3 * 2**29, 2**10, 3 * 2**29, 2**40, 2**10, 3 * 2**29],
    ], ids=["lane", "lane_spills", "python_ints", "mixed"])
    @pytest.mark.parametrize("cells", [14, numerics._LANE_BLOCK_CELLS])
    def test_blocks_with_a_short_last_block(self, monkeypatch, magnitudes, cells):
        # 3 clients: 7 coalitions, so 14 cells make blocks of 2, 2, 2, 2 and 1
        rng = np.random.default_rng(len(magnitudes) + cells)
        rows = [[int(m) - int(rng.integers(0, 99)) for m in magnitudes] for _ in range(3)]
        submissions, n_map = _cohort(rows, [1, 2, 3])
        expected = _definition_values(submissions, n_map)
        monkeypatch.setattr(numerics, "_LANE_BLOCK_CELLS", cells)
        _forbid(monkeypatch, "_walk_coalition_dots")
        recorded = _recorded_blocks(monkeypatch)
        assert coalition_values(submissions, n_map) == expected
        lane = _checked_blocks(recorded, submissions, n_map)
        assert any(lane) == (magnitudes != [2**40] * 9)  # 2**80 per component: Python ints
        assert all(lane) == (2**40 not in magnitudes)
        if cells == 14 and magnitudes == [2**20] * 9:
            assert [block.stop - block.start for (block, _), _ in recorded] == [2, 2, 2, 2, 1]
        assert one_pass_phi(submissions, n_map) == shapley_phi_loop(sorted(submissions), expected)

    def test_ten_clients_in_blocks_of_four_components(self, monkeypatch):
        # 1 023 coalitions: 4 096 cells make blocks of at most 4 components;
        # products near 2**62 reach the cut first, after 3, 3 and 4
        rng = np.random.default_rng(11)
        submissions, n_map = _cohort(rng.integers(-(2**31), 2**31, (10, 10)).tolist(),
                                     rng.integers(1, 500, 10).tolist())
        expected = _definition_values(submissions, n_map)
        monkeypatch.setattr(numerics, "_LANE_BLOCK_CELLS", 4096)
        _forbid(monkeypatch, "_walk_coalition_dots")
        recorded = _recorded_blocks(monkeypatch)
        assert coalition_values(submissions, n_map) == expected
        assert all(_checked_blocks(recorded, submissions, n_map))
        assert [block.stop - block.start for (block, _), _ in recorded] == [3, 3, 4]

    @settings(max_examples=150, deadline=None)
    @given(_straddling_lanes())
    @example(([GradientVector.from_raw([1, 1, 1])], [1],
              GradientVector.from_raw([2**62, 2**62 - 1, -(2**63)])))
    @example(([GradientVector.from_raw([2**31, -(2**31)]), GradientVector.from_raw([3, 5])],
              [3, 1], GradientVector.from_raw([2**31, 2**31 + 1])))
    def test_reach_straddling_the_float_cut_matches_the_walk(self, lanes):
        vectors, counts, full = lanes
        assert numerics.weighted_sum_lanes(vectors, counts) is not None  # the lanes path
        expected = _outcome(numerics._walk_coalition_dots,
                            [v.raw.astype(object) for v in vectors], counts,
                            full.raw.astype(object))
        assert _outcome(numerics.coalition_dots, vectors, counts, full) == expected

    # bounds are whole units of 2**g, 2**g > len(reach): 16 for 9 components,
    # 8 for 5 or 7, 4 for 3; a component beyond the cut counts as twice the cut
    @pytest.mark.parametrize("reach, width, blocks", [
        # a run ends before the component that would take its bound past
        # 2**62, and a run of components each beyond 2**62 ends before one
        # within it; 2**63 - 2 is 2**63 as a float64
        ([2**62, 2**62, 2**63, 2**64, 1, 2**63 - 2, 1, 5, 5], 3,
         [(0, 1, 2**62), (1, 2, 2**62), (2, 4, 2**64), (4, 5, 16), (5, 6, 2**63),
          (6, 9, 48)]),
        # a bound of exactly 2**62 is within the cut
        ([2**61, 2**61 - 2**10, 2**10, 1, 2**61, 2**61 + 2**10, 0], 7,
         [(0, 3, 2**62), (3, 5, 2**61 + 8), (5, 7, 2**61 + 2**10)]),
        ([1] * 5, 2, [(0, 2, 16), (2, 4, 16), (4, 5, 8)]),
        ([2**63] * 3, 2, [(0, 2, 2**64), (2, 3, 2**63)]),
        ([0] * 7 + [2**66], 100, [(0, 7, 0), (7, 8, 2**63)]),
    ], ids=["reach", "cut", "width", "beyond_width", "last_beyond"])
    def test_blocks_are_cut_at_the_reach_budget_and_the_width(self, reach, width, blocks):
        cuts = list(numerics._blocks(np.array(reach, dtype=np.float64), width))
        assert [(block.start, block.stop, bound) for block, bound in cuts] == blocks
        for block, bound in cuts:
            assert block.stop - block.start <= width
            if bound <= numerics._REACH_CUT:  # on the int64 lane
                assert sum(reach[block]) < 2**63
            else:
                assert min(reach[block]) > numerics._REACH_CUT

    def test_memory_is_bounded_by_the_block(self):
        # a 1 023 x 256 int64 table of coalition means alone would be 2 MB
        rng = np.random.default_rng(13)
        submissions, n_map = _cohort(rng.integers(-(2**30), 2**30, (10, 256)).tolist(), [40] * 10)
        aggregate = fedavg(submissions, n_map)
        alignment_coalition_values(submissions, n_map, aggregate)
        tracemalloc.start()
        try:
            alignment_coalition_values(submissions, n_map, aggregate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def _counted_run(monkeypatch, reward_basis: str):
    """A small run with its ``shapley_alignment`` cohorts and its FedAvg calls
    (through the ``coordinator`` and ``incentives`` bindings) recorded."""
    shapley_calls, fedavg_calls = [], []
    one_pass = incentives.shapley_alignment

    def counted(submissions, n_map, aggregate):
        shapley_calls.append(sorted(submissions))
        return one_pass(submissions, n_map, aggregate)

    def counted_mean(vectors, counts):
        fedavg_calls.append(len(vectors))
        return sample_weighted_mean(vectors, counts)

    def forbidden(*args, **kwargs):
        raise AssertionError("the scenario runs the per-coalition Shapley path")

    monkeypatch.setattr(incentives, "shapley_alignment", counted)
    monkeypatch.setattr(incentives, "shapley_exact", forbidden)
    for module in (coordinator, incentives):
        monkeypatch.setattr(module, "sample_weighted_mean", counted_mean)
    doc = {
        "seed": 42, "rounds": 4, "fairness_interval": 2, "reward_basis": reward_basis,
        "dataset": {
            "n_clients": 4, "samples_per_client": [10, 20, 10, 30], "dim": 4, "noise": 0.05,
            "behaviors": ["honest", "honest", "honest", "negator"],
        },
    }
    config = parse_config(doc)
    try:
        return config, run_scenario(config), shapley_calls, fedavg_calls
    finally:
        monkeypatch.undo()


def test_scenario_computes_shapley_once_per_round(monkeypatch):
    for reward_basis in ("alignment", "shapley"):
        config, result, shapley_calls, fedavg_calls = _counted_run(monkeypatch, reward_basis)
        rounds = result.coordinator.rounds
        scored = [r for r in range(1, config.rounds + 1) if rounds[r].accepted]
        # the contract's FedAvg, once per scored round, is the one Shapley reads
        assert len(shapley_calls) == len(fedavg_calls) == len(scored) == config.rounds
        for r in scored:
            state = rounds[r]
            submissions = {cid: state.submissions[cid] for cid in state.accepted}
            n_map = {cid: result.coordinator.clients[cid].n_samples for cid in state.accepted}
            assert state.phi == _per_coalition(submissions, n_map)
            logged = {rec["client"]: rec["phi"] for rec in result.attribution if rec["round"] == r}
            assert logged == {"0x" + cid.hex(): phi.to_decimal() for cid, phi in state.phi.items()}
            if all(rec["multiplier"] == "1" for rec in result.attribution if rec["round"] == r):
                basis = state.phi if reward_basis == "shapley" else state.scores
                assert state.payouts == _largest_remainder_split(config.reward_pool_per_round, basis)
