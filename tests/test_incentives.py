"""Alignment scores, Shapley attribution, cumulative scores, multipliers."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedchain import incentives

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
from fedchain.numerics import RAW_LIMIT, Fixed, GradientVector, SCALE, dot
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
        return shapley_alignment(submissions, n_map)
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
        values = alignment_coalition_values(submissions, n_map)
        assert len(values) == 1 << len(ids)
        for mask, value in enumerate(values):
            subset = frozenset(ids[k] for k in range(len(ids)) if mask >> k & 1)
            assert value == coalition_value_alignment(subset, submissions, n_map).raw
        assert shapley_alignment(submissions, n_map) == _per_coalition(submissions, n_map)

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
            shapley_alignment(submissions, n_map)

    def test_no_clients(self):
        assert alignment_coalition_values({}, {}) == [0]
        assert shapley_alignment({}, {}) == {}

    def test_too_many_clients(self):
        ids = [bytes([i]) * 20 for i in range(13)]
        with pytest.raises(TooManyClients):
            shapley_alignment({cid: vec("1") for cid in ids}, {cid: 1 for cid in ids})


def test_scenario_computes_shapley_once_per_round(monkeypatch):
    calls = []
    one_pass = incentives.shapley_alignment

    def counted(submissions, n_map):
        calls.append(sorted(submissions))
        return one_pass(submissions, n_map)

    def forbidden(*args, **kwargs):
        raise AssertionError("the scenario runs the per-coalition Shapley path")

    monkeypatch.setattr(incentives, "shapley_alignment", counted)
    monkeypatch.setattr(incentives, "shapley_exact", forbidden)
    doc = {
        "seed": 42, "rounds": 4, "fairness_interval": 2, "reward_basis": "shapley",
        "dataset": {
            "n_clients": 4, "samples_per_client": [10, 20, 10, 30], "dim": 4, "noise": 0.05,
            "behaviors": ["honest", "honest", "honest", "negator"],
        },
    }
    config = parse_config(doc)
    result = run_scenario(config)
    monkeypatch.undo()

    rounds = result.coordinator.rounds
    scored = [r for r in range(1, config.rounds + 1) if rounds[r].accepted]
    assert len(calls) == len(scored) == config.rounds
    for r in scored:
        state = rounds[r]
        submissions = {cid: state.submissions[cid] for cid in state.accepted}
        n_map = {cid: result.coordinator.clients[cid].n_samples for cid in state.accepted}
        assert state.phi == _per_coalition(submissions, n_map)
        logged = {rec["client"]: rec["phi"] for rec in result.attribution if rec["round"] == r}
        assert logged == {"0x" + cid.hex(): phi.to_decimal() for cid, phi in state.phi.items()}
        if all(rec["multiplier"] == "1" for rec in result.attribution if rec["round"] == r):
            assert state.payouts == _largest_remainder_split(config.reward_pool_per_round, state.phi)
