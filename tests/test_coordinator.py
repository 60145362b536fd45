"""Contract state machine: registration, submission, validation, scoring,
aggregation, and the phase machine."""
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedchain.coordinator import (
    CALLS,
    SYSTEM_SENDER,
    ClientRecord,
    ContractConfig,
    Coordinator,
    Phase,
    VERDICT_ACCEPTED,
    VERDICT_REJECTED_NORM,
    _largest_remainder_split,
    gas,
    gas_class,
)
from fedchain.errors import (
    AlreadyRegistered,
    Banned,
    BadSampleCount,
    CheckpointDue,
    DimMismatch,
    DuplicateCheckpoint,
    DuplicateSubmission,
    InsufficientStake,
    NoAcceptedUpdates,
    NothingToValidate,
    NotRegistered,
    OutOfOrderBatch,
    RoundClosed,
    SimulationError,
    TooManyClients,
    WrongPhase,
    WrongRound,
)
from fedchain.flclients import make_client_id
from fedchain.incentives import SHAPLEY_MAX_CLIENTS
from fedchain.ledger import OP_CLASSES, GasModel
from fedchain.numerics import RAW_LIMIT, Fixed, GradientVector, SCALE

C = [make_client_id(i) for i in range(10)]


def coord(dim=2, **kwargs) -> Coordinator:
    return Coordinator(dim, ContractConfig(**kwargs))


def registered(dim=2, clients=(), **kwargs) -> Coordinator:
    c = coord(dim=dim, **kwargs)
    for cid, n in clients:
        c.register(cid, stake=100, n_samples=n)
    return c


def submit_whole(c: Coordinator, cid: bytes, values) -> None:
    c.submit_update(cid, c.current_round, GradientVector.from_decimals(values), 0, 1)


def system_call(c: Coordinator, op: str, **args) -> list:
    """The events of one system call, dispatched as the ledger dispatches it."""
    return c.execute(op, SYSTEM_SENDER, args, None)


def run_round(c: Coordinator, updates: dict) -> dict:
    r = c.current_round
    for cid, values in sorted(updates.items()):
        submit_whole(c, cid, values)
    c.validate_round(r)
    payouts = c.score_and_reward_round(r)
    if c.rounds[r].accepted:
        c.aggregate_round(r)
    c.close_round(r)
    return payouts


class TestCallTable:
    """``CALLS`` is the contract's whole interface: each entry names a method
    the dispatch calls, a gas class the gas model prices, and its senders."""

    def test_every_call_is_a_coordinator_method(self):
        assert all(callable(getattr(Coordinator, op, None)) for op in CALLS)

    def test_every_gas_class_is_a_priced_class(self):
        assert {call.gas_class for call in CALLS.values()} <= set(OP_CLASSES) | {"system"}

    def test_exactly_register_and_submit_update_are_client_calls(self):
        assert [op for op, call in CALLS.items() if call.client] == ["register", "submit_update"]

    @pytest.mark.parametrize("op, args, expected", [
        ("submit_update", {"components": [1, 2, 3]}, ("submit", 3)),
        ("submit_update", ["components"], ("submit", 0)),
        ("validate_round", {"round": 1}, ("validate", 4)),
        ("aggregate_round", {}, ("aggregate", 4)),
        ("register", {"stake": 100}, ("register", 4)),
        ("close_round", {"round": 1}, ("system", 4)),
        ("deploy", {}, ("deploy", 4)),
    ])
    def test_gas_is_the_class_and_the_parameters_touched(self, op, args, expected):
        assert gas(op, args, 4) == expected

    @pytest.mark.parametrize("op", ["register", "score_and_reward_round", "record_checkpoint",
                                    "close_round", "deploy"])
    def test_a_flat_class_is_charged_its_intercept_at_any_size(self, op):
        """A call of a class with no slope is sized by the model's dimension,
        which the gas table ignores."""
        model = GasModel()
        base, slope = model.coefficients(gas_class(op))
        assert slope == 0
        for dim in (1, 10_000):
            assert gas(op, {}, dim) == (gas_class(op), dim)
            assert model.charge(*gas(op, {}, dim)) == base

    def test_admits_the_system_any_registration_and_registered_clients(self):
        c = registered(clients=[(C[0], 10)])
        assert c.admits(SYSTEM_SENDER, "close_round")
        assert c.admits(C[1], "register") and c.admits(C[0], "close_round")
        assert not c.admits(C[1], "submit_update")


class TestStateDict:
    def test_a_client_is_a_copy_of_its_record(self):
        """Each client's entry holds exactly its ``ClientRecord``'s fields, and
        editing a returned document changes neither the record nor the next one."""
        c = registered(clients=[(C[0], 10)])
        record, key = c.clients[C[0]], "0x" + C[0].hex()
        before = asdict(record)
        entry = c.state_dict()["clients"][key]
        assert entry == before and list(entry) == [f.name for f in fields(ClientRecord)]
        entry["stake"] += 1
        entry["note"] = "edited"
        assert asdict(record) == before
        assert c.state_dict()["clients"][key] == before


class TestRegistration:
    def test_fresh_registration(self):
        c = coord()
        events = c.execute("register", C[0], {"stake": 100, "n_samples": 5}, None)
        assert c.clients[C[0]].stake == 100
        assert events[0][0] == "ClientRegistered"

    def test_duplicate_rejected(self):
        c = registered(clients=[(C[0], 5)])
        with pytest.raises(AlreadyRegistered):
            c.register(C[0], stake=100, n_samples=5)

    def test_stake_boundary(self):
        c = coord()
        with pytest.raises(InsufficientStake):
            c.register(C[0], stake=99, n_samples=5)
        c.register(C[0], stake=100, n_samples=5)  # exactly the minimum

    def test_bad_sample_count(self):
        c = coord()
        with pytest.raises(BadSampleCount):
            c.register(C[0], stake=100, n_samples=0)


class TestSubmission:
    def test_unregistered_rejected(self):
        c = coord()
        with pytest.raises(NotRegistered):
            submit_whole(c, C[0], ["1", "2"])

    def test_duplicate_submission_rejected(self):
        c = registered(clients=[(C[0], 5)])
        submit_whole(c, C[0], ["1", "2"])
        with pytest.raises(DuplicateSubmission):
            submit_whole(c, C[0], ["1", "2"])

    def test_wrong_round_rejected(self):
        c = registered(clients=[(C[0], 5)])
        with pytest.raises(RoundClosed):
            c.submit_update(C[0], 2, GradientVector.from_decimals(["1", "2"]), 0, 1)

    def test_batched_submission_reassembled(self):
        # 25 parameters in batches of 10 -> 3 batches of 10, 10, 5
        c = registered(dim=25, clients=[(C[0], 5)])
        parts = [10, 10, 5]
        value = 0
        for index, size in enumerate(parts):
            batch = GradientVector.from_raw(range(value, value + size))
            value += size
            c.submit_update(C[0], 1, batch, index, 3)
        recorded = c.rounds[1].submissions[C[0]]
        assert recorded.dim == 25
        assert recorded.raw.tolist() == list(range(25))

    def test_out_of_order_batch(self):
        c = registered(dim=4, clients=[(C[0], 5)])
        c.submit_update(C[0], 1, GradientVector.from_raw([1, 2]), 0, 2)
        with pytest.raises(OutOfOrderBatch):
            c.submit_update(C[0], 1, GradientVector.from_raw([3, 4]), 0, 2)

    def test_inconsistent_batch_count(self):
        c = registered(dim=4, clients=[(C[0], 5)])
        c.submit_update(C[0], 1, GradientVector.from_raw([1, 2]), 0, 2)
        with pytest.raises(OutOfOrderBatch):
            c.submit_update(C[0], 1, GradientVector.from_raw([3, 4]), 1, 3)

    def test_wrong_dimension_reverts_before_validation(self):
        # validate_round never sees an update of the wrong length
        c = registered(dim=3, clients=[(C[0], 5)])
        c.submit_update(C[0], 1, GradientVector.from_raw([1, 2]), 0, 2)
        with pytest.raises(DimMismatch):
            c.submit_update(C[0], 1, GradientVector.from_raw([3, 4]), 1, 2)
        assert c.rounds[1].submissions == {}
        with pytest.raises(NothingToValidate):
            c.validate_round(1)
        # the first batch is still buffered: the client resends the last one
        c.submit_update(C[0], 1, GradientVector.from_raw([3]), 1, 2)
        assert c.rounds[1].submissions[C[0]].raw.tolist() == [1, 2, 3]
        assert c.rounds[1].partial == {}

    def test_banned_client_rejected(self):
        c = registered(clients=[(C[0], 5)])
        c.clients[C[0]].banned = True
        with pytest.raises(Banned):
            submit_whole(c, C[0], ["1", "2"])

    def test_reverted_first_batch_leaves_no_buffer(self):
        c = registered(dim=4, clients=[(C[0], 5)])
        with pytest.raises(OutOfOrderBatch):
            c.submit_update(C[0], 1, GradientVector.from_raw([1]), 1, 3)
        assert c.rounds[1].partial == {}
        c.submit_update(C[0], 1, GradientVector.from_raw([1, 2]), 0, 2)
        c.submit_update(C[0], 1, GradientVector.from_raw([3, 4]), 1, 2)
        assert c.rounds[1].submissions[C[0]].raw.tolist() == [1, 2, 3, 4]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3),
                              st.lists(st.integers(-5, 5), min_size=1, max_size=3)),
                    max_size=8))
    @example([(1, 3, [1]), (0, 2, [1, 2]), (1, 2, [3, 4])])
    @example([(0, 2, [1, 2]), (1, 2, [3]), (1, 2, [3, 4])])  # resent after DimMismatch
    def test_a_reverted_batch_leaves_the_round_unchanged(self, calls):
        c = registered(dim=4, clients=[(C[0], 5)])
        state = c.rounds[1]

        def snapshot():
            partial = {cid: (b["count"], list(b["parts"])) for cid, b in state.partial.items()}
            return partial, dict(state.submissions)

        for index, count, raws in calls:
            before = snapshot()
            try:
                c.submit_update(C[0], 1, GradientVector.from_raw(raws), index, count)
            except SimulationError:
                assert snapshot() == before


class TestValidation:
    def test_happy_path_accepts(self):
        c = registered(clients=[(C[0], 5)])
        submit_whole(c, C[0], ["1", "2"])
        verdicts = c.validate_round(1)
        assert verdicts == [(C[0], VERDICT_ACCEPTED)]

    def test_norm_bound_rejects(self):
        c = registered(clients=[(C[0], 5), (C[1], 5)], tau=Fixed.from_decimal("10"))
        submit_whole(c, C[0], ["1", "2"])
        submit_whole(c, C[1], ["100", "0"])  # norm 100 = 10 * tau
        verdicts = dict(c.validate_round(1))
        assert verdicts[C[0]] == VERDICT_ACCEPTED
        assert verdicts[C[1]] == VERDICT_REJECTED_NORM

    def test_norm_boundary_inclusive(self):
        c = registered(clients=[(C[0], 5)], tau=Fixed.from_decimal("5"))
        submit_whole(c, C[0], ["3", "4"])  # norm exactly 5
        assert c.validate_round(1) == [(C[0], VERDICT_ACCEPTED)]

    def test_squared_norm_beyond_the_fixed_point_range_is_rejected_norm(self):
        c = registered(clients=[(C[0], 5), (C[1], 5)])
        submit_whole(c, C[0], ["1", "2"])
        huge = GradientVector((RAW_LIMIT - 1, 0))  # encodable, but its square is not
        c.submit_update(C[1], 1, huge, 0, 1)
        assert c.validate_round(1) == sorted(
            [(C[0], VERDICT_ACCEPTED), (C[1], VERDICT_REJECTED_NORM)]
        )
        assert c.rounds[1].accepted == [C[0]]

    @pytest.mark.parametrize("tau, alpha", [
        (Fixed.from_int(5 * 10**14), Fixed(0)),  # tau * tau itself is out of range
        (Fixed.from_int(2 * 10**14), Fixed.from_int(2)),  # 2 * 4e28 * 3 > 1.7e29
        (Fixed.from_int(1), Fixed(RAW_LIMIT - 1)),  # 1 + alpha is out of range
    ], ids=["tau_squared", "shapley_value_times_multiplier", "multiplier"])
    def test_payout_basis_beyond_the_fixed_point_range_is_rejected(self, tau, alpha):
        ContractConfig(tau=Fixed.from_int(2 * 10**14))  # 2 * 4e28 * 1.5 < 1.7e29
        message = r"^2 \* tau \* tau \* \(1 \+ alpha\) must lie in the fixed-point range$"
        with pytest.raises(ValueError, match=message):
            ContractConfig(tau=tau, alpha=alpha)

    def test_nothing_to_validate(self):
        c = registered(clients=[(C[0], 5)])
        with pytest.raises(NothingToValidate):
            c.validate_round(1)

    def test_rejected_excluded_from_aggregate(self):
        c = registered(clients=[(C[0], 1), (C[1], 1)])
        submit_whole(c, C[0], ["1", "0"])
        submit_whole(c, C[1], ["1000", "1000"])  # rejected by norm
        c.validate_round(1)
        c.score_and_reward_round(1)
        aggregate = c.aggregate_round(1)
        assert aggregate == GradientVector.from_decimals(["1", "0"])
        assert C[1] not in c.rounds[1].scores


class TestScoringAndRewards:
    def test_proportional_split(self):
        # two clients with scores 2 and 6 split the pool 25% / 75%
        c = registered(clients=[(C[0], 1), (C[1], 1)], reward_pool_per_round=1000)
        submit_whole(c, C[0], ["2", "2"])
        submit_whole(c, C[1], ["6", "6"])
        c.validate_round(1)
        payouts = c.score_and_reward_round(1)
        scores = c.rounds[1].scores
        assert scores[C[1]].raw == 3 * scores[C[0]].raw
        assert payouts[C[0]] == 250 and payouts[C[1]] == 750

    def test_single_positive_scorer_takes_pool(self):
        c = registered(clients=[(C[0], 1), (C[1], 1)], reward_pool_per_round=999)
        submit_whole(c, C[0], ["1", "1"])
        submit_whole(c, C[1], ["-0.4", "-0.4"])
        c.validate_round(1)
        payouts = c.score_and_reward_round(1)
        assert payouts[C[0]] == 999
        assert payouts[C[1]] == 0

    def test_all_nonpositive_pays_nothing_event_still_emitted(self):
        c = registered(clients=[(C[0], 1), (C[1], 1)])
        submit_whole(c, C[0], ["1", "0"])
        submit_whole(c, C[1], ["-1", "0"])  # aggregate is zero; all scores 0
        c.validate_round(1)
        names = [name for name, _ in system_call(c, "score_and_reward_round", round=1)]
        assert all(p == 0 for p in c.rounds[1].payouts.values())
        assert "AlignmentScoresUpdated" in names
        assert "RewardsDistributed" in names

    @pytest.mark.parametrize("basis", ["alignment", "shapley"])
    def test_a_cohort_beyond_the_shapley_cap_has_no_phi(self, basis):
        ids = [make_client_id(i) for i in range(SHAPLEY_MAX_CLIENTS + 1)]
        c = registered(clients=[(cid, 1) for cid in ids], reward_basis=basis)
        for cid in ids:
            submit_whole(c, cid, ["1", "1"])
        c.validate_round(1)
        if basis == "shapley":  # its payout needs phi: the score reverts
            with pytest.raises(TooManyClients):
                c.score_and_reward_round(1)
            state = c.rounds[1]  # as validation left it
            assert state.phase == Phase.VALIDATED and state.aggregate is None
            assert state.scores == state.multipliers == state.payouts == {}
        else:
            assert sum(c.score_and_reward_round(1).values()) == c.config.reward_pool_per_round
        assert c.rounds[1].phi is None

    def test_score_requires_validation(self):
        c = registered(clients=[(C[0], 1)])
        submit_whole(c, C[0], ["1", "1"])
        with pytest.raises(WrongPhase):
            c.score_and_reward_round(1)

    def test_conservation_exact(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(1, 6))
            pool = int(rng.integers(1, 10**7))
            c = registered(
                clients=[(C[i], int(rng.integers(1, 9))) for i in range(n)],
                reward_pool_per_round=pool,
            )
            any_positive = False
            for i in range(n):
                values = [str(rng.integers(-3, 4)) for _ in range(2)]
                submit_whole(c, C[i], values)
            c.validate_round(1)
            payouts = c.score_and_reward_round(1)
            scores = c.rounds[1].scores
            any_positive = any(s.raw > 0 for s in scores.values())
            total = sum(payouts.values())
            if any_positive:
                assert total == pool
            else:
                assert total == 0
            # only-positive-pay
            for cid, score in scores.items():
                if score.raw <= 0:
                    assert payouts[cid] == 0


class TestAggregation:
    def test_single_client_identity(self):
        c = registered(clients=[(C[0], 7)])
        submit_whole(c, C[0], ["0.5", "-1.25"])
        c.validate_round(1)
        c.score_and_reward_round(1)
        aggregate = c.aggregate_round(1)
        assert aggregate == GradientVector.from_decimals(["0.5", "-1.25"])
        assert c.model_version == 1

    def test_weighted_mean(self):
        c = registered(clients=[(C[0], 1), (C[1], 3)])
        submit_whole(c, C[0], ["1", "0"])
        submit_whole(c, C[1], ["0", "1"])
        c.validate_round(1)
        c.score_and_reward_round(1)
        aggregate = c.aggregate_round(1)
        assert aggregate == GradientVector.from_decimals(["0.25", "0.75"])

    def test_opposite_updates_cancel(self):
        c = registered(clients=[(C[0], 5), (C[1], 5)])
        submit_whole(c, C[0], ["2", "-1"])
        submit_whole(c, C[1], ["-2", "1"])
        c.validate_round(1)
        c.score_and_reward_round(1)
        assert c.aggregate_round(1).raw.tolist() == [0, 0]

    def test_no_accepted_updates(self):
        c = registered(clients=[(C[0], 5)])
        submit_whole(c, C[0], ["1000", "1000"])
        c.validate_round(1)
        c.score_and_reward_round(1)
        with pytest.raises(NoAcceptedUpdates):
            c.aggregate_round(1)

    def test_fedavg_matches_float_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 17))
            c = registered(
                dim=dim,
                clients=[(C[i], int(rng.integers(1, 30))) for i in range(k)],
                tau=Fixed.from_int(1000),
            )
            floats = rng.uniform(-2, 2, size=(k, dim))
            for i in range(k):
                c.submit_update(C[i], 1, GradientVector.from_floats(floats[i]), 0, 1)
            c.validate_round(1)
            c.score_and_reward_round(1)
            aggregate = c.aggregate_round(1)
            counts = np.array([c.clients[C[i]].n_samples for i in range(k)], dtype=float)
            quantized = np.array(
                [GradientVector.from_floats(floats[i]).to_floats() for i in range(k)]
            )
            oracle = (counts[:, None] * quantized).sum(axis=0) / counts.sum()
            got = np.array(aggregate.to_floats())
            assert np.max(np.abs(got - oracle)) <= 2 * dim / SCALE


class TestPhaseMachine:
    def test_forward_only(self):
        c = registered(clients=[(C[0], 1)])
        submit_whole(c, C[0], ["1", "1"])
        with pytest.raises(WrongPhase):
            c.aggregate_round(1)  # open -> aggregate is out of order
        c.validate_round(1)
        c.score_and_reward_round(1)
        with pytest.raises(WrongPhase):
            c.score_and_reward_round(1)  # already scored
        c.aggregate_round(1)
        with pytest.raises(RoundClosed):
            submit_whole(c, C[0], ["1", "1"])  # no longer open
        c.close_round(1)
        with pytest.raises(WrongPhase):
            c.close_round(1)

    def test_validation_moves_the_round_to_validated_and_may_repeat(self):
        c = registered(clients=[(C[0], 1), (C[1], 1)])
        submit_whole(c, C[0], ["1", "1"])
        submit_whole(c, C[1], ["20", "0"])  # beyond tau
        first = c.validate_round(1)
        assert c.rounds[1].phase == Phase.VALIDATED
        assert c.validate_round(1) == first == sorted(
            [(C[0], VERDICT_ACCEPTED), (C[1], VERDICT_REJECTED_NORM)]
        )
        assert c.rounds[1].accepted == [C[0]]
        c.score_and_reward_round(1)
        with pytest.raises(WrongPhase, match="round 1 is SCORED, needs OPEN or VALIDATED"):
            c.validate_round(1)

    def test_checkpoints_are_the_one_record_of_the_last_checkpoint(self):
        c = registered(clients=[(C[0], 1)], fairness_interval=1)
        assert c.last_checkpoint_round is None
        c.record_checkpoint(1, b"\x01" * 32, b"\x02" * 32)
        run_round(c, {C[0]: ["1", "1"]})
        c.record_checkpoint(2, b"\x03" * 32, b"\x04" * 32)
        assert c.last_checkpoint_round == 2 == c.state_dict()["last_checkpoint_round"]
        with pytest.raises(AttributeError):
            c.last_checkpoint_round = 1

    def test_submit_after_validation_reverts(self):
        c = registered(clients=[(C[0], 1), (C[1], 1)])
        submit_whole(c, C[0], ["1", "1"])
        c.validate_round(1)
        with pytest.raises(RoundClosed):
            submit_whole(c, C[1], ["1", "1"])
        assert C[1] not in c.rounds[1].submissions and C[1] not in c.rounds[1].partial

    def test_submit_after_close_hits_round_gate(self):
        c = registered(clients=[(C[0], 1)])
        run_round(c, {C[0]: ["1", "1"]})
        with pytest.raises(RoundClosed):
            c.submit_update(C[0], 1, GradientVector.from_decimals(["1", "1"]), 0, 1)

    def test_participation_counts_accepted_only(self):
        c = registered(clients=[(C[0], 1), (C[1], 1)])
        submit_whole(c, C[0], ["1", "1"])
        submit_whole(c, C[1], ["900", "900"])  # rejected by norm
        c.validate_round(1)
        c.score_and_reward_round(1)
        c.aggregate_round(1)
        c.close_round(1)
        assert c.clients[C[0]].rounds_participated == 1
        assert c.clients[C[1]].rounds_participated == 0

    def test_participation_is_zero_in_the_registration_round(self):
        c = registered(clients=[(C[0], 1)])
        assert c.participation(C[0]) == Fixed(0)
        c.score_and_reward_round(1)  # nobody submitted
        c.close_round(1)
        c.register(C[1], stake=100, n_samples=1)
        assert c.participation(C[1]) == Fixed(0)

    def test_empty_round_can_close_after_scoring(self):
        c = registered(clients=[(C[0], 1)])
        c.score_and_reward_round(1)  # nobody submitted
        c.close_round(1)
        assert c.current_round == 2


class TestCheckpoints:
    def test_interval_gate(self):
        c = registered(clients=[(C[0], 1)], fairness_interval=2)
        cid, digest = b"\x01" * 32, b"\x02" * 32
        with pytest.raises(WrongRound, match="round 2 is not current"):
            c.record_checkpoint(2, cid, digest)  # round 2 is not current yet
        with pytest.raises(WrongRound, match="not a multiple of 2"):
            c.record_checkpoint(1, cid, digest)  # round 1 is off the interval
        assert c.checkpoints == {}
        run_round(c, {C[0]: ["1", "1"]})
        events = system_call(c, "record_checkpoint", round=2, cid=cid.hex(), hash=digest.hex())
        assert c.checkpoints == {2: (cid, digest)} and c.last_checkpoint_round == 2
        assert events == [
            ("FairnessCheckpoint", {"round": 2, "cid": cid.hex(), "hash": digest.hex()}),
        ]

    def test_a_round_on_the_interval_closes_only_once_anchored(self):
        c = registered(clients=[(C[0], 1)], fairness_interval=2)
        run_round(c, {C[0]: ["1", "1"]})  # round 1 needs no anchor
        submit_whole(c, C[0], ["1", "1"])
        c.validate_round(2)
        c.score_and_reward_round(2)
        c.aggregate_round(2)
        before = c.state_dict()
        with pytest.raises(CheckpointDue, match="round 2 closes only once it is anchored"):
            c.close_round(2)
        assert c.state_dict() == before and c.rounds[2].phase == Phase.AGGREGATED
        c.record_checkpoint(2, b"\x01" * 32, b"\x02" * 32)
        c.close_round(2)
        assert c.current_round == 3

    def test_an_empty_round_on_the_interval_needs_its_anchor_too(self):
        c = registered(clients=[(C[0], 1)], fairness_interval=1)
        c.score_and_reward_round(1)  # nobody submitted
        with pytest.raises(CheckpointDue):
            c.close_round(1)

    def test_a_round_is_anchored_once(self):
        c = registered(clients=[(C[0], 1)], fairness_interval=1)
        cid, digest = b"\x01" * 32, b"\x02" * 32
        c.record_checkpoint(1, cid, digest)
        with pytest.raises(DuplicateCheckpoint, match="round 1 is already anchored"):
            system_call(c, "record_checkpoint", round=1, cid="03" * 32, hash="04" * 32)
        assert c.checkpoints == {1: (cid, digest)}


class TestPenalties:
    # an honest majority keeps the round aggregate aligned with honest
    # updates, so the negating client's score is strictly negative
    HONEST = {C[0]: ["1", "1"], C[1]: ["1", "1"]}

    def test_negative_streak_bans_and_slashes(self):
        c = registered(clients=[(C[0], 1), (C[1], 1), (C[2], 1)], ban_threshold=3)
        for r in range(1, 4):
            run_round(c, {**self.HONEST, C[2]: ["-1", "-1"]})
            assert c.rounds[r].scores[C[2]].is_negative()
        record = c.clients[C[2]]
        assert record.banned
        assert record.stake == 50  # half slashed
        assert c.clients[C[0]].banned is False
        assert c.clients[C[0]].stake == 100

    def test_streak_resets_on_nonnegative(self):
        c = registered(clients=[(C[0], 1), (C[1], 1), (C[2], 1)], ban_threshold=3)
        run_round(c, {**self.HONEST, C[2]: ["-1", "-1"]})
        run_round(c, {**self.HONEST, C[2]: ["-1", "-1"]})
        assert c.clients[C[2]].consecutive_negative == 2
        run_round(c, {**self.HONEST, C[2]: ["1", "1"]})
        assert c.clients[C[2]].consecutive_negative == 0
        assert not c.clients[C[2]].banned

    def test_ban_event_emitted(self):
        c = registered(clients=[(C[0], 1), (C[1], 1), (C[2], 1)], ban_threshold=1)
        for cid, values in sorted({**self.HONEST, C[2]: ["-1", "-1"]}.items()):
            submit_whole(c, cid, values)
        c.validate_round(1)
        names = [name for name, _ in system_call(c, "score_and_reward_round", round=1)]
        assert "ClientBanned" in names


class TestLargestRemainderSplit:
    def test_exact_split_with_remainder(self):
        basis = {b"a" * 20: Fixed(1), b"b" * 20: Fixed(1), b"c" * 20: Fixed(1)}
        payouts = _largest_remainder_split(10, basis)
        assert sum(payouts.values()) == 10
        assert sorted(payouts.values()) == [3, 3, 4]

    def test_negative_and_zero_excluded(self):
        basis = {b"a" * 20: Fixed(-5), b"b" * 20: Fixed(0), b"c" * 20: Fixed(2)}
        payouts = _largest_remainder_split(100, basis)
        assert payouts[b"a" * 20] == 0 and payouts[b"b" * 20] == 0
        assert payouts[b"c" * 20] == 100

    def test_deterministic_tie_break(self):
        basis = {b"b" * 20: Fixed(1), b"a" * 20: Fixed(1)}
        payouts = _largest_remainder_split(3, basis)
        assert payouts[b"a" * 20] == 2 and payouts[b"b" * 20] == 1
