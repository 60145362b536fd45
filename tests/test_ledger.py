"""Gas model calibration, transaction execution, and chain integrity."""
import copy
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from fedchain.coordinator import (
    CALLS,
    SAMPLES_LIMIT,
    SYSTEM_SENDER,
    ContractConfig,
    Coordinator,
    Phase,
    RoundState,
    gas_class,
)
from fedchain import ledger as ledger_module
from fedchain.errors import BadComponent, NonceError, SimulationError, UnknownSender
from fedchain.flclients import make_client_id
from fedchain.incentives import SHAPLEY_MAX_CLIENTS, coalition_value_alignment, shapley_exact
from fedchain.keccak import keccak256
from fedchain.ledger import (
    GENESIS_PARENT,
    OP_CLASSES,
    GasModel,
    Ledger,
    Receipt,
    Transaction,
    gas_csv_text,
    header_preimage,
    verify_chain,
)
from fedchain.numerics import ONE, SCALE, Fixed
from fedchain.offchain import canonical_json_bytes

# Reference gas measurements by parameter size (register and distribute are
# parameter-independent; the other classes grow with size).
REFERENCE_GAS = {
    10: {"register": 45_373, "submit": 393_262, "aggregate": 499_660,
         "validate": 512_769, "distribute": 219_961},
    100: {"register": 45_373, "submit": 2_403_817, "aggregate": 3_891_311,
          "validate": 2_153_970, "distribute": 219_961},
    1_000: {"register": 45_373, "submit": 22_866_722, "aggregate": 37_893_125,
            "validate": 18_609_485, "distribute": 219_961},
    10_000: {"register": 45_373, "submit": 229_065_242, "aggregate": 386_438_410,
             "validate": 187_515_227, "distribute": 219_961},
    100_000: {"register": 45_373, "submit": 2_447_670_138, "aggregate": 4_724_606_105,
              "validate": 2_311_631_243, "distribute": 219_961},
}
SIZES = sorted(REFERENCE_GAS)
GROWING = ("submit", "aggregate", "validate")


class TestGasModel:
    def test_register_constant(self):
        model = GasModel()
        assert {model.charge("register", p) for p in SIZES} == {45_373}

    def test_distribute_constant(self):
        model = GasModel()
        assert {model.charge("distribute", p) for p in SIZES} == {219_961}

    def test_submit_at_10_within_tolerance(self):
        assert abs(GasModel().charge("submit", 10) - 393_262) / 393_262 <= 0.15

    @pytest.mark.parametrize("op_class", GROWING)
    @pytest.mark.parametrize("size", SIZES)
    def test_fitted_cells_within_15_percent(self, op_class, size):
        expected = REFERENCE_GAS[size][op_class]
        got = GasModel().charge(op_class, size)
        assert abs(got - expected) / expected <= 0.15

    @pytest.mark.parametrize("op_class", GROWING)
    def test_strictly_increasing_in_size(self, op_class):
        model = GasModel()
        charges = [model.charge(op_class, p) for p in SIZES]
        assert charges == sorted(charges) and len(set(charges)) == len(charges)

    def test_affine_exact_formula(self):
        model = GasModel()
        base, slope = model.coefficients("submit")
        assert model.charge("submit", 123) == base + slope * 123

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            GasModel(submit_base=-1)

    def test_bool_coefficients_rejected(self):
        with pytest.raises(ValueError):
            GasModel(system_cost=True)

    def test_param_count_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            GasModel().charge("submit", -1)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown op class"):
            GasModel().coefficients("transfer")

    def test_row_in_class_order(self):
        model = GasModel()
        row = model.row(10)
        assert tuple(row) == OP_CLASSES
        assert all(row[c] == model.charge(c, 10) for c in OP_CLASSES)

    def test_deploy_and_system_are_flat_classes(self):
        model = GasModel()
        assert gas_class("deploy") == "deploy"
        assert gas_class("close_round") == gas_class("record_checkpoint") == "system"
        assert gas_class("mint") == "system"
        assert model.charge("deploy", 7) == model.deploy_cost
        assert model.charge("system", 7) == model.system_cost


INTERCEPTS = ("register_base", "submit_base", "aggregate_base", "validate_base",
              "distribute_base", "deploy_cost", "system_cost")


class TestGasCoefficients:
    """Every executed transaction consumes gas, so no intercept may be 0."""

    @pytest.mark.parametrize("name", INTERCEPTS)
    def test_zero_intercept_rejected(self, name):
        with pytest.raises(ValueError, match=f"gas coefficient {name} must be an int >= 1"):
            GasModel(**{name: 0})

    def test_zero_slopes_allowed(self):
        model = GasModel(submit_per_param=0, aggregate_per_param=0, validate_per_param=0)
        assert model.row(1_000) == {c: model.charge(c, 0) for c in OP_CLASSES}

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError, match="submit_per_param must be an int >= 0"):
            GasModel(submit_per_param=-1)


def make_ledger(dim=2, **kwargs) -> tuple[Ledger, Coordinator]:
    ledger = Ledger(GasModel(), Coordinator(dim, ContractConfig(**kwargs)))
    return ledger, ledger.coordinator


def register_tx(ledger: Ledger, client_id: bytes, stake=100, n_samples=10) -> Transaction:
    return Transaction(
        client_id, "register", {"stake": stake, "n_samples": n_samples},
        ledger.next_nonce(client_id),
    )


class TestExecution:
    def test_registration_gas_is_constant_class(self):
        ledger, _ = make_ledger()
        receipt = ledger.submit_tx(register_tx(ledger, make_client_id(0)))
        assert receipt.success
        assert receipt.gas_used == 45_373

    def test_a_receipt_charges_gas(self):
        with pytest.raises(ValueError, match="every executed transaction consumes gas"):
            Receipt(0, [], "success")

    def test_stale_nonce_rejected(self):
        ledger, _ = make_ledger()
        client = make_client_id(0)
        ledger.submit_tx(register_tx(ledger, client))
        with pytest.raises(NonceError):
            ledger.submit_tx(Transaction(client, "submit_update", {
                "round": 1, "batch_index": 0, "batch_count": 1, "components": [0, 0],
            }, nonce=0))

    def test_unknown_sender_rejected(self):
        ledger, _ = make_ledger()
        with pytest.raises(UnknownSender):
            ledger.submit_tx(Transaction(make_client_id(9), "submit_update", {
                "round": 1, "batch_index": 0, "batch_count": 1, "components": [0, 0],
            }, nonce=0))

    def test_reverted_call_emits_no_events(self):
        ledger, _ = make_ledger()
        client = make_client_id(0)
        ledger.submit_tx(register_tx(ledger, client))
        receipt = ledger.submit_tx(register_tx(ledger, client))  # duplicate
        assert receipt.status == "reverted"
        assert receipt.revert_reason == "AlreadyRegistered"
        assert receipt.events == []
        assert receipt.gas_used > 0

    def test_a_revert_hands_on_none_of_its_events(self, monkeypatch):
        """What a call emitted before it reverted reaches no receipt, the next
        call's included: only a completed call's events leave the contract."""
        ledger, coordinator = make_ledger()
        client = make_client_id(0)

        def emit_then_revert(client_id, stake, n_samples):
            coordinator._emit("ClientRegistered", {"id": "0x" + client_id.hex()})
            raise SimulationError("after an event")

        monkeypatch.setattr(coordinator, "register", emit_then_revert)
        receipt = ledger.submit_tx(register_tx(ledger, client))
        assert receipt.revert_reason == "SimulationError" and receipt.events == []
        monkeypatch.undo()
        receipt = ledger.submit_tx(register_tx(ledger, client))
        assert receipt.success and receipt.events == [
            ("ClientRegistered", {"id": "0x" + client.hex(), "stake": 100, "n_samples": 10}),
        ]

    def test_client_system_call_not_authorized(self):
        ledger, coordinator = make_ledger()
        client = make_client_id(0)
        ledger.submit_tx(register_tx(ledger, client))
        tx = Transaction(client, "close_round", {"round": 1}, ledger.next_nonce(client))
        receipt = ledger.submit_tx(tx)
        assert receipt.status == "reverted"
        assert receipt.revert_reason == "NotAuthorized"
        assert coordinator.rounds[1].phase == Phase.OPEN
        assert coordinator.current_round == 1

    def test_system_sender_cannot_register(self):
        ledger, coordinator = make_ledger()
        receipt = ledger.submit_tx(register_tx(ledger, SYSTEM_SENDER))
        assert receipt.status == "reverted"
        assert receipt.revert_reason == "NotAuthorized"
        assert SYSTEM_SENDER not in coordinator.clients

    def test_deploy_cost_in_genesis_receipt(self):
        ledger, _ = make_ledger()
        chain = ledger.chain_document()
        assert [receipt["gas_used"] for receipt in chain["receipts"][0]] == [2_371_244]
        assert chain["blocks"][0]["height"] == 0
        assert chain["blocks"][0]["parent_hash"] == GENESIS_PARENT.hex()

    def test_tx_hash_independent_of_arg_order(self):
        tx = Transaction(make_client_id(0), "submit_update", {
            "round": 1, "batch_index": 0, "batch_count": 1, "components": [1, -2, 3],
        }, nonce=0)
        same = Transaction(make_client_id(0), "submit_update", {
            "components": [1, -2, 3], "batch_count": 1, "batch_index": 0, "round": 1,
        }, nonce=0)
        assert tx.tx_hash() == same.tx_hash()

    def test_replace_does_not_carry_cached_tx_hash(self):
        tx = Transaction(make_client_id(0), "register", {"stake": 100, "n_samples": 10}, nonce=0)
        tx.tx_hash()
        fresh = Transaction(make_client_id(0), "register", {"stake": 100, "n_samples": 10}, nonce=7)
        assert replace(tx, nonce=7).tx_hash() == fresh.tx_hash() != tx.tx_hash()


def update_args(**overrides) -> dict:
    return {"round": 1, "batch_index": 0, "batch_count": 1, "components": [0, 0], **overrides}


class TestFailedSubmitLeavesLedgerUnchanged:
    """A call that raises instead of producing a receipt records nothing and
    does not consume the sender's nonce. A call with missing, extra or
    mistyped args reverts with ``BadArgs``: the receipt is recorded, gas is
    charged, the nonce advances and the contract state is unchanged."""

    def submit_failing(self, make_tx, error):
        ledger, _ = make_ledger()
        client = make_client_id(0)
        ledger.submit_tx(register_tx(ledger, client))
        tx = make_tx(ledger, client)
        nonce, pending = ledger.next_nonce(tx.sender), list(ledger._pending)
        with pytest.raises(error):
            ledger.submit_tx(tx)
        assert ledger.next_nonce(tx.sender) == nonce
        assert ledger._pending == pending
        return ledger

    def submit_bad_args(self, make_tx):
        ledger, coordinator = make_ledger()
        client = make_client_id(0)
        ledger.submit_tx(register_tx(ledger, client))
        tx = make_tx(ledger, client)
        nonce, state = ledger.next_nonce(tx.sender), coordinator.state_dict()
        receipt = ledger.submit_tx(tx)
        assert receipt.revert_reason == "BadArgs"
        assert receipt.events == [] and receipt.gas_used > 0
        assert ledger._pending[-1] == (tx, tx.decode()[0], receipt)
        assert ledger.next_nonce(tx.sender) == nonce + 1
        assert coordinator.state_dict() == state
        assert coordinator.rounds == {1: RoundState()}
        return receipt

    @pytest.mark.parametrize("components", [[], [10**40, 1], ["x", 1], [1.5, 1], [True, 1]],
                             ids=["empty", "beyond_raw_limit", "string", "float", "bool"])
    def test_unhashable_update_is_bad_component(self, components):
        def make_tx(ledger, client):
            args = update_args(components=components)
            return Transaction(client, "submit_update", args, ledger.next_nonce(client))

        ledger = self.submit_failing(make_tx, BadComponent)
        client = make_client_id(0)
        retry = Transaction(client, "submit_update", update_args(), ledger.next_nonce(client))
        assert ledger.submit_tx(retry).success

    def test_update_without_round(self):
        def make_tx(ledger, client):
            args = update_args()
            del args["round"]
            return Transaction(client, "submit_update", args, ledger.next_nonce(client))

        self.submit_bad_args(make_tx)

    def test_register_with_string_stake(self):
        def make_tx(ledger, _):
            client = make_client_id(1)
            return Transaction(client, "register", {"stake": "100", "n_samples": 10},
                               ledger.next_nonce(client))

        self.submit_bad_args(make_tx)

    def test_system_validate_without_round(self):
        def make_tx(ledger, _):
            return Transaction(SYSTEM_SENDER, "validate_round", {},
                               ledger.next_nonce(SYSTEM_SENDER))

        self.submit_bad_args(make_tx)

    @pytest.mark.parametrize("sender, op, args", [
        (0, "submit_update", update_args(batch_index="0")),
        (0, "submit_update", update_args(batch_count=True)),
        (0, "submit_update", update_args(nonce=1)),
        (1, "register", {"stake": 100, "n_samples": 2.5}),
        (1, "register", {"stake": 100}),
        (None, "close_round", {"round": 1.0}),
        (None, "record_checkpoint", {"round": 1, "cid": "zz", "hash": "00" * 32}),
        (None, "record_checkpoint", {"round": 1, "cid": "00" * 32, "hash": "AB" * 32}),
    ], ids=["string_batch_index", "bool_batch_count", "extra_arg",
            "float_n_samples", "no_n_samples", "float_round", "non_hex_cid", "upper_hex_hash"])
    def test_bad_args_revert(self, sender, op, args):
        def make_tx(ledger, _):
            who = SYSTEM_SENDER if sender is None else make_client_id(sender)
            return Transaction(who, op, args, ledger.next_nonce(who))

        self.submit_bad_args(make_tx)

    def test_update_without_components_is_charged_as_empty(self):
        def make_tx(ledger, client):
            args = {"round": 1, "batch_index": 0, "batch_count": 1}
            return Transaction(client, "submit_update", args, ledger.next_nonce(client))

        assert self.submit_bad_args(make_tx).gas_used == GasModel().charge("submit", 0)

    @pytest.mark.parametrize("args", [["round"], "xyz", "components", 7],
                             ids=["list", "string", "string_components", "int"])
    @pytest.mark.parametrize("sender, op", [(0, "submit_update"), (1, "register")])
    def test_args_that_are_not_an_object_revert_charged_as_empty(self, sender, op, args):
        def make_tx(ledger, _):
            who = make_client_id(sender)
            return Transaction(who, op, args, ledger.next_nonce(who))

        receipt = self.submit_bad_args(make_tx)
        assert receipt.gas_used == GasModel().charge(gas_class(op), 0)

    def test_not_authorized_comes_before_bad_args(self):
        ledger, _ = make_ledger()
        client = make_client_id(0)
        ledger.submit_tx(register_tx(ledger, client))
        for op in ("close_round", "mint"):
            tx = Transaction(client, op, {}, ledger.next_nonce(client))
            assert ledger.submit_tx(tx).revert_reason == "NotAuthorized"
        tx = Transaction(SYSTEM_SENDER, "mint", {}, ledger.next_nonce(SYSTEM_SENDER))
        assert ledger.submit_tx(tx).revert_reason == "SimulationError"


def verify(chain: dict, gas_model: GasModel = GasModel()):
    """``verify_chain`` at the model dimension ``make_ledger`` builds with."""
    return verify_chain(chain, gas_model, 2)


class TestChain:
    def run_small_chain(self) -> Ledger:
        ledger, _ = make_ledger()
        for i in range(3):
            ledger.submit_tx(register_tx(ledger, make_client_id(i)))
        ledger.seal_block()
        ledger.seal_block()  # empty block allowed
        return ledger  # genesis, registration, one (empty) round

    def test_intact_chain_verifies(self):
        assert verify(self.run_small_chain().chain_document()) is None

    def test_parent_links(self):
        chain = self.run_small_chain().chain_document()
        for prev, block in zip(chain["blocks"], chain["blocks"][1:]):
            assert block["parent_hash"] == prev["hash"]
        chain["blocks"][2]["parent_hash"] = "00" * 32
        assert verify(chain) == "block 2: broken parent link"

    def test_block_hash_is_the_keccak_of_its_header_fields(self):
        header = self.run_small_chain().chain_document()["blocks"][1]
        assert keccak256(header_preimage(header)).hex() == header["hash"]
        assert header_preimage({**header, "hash": "00" * 32}) == header_preimage(header)
        assert header_preimage({**header, "state_root": "01" * 32}) != header_preimage(header)
        with pytest.raises(KeyError):
            header_preimage({k: v for k, v in header.items() if k != "receipts_root"})

    def test_each_receipt_is_charged_the_gas_model(self):
        chain = self.run_small_chain().chain_document()
        dearer = GasModel(register_base=GasModel().register_base + 1)
        assert verify(chain, gas_model=dearer) == (
            "block 1: receipt 0 charged 45373 gas, the gas model charges 45374"
        )
        assert verify(chain, gas_model=GasModel(deploy_cost=1)) == (
            "block 0: receipt 0 charged 2371244 gas, the gas model charges 1"
        )

    def test_empty_block(self):
        assert self.run_small_chain().chain_document()["blocks"][-1]["tx_hashes"] == []

    def test_receipt_tamper_detected(self):
        chain = self.run_small_chain().chain_document()
        chain["receipts"][1][0]["gas_used"] += 1
        assert verify(chain) == "block 1: receipts root mismatch"

    def test_chain_of_any_length_verifies(self):
        """The ledger counts blocks, not rounds: how many a run seals is the
        audit's check (``test_block_count_must_match_rounds``)."""
        ledger = self.run_small_chain()
        ledger.seal_block()
        chain = ledger.chain_document()
        assert verify(chain) is None
        for part in ("blocks", "txs", "receipts"):
            del chain[part][2:]
        assert verify(chain) is None

    def test_height_must_equal_index(self):
        chain = self.run_small_chain().chain_document()
        chain["blocks"][1]["height"] = 2
        assert verify(chain) == "block 1: bad height 2"

    @pytest.mark.parametrize("break_later_block", [
        lambda chain: chain["blocks"][2].update(hash="00" * 32),
        lambda chain: chain["blocks"][2].update(state_root="not hex"),
    ], ids=["header_hash", "malformed_header"])
    def test_first_fault_in_block_order_wins(self, break_later_block):
        chain = self.run_small_chain().chain_document()
        chain["receipts"][1][0]["gas_used"] += 1
        break_later_block(chain)
        assert verify(chain) == "block 1: receipts root mismatch"

    def test_header_hash_checked_before_malformed_tx(self):
        chain = self.run_small_chain().chain_document()
        chain["blocks"][1]["state_root"] = "00" * 32
        del chain["txs"][1][2]["nonce"]
        assert verify(chain) == "block 1: header hash mismatch"

    def test_unserializable_receipts_are_malformed(self):
        chain = self.run_small_chain().chain_document()
        chain["receipts"][1][0]["gas_used"] = b"\x01"
        assert verify(chain) == "block 1: malformed receipts"

    def test_replay_is_bit_identical(self):
        chain_a = self.run_small_chain().chain_document()
        assert canonical_json_bytes(chain_a) == canonical_json_bytes(
            self.run_small_chain().chain_document()
        )
        assert len({block["hash"] for block in chain_a["blocks"]}) == 3

    def test_state_root_changes_with_state(self):
        ledger, _ = make_ledger()
        root_before = ledger.state_root()
        ledger.submit_tx(register_tx(ledger, make_client_id(0)))
        assert ledger.state_root() != root_before

    def test_seals_only_when_asked(self):
        ledger, _ = make_ledger()
        for i in range(4):
            ledger.submit_tx(register_tx(ledger, make_client_id(i)))
        assert len(ledger.chain_document()["blocks"]) == 1  # pending txs wait for seal_block
        ledger.seal_block()
        assert len(ledger.chain_document()["blocks"][-1]["tx_hashes"]) == 4


JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-3, 3) | st.floats()
    | st.text(max_size=6) | st.sampled_from(["00" * 32, "round", "components"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
CALL_NAMES = sorted(CALLS) + ["deploy", "mint"]


@st.composite
def contract_calls(draw):
    """(sender, op, args, nonce offset, seal after): any JSON-like args, or
    the call's own arg names with JSON-like values, from the system, a
    registered client or a stranger, mostly at the right nonce."""
    op = draw(st.sampled_from(CALL_NAMES))
    types = CALLS[op].args if op in CALLS else {}
    named = st.fixed_dictionaries({name: JSON_LIKE for name in types})
    args = draw(st.one_of(JSON_LIKE, named))
    sender = draw(st.sampled_from([SYSTEM_SENDER, make_client_id(0), make_client_id(1)]))
    return sender, op, args, draw(st.sampled_from([0, 0, 0, 1, -1])), draw(st.booleans())


WIDE_TAU = Fixed(2**76)  # near the widest tau the payout check admits at the default alpha
WIDE_COMPONENT = WIDE_TAU.raw // 2  # a 2-component update this wide lies within tau
WIDEST_UPDATES = [(SAMPLES_LIMIT - 1, [WIDE_COMPONENT, -WIDE_COMPONENT])] * 12


class TestContractBoundary:
    @settings(max_examples=60, deadline=None)
    @given(calls=st.lists(contract_calls(), min_size=1, max_size=4))
    def test_submit_raises_only_pre_execution_errors_and_then_changes_nothing(self, calls):
        ledger, coordinator = make_ledger()
        ledger.submit_tx(register_tx(ledger, make_client_id(0)))
        ledger.seal_block()
        recorded = []

        def snapshot(sender):
            return (
                ledger.next_nonce(sender),
                list(ledger._pending),  # each call's tx preimage included
                canonical_json_bytes(ledger.chain_document()),
                coordinator.state_dict(),
            )

        for sender, op, args, nonce_offset, seal in calls:
            tx = Transaction(sender, op, args, ledger.next_nonce(sender) + nonce_offset)
            before = snapshot(sender)
            try:
                receipt = ledger.submit_tx(tx)
            except (NonceError, UnknownSender, BadComponent):
                assert snapshot(sender) == before
            else:
                assert ledger._pending[-1] == (tx, tx.decode()[0], receipt)
                assert ledger.next_nonce(sender) == before[0] + 1
                recorded.append((tx, receipt))
            if seal:
                ledger.seal_block()
        ledger.seal_block()
        chain = ledger.chain_document()
        hashes = [doc["tx_hash"] for docs in chain["receipts"][2:] for doc in docs]
        assert hashes == [tx.tx_hash().hex() for tx, _ in recorded]

    def test_registration_beyond_the_sample_bound_reverts(self):
        ledger, coordinator = make_ledger()
        client = make_client_id(0)
        for n_samples in (SAMPLES_LIMIT, 2**300):
            receipt = ledger.submit_tx(register_tx(ledger, client, n_samples=n_samples))
            assert receipt.revert_reason == "BadSampleCount"
        assert client not in coordinator.clients
        assert ledger.submit_tx(register_tx(ledger, client, n_samples=SAMPLES_LIMIT - 1)).success

    @settings(max_examples=30, deadline=None)
    @given(basis=st.sampled_from(["alignment", "shapley"]), clients=st.lists(
        st.tuples(st.integers(1, SAMPLES_LIMIT - 1),
                  st.lists(st.integers(-WIDE_COMPONENT, WIDE_COMPONENT), min_size=2, max_size=2)),
        min_size=1, max_size=5))
    @example(basis="alignment", clients=WIDEST_UPDATES)
    @example(basis="shapley", clients=WIDEST_UPDATES)
    def test_system_calls_hold_every_registrable_sample_count(self, basis, clients):
        """Registered sample counts below the bound, and updates within tau
        (beyond int64 here), never take a system call past the contract's
        arithmetic: each returns a successful receipt."""
        ledger, _ = make_ledger(tau=WIDE_TAU, reward_basis=basis)
        for i, (n_samples, components) in enumerate(clients):
            client = make_client_id(i)
            assert ledger.submit_tx(register_tx(ledger, client, n_samples=n_samples)).success
            args = {"round": 1, "batch_index": 0, "batch_count": 1, "components": components}
            tx = Transaction(client, "submit_update", args, ledger.next_nonce(client))
            assert ledger.submit_tx(tx).success
        for op in ("validate_round", "score_and_reward_round", "aggregate_round"):
            tx = Transaction(SYSTEM_SENDER, op, {"round": 1}, ledger.next_nonce(SYSTEM_SENDER))
            assert ledger.submit_tx(tx).success, op


CLIENTS = [make_client_id(i) for i in range(3)]
CLIENT_OPS = [op for op in CALLS if CALLS[op].client]
SYSTEM_OPS = [op for op in CALLS if not CALLS[op].client]  # in protocol order
DIGESTS = st.sampled_from(["00" * 32, "ab" * 32])
COMPONENTS = st.sampled_from([-7.5, -3, -1, -0.1, 0, 0.1, 1, 3, 7.5]).map(
    lambda value: int(value * SCALE))  # (7.5, 7.5) lies beyond tau
USUAL_ARGS = {  # a well-formed call, at the current round
    "stake": st.sampled_from([100, 1_000]),
    "n_samples": st.integers(1, 50),
    "batch_index": st.just(0),
    "batch_count": st.just(1),
    "components": st.lists(COMPONENTS, min_size=2, max_size=2),
    "cid": DIGESTS,
    "hash": DIGESTS,
}
BATCHES = st.lists(  # (batch_index, batch_count, components) into a model of dim 2
    st.tuples(st.integers(0, 2), st.integers(1, 2), st.lists(COMPONENTS, min_size=1, max_size=2)),
    min_size=1, max_size=4)
ANY_ARGS = {  # round is drawn around the current round
    **USUAL_ARGS,
    "stake": st.sampled_from([99, 100]),
    "n_samples": st.integers(0, 50),
    "batch_index": st.integers(0, 2),
    "batch_count": st.integers(0, 2),
    "components": st.lists(COMPONENTS, max_size=3),
}


def contract_memory(coordinator: Coordinator) -> dict:
    """A value copy of all the contract keeps between calls: every field of
    every ``RoundState`` (batch buffers, verdicts, scores, phi, multipliers,
    payouts, aggregate), the clients, the checkpoints and the model. Only the
    event list of the last call is left out: ``execute`` returns it."""
    return copy.deepcopy({k: v for k, v in vars(coordinator).items() if k != "_events"})


class ContractMachine(RuleBasedStateMachine):
    """Calls drawn from ``CALLS``: most well-formed from their usual sender,
    the rest from any sender with any values, a registered client's batches
    into an open round, and a seal now and then. Each receipt advances only
    its sender's nonce, once; a reverted call leaves all of the contract's
    memory as it was, its state document included; a scored round pays out
    the whole pool when any payout basis value is positive, else nothing;
    no complete submission in a validated round lacks a verdict, and no
    round with verdicts is OPEN; every closed round on the fairness interval
    has exactly one anchor; a round scored with 1 to ``SHAPLEY_MAX_CLIENTS``
    accepted updates holds its cohort's exact Shapley values, and no other
    round holds any."""

    @initialize(basis=st.sampled_from(["alignment", "shapley"]), interval=st.integers(1, 3),
                registered=st.integers(0, len(CLIENTS)))
    def deploy(self, basis, interval, registered):
        self.ledger, self.coordinator = make_ledger(reward_basis=basis,
                                                    fairness_interval=interval)
        for client in CLIENTS[:registered]:
            assert self.ledger.submit_tx(register_tx(self.ledger, client)).success
        self.anchors = []  # the round of each FairnessCheckpoint event, in order
        self.phi = {}  # round -> the Shapley oracle's values, once the round is scored

    @rule(data=st.data(), ops=st.lists(st.sampled_from(CLIENT_OPS), min_size=1, max_size=6))
    def client_calls(self, data, ops):
        for op in ops:
            self.call(data, op, CLIENTS)

    @rule(data=st.data(), client_ops=st.lists(st.sampled_from(CLIENT_OPS), max_size=6),
          system_ops=st.just(SYSTEM_OPS) | st.permutations(SYSTEM_OPS),
          skip=st.sets(st.sampled_from(SYSTEM_OPS), max_size=3))
    def round_of_calls(self, data, client_ops, system_ops, skip):
        """Client calls, then the system calls that end a round: half the time
        in protocol order, some skipped."""
        for op in client_ops:
            self.call(data, op, CLIENTS)
        for op in system_ops:
            if op not in skip:
                self.call(data, op, [SYSTEM_SENDER])

    @precondition(lambda self: self.coordinator.clients
                  and self.coordinator.rounds[self.coordinator.current_round].phase == Phase.OPEN)
    @rule(data=st.data(), batches=BATCHES)
    def batched_submission(self, data, batches):
        """One registered client's batches, split in two or whole, in order or
        not, and of lengths that may not add up to the model dimension."""
        client = data.draw(st.sampled_from(sorted(self.coordinator.clients)))
        for index, count, components in batches:
            args = {"round": self.coordinator.current_round, "batch_index": index,
                    "batch_count": count, "components": components}
            self.submit(client, "submit_update", args)

    @rule()
    def seal(self):
        self.ledger.seal_block()

    def call(self, data, op, usual):
        current = self.coordinator.current_round
        if data.draw(st.integers(0, 3)):
            sender, values, rounds = data.draw(st.sampled_from(usual)), USUAL_ARGS, [current]
        else:
            sender = data.draw(st.sampled_from([SYSTEM_SENDER] + CLIENTS))
            values, rounds = ANY_ARGS, [current - 1, current, current + 1]
        args = {
            name: data.draw(st.sampled_from(rounds) if name == "round" else values[name])
            for name in CALLS[op].args
        }
        self.submit(sender, op, args)

    def submit(self, sender, op, args):
        nonces = {who: self.ledger.next_nonce(who) for who in [SYSTEM_SENDER] + CLIENTS}
        state, memory = self.coordinator.state_dict(), contract_memory(self.coordinator)
        try:
            receipt = self.ledger.submit_tx(Transaction(sender, op, args, nonces[sender]))
        except (UnknownSender, BadComponent):  # refused before execution: no receipt
            receipt = None
        else:
            nonces[sender] += 1
        assert {who: self.ledger.next_nonce(who) for who in nonces} == nonces
        if receipt is None or not receipt.success:
            assert self.coordinator.state_dict() == state
            assert contract_memory(self.coordinator) == memory
            return
        if op == "score_and_reward_round":
            self.check_payout(args["round"], receipt)
        self.anchors += [p["round"] for name, p in receipt.events if name == "FairnessCheckpoint"]

    @invariant()
    def validated_rounds_judge_every_submission(self):
        """No complete submission enters a round after its verdicts: each one
        in a validated or scored round has a verdict, so it is scored or
        turned away, never silently dropped."""
        for state in self.coordinator.rounds.values():
            if state.verdicts or state.phase != Phase.OPEN:
                assert state.submissions.keys() <= state.verdicts.keys()

    @invariant()
    def validated_rounds_leave_open(self):
        """A round with verdicts is past OPEN: its phase, not its verdicts,
        says that it takes no more submissions."""
        for state in self.coordinator.rounds.values():
            assert not (state.verdicts and state.phase == Phase.OPEN)

    @invariant()
    def closed_rounds_on_the_interval_have_one_anchor(self):
        """Exactly one anchor for each closed round that is a multiple of the
        interval, and none twice: the multiplier window cannot be moved by a
        skipped or a second checkpoint."""
        interval = self.coordinator.config.fairness_interval
        closed = range(interval, self.coordinator.current_round, interval)
        assert set(closed) <= set(self.anchors)
        assert len(set(self.anchors)) == len(self.anchors)
        assert sorted(self.anchors) == sorted(self.coordinator.checkpoints)

    @invariant()
    def scored_rounds_hold_their_shapley_values(self):
        """Under either basis, phi is the per-coalition oracle's over the
        cohort the round scored, for the payout and the log to read."""
        for r, state in self.coordinator.rounds.items():
            accepted = state.accepted
            if state.phase < Phase.SCORED or not 0 < len(accepted) <= SHAPLEY_MAX_CLIENTS:
                assert state.phi is None
                continue
            if r not in self.phi:
                submissions = {cid: state.submissions[cid] for cid in accepted}
                n_map = {cid: self.coordinator.clients[cid].n_samples for cid in accepted}
                self.phi[r] = shapley_exact(
                    accepted, lambda s: coalition_value_alignment(s, submissions, n_map)
                )
            assert state.phi == self.phi[r]

    def check_payout(self, round_index: int, receipt) -> None:
        config, state = self.coordinator.config, self.coordinator.rounds[round_index]
        raw_basis = state.scores
        if config.reward_basis == "shapley" and state.scores:
            raw_basis = state.phi
        # each basis value is a raw value times a multiplier of at least one
        assert state.multipliers.keys() == raw_basis.keys()
        assert all(m >= ONE for m in state.multipliers.values())
        positive = any(value.raw > 0 for value in raw_basis.values())
        (paid,) = [p["payouts"] for name, p in receipt.events if name == "RewardsDistributed"]
        assert sum(amount for _, amount in paid) == sum(state.payouts.values())
        assert sum(state.payouts.values()) == (config.reward_pool_per_round if positive else 0)


TestContractMachine = ContractMachine.TestCase
TestContractMachine.settings = settings(max_examples=50, stateful_step_count=30, deadline=None)


class TestDeferredHashing:
    def small_chain(self, read_every_seal: bool) -> Ledger:
        ledger, _ = make_ledger()
        for i in range(5):
            if i < 4:  # the last block is empty; client 0 registers twice and reverts
                ledger.submit_tx(register_tx(ledger, make_client_id(i % 3)))
            ledger.seal_block()
            if read_every_seal:
                assert len(ledger.chain_document()["blocks"]) == i + 2
        return ledger

    def test_when_the_chain_is_read_does_not_change_bytes(self):
        eager = self.small_chain(read_every_seal=True)
        lazy = self.small_chain(read_every_seal=False)
        assert canonical_json_bytes(eager.chain_document()) == \
            canonical_json_bytes(lazy.chain_document())

    def test_editing_the_chain_document_leaves_the_ledger_unchanged(self):
        ledger = self.small_chain(read_every_seal=False)
        chain = ledger.chain_document()
        expected = canonical_json_bytes(chain)
        chain["blocks"][1]["tx_hashes"].append("00" * 32)
        chain["blocks"][2]["hash"] = "00" * 32
        chain["txs"][1][0]["nonce"] += 1
        chain["txs"][2].pop()
        chain["receipts"][1][0]["gas_used"] += 1
        chain["receipts"][1][0]["events"].clear()
        chain["receipts"][2].clear()
        chain["blocks"].pop()
        assert canonical_json_bytes(ledger.chain_document()) == expected

    def test_chain_document_shares_tx_args_and_event_payloads(self):
        """The sharing the ``chain_document`` docstring states, pinned: each tx's
        args and each event payload are the ledger's own objects."""
        ledger = self.small_chain(read_every_seal=False)
        chain = ledger.chain_document()
        shared = 0
        for (calls, _), txs, receipts in zip(ledger._blocks, chain["txs"], chain["receipts"]):
            for (tx, _, receipt), tx_doc, receipt_doc in zip(calls, txs, receipts, strict=True):
                assert tx_doc["args"] is tx.args
                for (_, payload), (_, payload_doc) in zip(receipt.events, receipt_doc["events"],
                                                          strict=True):
                    assert payload_doc is payload
                    shared += 1
        assert shared == 4  # the deploy and three successful registrations
        chain["txs"][1][0]["args"]["stake"] = 7
        chain["receipts"][1][0]["events"][0][1]["stake"] = 7
        again = ledger.chain_document()
        assert again["txs"][1][0]["args"]["stake"] == 7
        assert again["receipts"][1][0]["events"][0][1]["stake"] == 7

    def test_the_read_places_each_receipt_at_its_tx_hash_and_height(self):
        ledger, _ = make_ledger()
        tx = register_tx(ledger, make_client_id(0))
        receipt = ledger.submit_tx(tx)
        ledger.seal_block()
        chain = ledger.chain_document()
        assert chain["blocks"][-1]["tx_hashes"] == [tx.tx_hash().hex()]
        assert chain["receipts"][-1] == [receipt.to_dict(tx.tx_hash().hex(), 1)]
        assert chain["receipts"][-1][0]["tx_hash"] == tx.tx_hash().hex()

    def test_a_read_writes_each_receipt_once(self, monkeypatch):
        """One ``Receipt.to_dict`` call per receipt serves both its block's
        receipts root and the document."""
        ledger = self.small_chain(read_every_seal=False)
        written = []
        to_dict = Receipt.to_dict

        def counting(receipt, tx_hash, height):
            written.append((tx_hash, height))
            return to_dict(receipt, tx_hash, height)

        monkeypatch.setattr(Receipt, "to_dict", counting)
        chain = ledger.chain_document()
        assert written == [(doc["tx_hash"], doc["block_height"])
                           for docs in chain["receipts"] for doc in docs]
        assert len(written) == 5  # the deploy and four registrations

    def test_submit_and_seal_hash_nothing(self, monkeypatch):
        def no_hash(*args):
            raise AssertionError("hashed before the chain was read")

        monkeypatch.setattr(ledger_module, "keccak256", no_hash)
        monkeypatch.setattr(ledger_module, "keccak256_many", no_hash)
        ledger, _ = make_ledger()
        ledger.submit_tx(register_tx(ledger, make_client_id(0)))
        ledger.seal_block()
        ledger.seal_block()


class TestGasCsv:
    def test_header_and_column_order(self):
        rows = {10: {c: 1 for c in ("register", "submit", "aggregate", "validate", "distribute")}}
        text = gas_csv_text(rows)
        lines = text.splitlines()
        assert lines[0] == "param_size,register,submit,aggregate,validate,distribute"
        assert lines[1] == "10,1,1,1,1,1"

    def test_rows_sorted_by_size(self):
        cells = {c: 0 for c in ("register", "submit", "aggregate", "validate", "distribute")}
        cells = {**cells, "register": 1}
        text = gas_csv_text({100: dict(cells), 10: dict(cells)})
        assert text.splitlines()[1].startswith("10,")
