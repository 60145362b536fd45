"""Walk one protocol round by hand: register, submit, validate, score,
aggregate, close — printing receipts, events, and the round's outcome.

Run: python demos/round_lifecycle.py
"""
from fedchain.coordinator import SYSTEM_SENDER, ContractConfig, Coordinator
from fedchain.flclients import make_client_id
from fedchain.ledger import GasModel, Ledger, Transaction, verify_chain
from fedchain.numerics import Fixed, GradientVector


def show(gas_used, status, events, **_):
    """One receipt's gas, status and event names, from its fields or its
    chain-document form."""
    print(f"  gas={gas_used:>9,}  status={status:8s} events={[name for name, _ in events]}")


def main():
    ledger = Ledger(GasModel(), Coordinator(2, ContractConfig(reward_pool_per_round=1_000_000)))
    coordinator = ledger.coordinator

    print("== deploy ==")
    show(**ledger.chain_document()["receipts"][0][0])

    print("\n== register two clients (stake 100 each) ==")
    alice, bob = make_client_id(0), make_client_id(1)
    for cid, n in ((alice, 10), (bob, 30)):
        tx = Transaction(cid, "register", {"stake": 100, "n_samples": n},
                         ledger.next_nonce(cid))
        show(**vars(ledger.submit_tx(tx)))
    ledger.seal_block()

    print("\n== round 1: submissions ==")
    updates = {alice: ["1", "0"], bob: ["0", "1"]}
    for cid, values in sorted(updates.items()):
        vector = GradientVector.from_decimals(values)
        tx = Transaction(cid, "submit_update", {
            "round": 1, "batch_index": 0, "batch_count": 1,
            "components": vector.raw.tolist(),
        }, ledger.next_nonce(cid))
        show(**vars(ledger.submit_tx(tx)))

    print("\n== a duplicate submission reverts ==")
    tx = Transaction(alice, "submit_update", {
        "round": 1, "batch_index": 0, "batch_count": 1,
        "components": GradientVector.from_decimals(["9", "9"]).raw.tolist(),
    }, ledger.next_nonce(alice))
    show(**vars(ledger.submit_tx(tx)))

    print("\n== system calls drive the round forward ==")
    for op in ("validate_round", "score_and_reward_round", "aggregate_round", "close_round"):
        tx = Transaction(SYSTEM_SENDER, op, {"round": 1}, ledger.next_nonce(SYSTEM_SENDER))
        receipt = ledger.submit_tx(tx)
        print(f"{op}:")
        show(**vars(receipt))
    ledger.seal_block()

    state = coordinator.rounds[1]
    print("\n== outcome ==")
    print("closed: round", coordinator.current_round, "is now current; round 1 ended",
          state.phase.name)
    print("scores:", {hex_id(cid): s.to_decimal() for cid, s in sorted(state.scores.items())})
    print("payouts:", {hex_id(cid): p for cid, p in sorted(state.payouts.items())})
    print("aggregate:", [Fixed(c).to_decimal() for c in state.aggregate.raw.tolist()],
          "(sample-weighted mean: bob holds 3/4 of the data)")
    chain = ledger.chain_document()
    block = chain["blocks"][-1]
    print("block", block["height"], "hash:", block["hash"][:16], "...")
    # the chain re-derived under the gas model and dimension it was charged with
    fault = verify_chain(chain, ledger.gas_model, coordinator.dim)
    print("chain verifies." if fault is None else f"chain fault: {fault}")


def hex_id(cid: bytes) -> str:
    return "0x" + cid.hex()[:8]


if __name__ == "__main__":
    main()
