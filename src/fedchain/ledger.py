"""Simulated blockchain: ordered transaction execution, gas charging, blocks.

Gas is modeled, not metered opcode-by-opcode: each operation class costs
a_o + b_o * p for p parameters touched. The default coefficients were
calibrated offline by a least-squares fit (in log space, which balances
relative error across four decades of parameter counts) against gas
measurements of a reference contract deployment; registration and reward
distribution are parameter-independent, so their slopes are structurally
zero. This module owns the gas model and the class order ``OP_CLASSES``;
the contract's ``coordinator.CALLS`` table owns which class each call is
charged as, and which senders the chain admits. A call that reverts is
charged and recorded with its reason; the contract changed nothing and
emitted nothing, so there is nothing to undo.

The chain has one read, ``Ledger.chain_document``, and it is the one place
that hashes a sealed tx, state or block. ``submit_tx`` builds each tx
preimage (its args check), decoding a submitted batch once for both its
commitment and the contract, and ``seal_block`` snapshots the state
preimage; neither hashes. A receipt is only what its call produced: its tx
hash and block height are where it sits in the chain, which the read
derives. The read hashes the whole chain: one ``keccak256_many`` pass over
the tx preimages, a second over the state preimages and the receipts-root
preimages, which hold the tx hashes, then the headers in order through
``keccak256``, since each holds its parent's hash. ``verify_chain``
re-derives the chain with the same ``header_preimage`` and ``Receipt.to_dict``
and charges each tx with the same ``tx_gas``.

The ledger knows blocks, not rounds: which events a block must hold is the
layout rule of the run that seals them (``scenario.build_report``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coordinator import SYSTEM_SENDER, gas
from .errors import BadComponent, NonceError, SimulationError, UnknownSender
from .keccak import keccak256, keccak256_many
from .numerics import INT_LIMIT, GradientVector
from .offchain import canonical_json_bytes, vector_commit

GENESIS_PARENT = b"\x00" * 32

# gas classes in table order: the gas report's table row and gas.csv columns
OP_CLASSES = ("register", "submit", "aggregate", "validate", "distribute")

# gas class -> GasModel fields of its (intercept, slope); no slope field means 0
_COEFFICIENT_FIELDS = {
    "register": ("register_base", None),
    "submit": ("submit_base", "submit_per_param"),
    "aggregate": ("aggregate_base", "aggregate_per_param"),
    "validate": ("validate_base", "validate_per_param"),
    "distribute": ("distribute_base", None),
    "deploy": ("deploy_cost", None),
    "system": ("system_cost", None),
}


@dataclass(frozen=True)
class GasModel:
    """Affine per-class gas cost: intercept + slope * param_count. Every
    intercept is at least 1, since every executed transaction consumes gas."""

    register_base: int = 45_373
    submit_base: int = 159_745
    submit_per_param: int = 23_156
    aggregate_base: int = 92_440
    aggregate_per_param: int = 40_331
    validate_base: int = 308_887
    validate_per_param: int = 19_670
    distribute_base: int = 219_961
    deploy_cost: int = 2_371_244
    system_cost: int = 21_000  # flat bookkeeping calls (close, checkpoint record)

    def __post_init__(self) -> None:
        intercepts = {base for base, _ in _COEFFICIENT_FIELDS.values()}
        for name, value in self.__dict__.items():
            minimum = 1 if name in intercepts else 0
            is_int = isinstance(value, int) and not isinstance(value, bool)
            if not is_int or not minimum <= value < INT_LIMIT:
                message = f"gas coefficient {name} must be an int >= {minimum} and below 2**256"
                raise ValueError(f"bad gas model: {message}")

    def coefficients(self, op_class: str) -> tuple[int, int]:
        if op_class not in _COEFFICIENT_FIELDS:
            raise ValueError(f"unknown op class {op_class!r}")
        base, per_param = _COEFFICIENT_FIELDS[op_class]
        return getattr(self, base), getattr(self, per_param) if per_param else 0

    def charge(self, op_class: str, param_count: int) -> int:
        """Gas for one call of the given class touching param_count parameters."""
        if param_count < 0:
            raise ValueError("param_count must be >= 0")
        base, per_param = self.coefficients(op_class)
        return base + per_param * param_count

    def row(self, param_count: int) -> dict[str, int]:
        """Gas of one call of each class in OP_CLASSES at param_count parameters."""
        return {op_class: self.charge(op_class, param_count) for op_class in OP_CLASSES}


@dataclass(frozen=True)
class Transaction:
    sender: bytes
    op: str
    args: dict
    nonce: int

    def to_dict(self) -> dict:
        return {
            "sender": "0x" + self.sender.hex(),
            "op": self.op,
            "args": self.args,
            "nonce": self.nonce,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Transaction":
        return cls(bytes.fromhex(doc["sender"][2:]), doc["op"], doc["args"], doc["nonce"])

    def decode(self) -> tuple[bytes, Optional[GradientVector]]:
        """The bytes ``tx_hash`` hashes, and the ``components`` arg decoded, or
        None when the args carry none. The preimage holds the args with the
        bulk components replaced by their commitment digest; the one decode
        serves that commitment and the contract's ``submit_update``."""
        try:
            args, batch = self.args, None
            if isinstance(args, dict) and "components" in args:
                batch = GradientVector.from_raw(args["components"])
                args = dict(args)
                del args["components"]
                args["components_commit"] = vector_commit(batch)
                args["components_len"] = batch.dim
            return canonical_json_bytes({**self.to_dict(), "args": args}), batch
        except (SimulationError, TypeError, ValueError, OverflowError) as err:
            raise BadComponent(f"{self.op} args cannot be hashed: {err}") from err

    def tx_hash(self) -> bytes:
        return keccak256(self.decode()[0])


@dataclass
class Receipt:
    """What one executed call produced: the gas it was charged, its events,
    and whether it reverted, and why. Its tx hash and block height are the
    chain's to say, so ``to_dict`` takes both."""

    gas_used: int
    events: list[tuple[str, dict]]
    status: str  # "success" | "reverted"
    revert_reason: Optional[str] = None

    def __post_init__(self) -> None:
        if self.gas_used <= 0:
            raise ValueError("every executed transaction consumes gas")
        if self.status not in ("success", "reverted"):
            raise ValueError(f"status {self.status!r} is neither success nor reverted")
        if (self.revert_reason is None) == (self.status == "reverted"):
            raise ValueError("a revert reason is given exactly when reverted")
        if self.status == "reverted" and self.events:
            raise ValueError("reverted transactions emit no events")

    @property
    def success(self) -> bool:
        return self.status == "success"

    def to_dict(self, tx_hash: str, height: int) -> dict:
        """The persisted receipt of the tx hashing to ``tx_hash`` (hex) in block ``height``."""
        return {
            "tx_hash": tx_hash,
            "block_height": height,
            "gas_used": self.gas_used,
            "events": [list(event) for event in self.events],
            "status": self.status,
            "revert_reason": self.revert_reason,
        }


def tx_gas(gas_model: GasModel, tx: Transaction, dim: int) -> int:
    """The gas the ledger charges ``tx`` in a contract of model dimension ``dim``."""
    return gas_model.charge(*gas(tx.op, tx.args, dim))


# the header fields a block hash commits to; the header dict also holds that "hash"
HEADER_FIELDS = ("height", "parent_hash", "tx_hashes", "receipts_root", "state_root")


def header_preimage(header: dict) -> bytes:
    """The bytes a block hash hashes: the header's fields without its hash."""
    return canonical_json_bytes({name: header[name] for name in HEADER_FIELDS})


def receipts_preimage(receipt_docs: list[dict]) -> bytes:
    """The bytes ``receipts_root`` hashes: a block's receipts in their
    ``Receipt.to_dict`` form."""
    return canonical_json_bytes(receipt_docs)


class Ledger:
    """Single-writer chain: executes calls against the coordinator in strict
    submission order, charges gas, and seals a block when asked. The contract
    is deployed on construction: genesis holds the lone deploy receipt. Each
    sealed block is its calls, as (tx, tx preimage, receipt), and its state
    preimage; the chain is read only as ``chain_document`` (module docstring)."""

    def __init__(self, gas_model: GasModel, coordinator):
        self.gas_model = gas_model
        self.coordinator = coordinator
        self._blocks: list[tuple[list[tuple[Transaction, bytes, Receipt]], bytes]] = []
        tx = Transaction(sender=SYSTEM_SENDER, op="deploy", args={}, nonce=0)
        gas_used = tx_gas(gas_model, tx, coordinator.dim)  # deploy_cost
        receipt = Receipt(gas_used, [("ContractDeployed", {"size_bytes": 10_667})], "success")
        self._pending: list[tuple[Transaction, bytes, Receipt]] = [(tx, tx.decode()[0], receipt)]
        self._nonces: dict[bytes, int] = {SYSTEM_SENDER: 1}
        self.seal_block()

    # -- execution ---------------------------------------------------------

    def next_nonce(self, sender: bytes) -> int:
        return self._nonces.get(sender, 0)

    def submit_tx(self, tx: Transaction) -> Receipt:
        """Execute one contract call; order of execution is submission order.

        A call that fails before execution (unknown sender, wrong nonce, args
        that cannot be hashed) raises and leaves the ledger unchanged; the
        sender's nonce advances only when a receipt is recorded."""
        if not self.coordinator.admits(tx.sender, tx.op):
            raise UnknownSender(f"0x{tx.sender.hex()} has never registered")
        expected = self.next_nonce(tx.sender)
        if tx.nonce != expected:
            raise NonceError(f"nonce {tx.nonce} != expected {expected}")
        preimage, batch = tx.decode()

        gas_used = tx_gas(self.gas_model, tx, self.coordinator.dim)
        try:
            events = self.coordinator.execute(tx.op, tx.sender, tx.args, batch)
            receipt = Receipt(gas_used, events, "success")
        except SimulationError as err:
            receipt = Receipt(gas_used, [], "reverted", err.reason)
        self._pending.append((tx, preimage, receipt))
        self._nonces[tx.sender] = expected + 1
        return receipt

    # -- blocks ------------------------------------------------------------

    def seal_block(self) -> None:
        """Seal pending receipts into the next block (empty blocks allowed),
        with a snapshot of the state; hashing waits for the chain read."""
        self._blocks.append((self._pending, canonical_json_bytes(self.coordinator.state_dict())))
        self._pending = []

    def state_root(self) -> bytes:
        """Keccak-256 of the canonical coordinator-state serialization."""
        return keccak256(canonical_json_bytes(self.coordinator.state_dict()))

    # -- the one read ------------------------------------------------------

    def chain_document(self) -> dict:
        """The sealed chain in its persisted form, hashed afresh: headers, txs
        and receipts, as new dicts and lists, though tx args and event
        payloads are shared. Each receipt dict is built once, for both its
        block's receipts root and the document."""
        digests = iter(keccak256_many([m for calls, _ in self._blocks for _, m, _ in calls]))
        blocks, txs, receipts = [], [], []
        for height, (calls, _) in enumerate(self._blocks):
            hashes = [next(digests).hex() for _ in calls]
            blocks.append({"height": height, "tx_hashes": hashes})
            txs.append([tx.to_dict() for tx, _, _ in calls])
            receipts.append([r.to_dict(h, height) for (_, _, r), h in zip(calls, hashes)])
        n = len(blocks)
        digests = keccak256_many(
            [state for _, state in self._blocks] + [receipts_preimage(docs) for docs in receipts]
        )
        parent = GENESIS_PARENT.hex()
        for header, state_root, root in zip(blocks, digests[:n], digests[n:]):
            header.update(parent_hash=parent, receipts_root=root.hex(), state_root=state_root.hex())
            parent = header["hash"] = keccak256(header_preimage(header)).hex()
        return {"blocks": blocks, "txs": txs, "receipts": receipts}


def verify_chain(chain: dict, gas_model: GasModel, dim: int) -> Optional[str]:
    """Re-derive a persisted chain (``Ledger.chain_document``); None when intact.

    Each block must have one tx list and one receipt list. Every height is an
    int, and every parent link, header hash, tx hash and receipts root is
    recomputed. Each header holds ``HEADER_FIELDS`` and its hash, and each tx
    doc is its ``Transaction``'s dict, nothing more. Receipt j must be charged
    ``tx_gas`` under ``gas_model`` and ``dim``, obey ``Receipt``'s rules, and be
    that ``Receipt``'s dict at tx j's hash and its block's height (an int). The
    first fault, in block order, is returned. Unreadable parts are ``malformed``.
    """
    blocks, txs, receipts = chain["blocks"], chain["txs"], chain["receipts"]
    if not len(blocks) == len(txs) == len(receipts):
        return f"{len(blocks)} blocks, {len(txs)} tx lists, {len(receipts)} receipt lists"
    checks, fault = _hash_checks(blocks, txs, receipts, gas_model, dim)
    digests = iter(keccak256_many([m for _, preimages, _ in checks for m in preimages]))
    for message, preimages, expected in checks:
        if [next(digests).hex() for _ in preimages] != expected:
            return message
    return fault


def _hash_checks(blocks, txs, receipts, gas_model, dim) -> tuple[list, Optional[str]]:
    """The hash comparisons ``verify_chain`` makes, in its order, each as
    (message, preimages, expected hex digests); and the first fault that
    needs no hash (a bad height, parent link, charge or receipt, or a
    malformed part), where building them stops, or None."""
    checks = []
    parent = GENESIS_PARENT.hex()
    for i, (header, block_txs, block_receipts) in enumerate(zip(blocks, txs, receipts)):
        try:
            if header.keys() != {*HEADER_FIELDS, "hash"}:
                return checks, f"block {i}: malformed header"
            if type(header["height"]) is not int or header["height"] != i:
                return checks, f"block {i}: bad height {header['height']}"
            if header["parent_hash"] != parent:
                return checks, f"block {i}: broken parent link"
            for digest in (header["receipts_root"], header["state_root"], *header["tx_hashes"]):
                bytes.fromhex(digest)
            preimage = header_preimage(header)
            parent = header["hash"]
        except (AttributeError, TypeError, ValueError):
            return checks, f"block {i}: malformed header"
        checks.append((f"block {i}: header hash mismatch", [preimage], [parent]))
        try:
            tx_docs = iter(block_txs)
        except TypeError:
            return checks, f"block {i}: malformed tx list"
        tx_preimages, charges = [], []
        for j, doc in enumerate(tx_docs):
            try:
                tx = Transaction.from_dict(doc)
                if tx.to_dict() != doc:
                    raise ValueError("not a tx dict")
                tx_preimages.append(tx.decode()[0])
                charges.append(tx_gas(gas_model, tx, dim))
            except (KeyError, TypeError, ValueError, SimulationError):
                return checks, f"block {i}: malformed tx {j}"
        checks.append((
            f"block {i}: tx hashes do not match transactions", tx_preimages, header["tx_hashes"],
        ))
        try:
            preimage = receipts_preimage(block_receipts)
        except (TypeError, ValueError):
            return checks, f"block {i}: malformed receipts"
        checks.append((
            f"block {i}: receipts root mismatch", [preimage], [header["receipts_root"]],
        ))
        try:  # one receipt per tx, in tx order, charged, under Receipt's rules, at its place
            for j, (doc, tx_hash, charge) in enumerate(
                zip(block_receipts, header["tx_hashes"], charges)
            ):
                used = doc["gas_used"]
                if type(used) is not int or used != charge:
                    return checks, (f"block {i}: receipt {j} charged {used!r} gas, "
                                    f"the gas model charges {charge}")
                receipt = Receipt(used, doc["events"], doc["status"], doc["revert_reason"])
                if receipt.to_dict(tx_hash, i) != doc or type(doc["block_height"]) is not int:
                    return checks, f"block {i}: receipt {j} does not record tx {j} of block {i}"
            if len(block_receipts) != len(tx_preimages):
                return checks, f"block {i}: {len(block_receipts)} receipts, {len(tx_preimages)} txs"
        except ValueError as err:  # a rule that Receipt states
            return checks, f"block {i}: receipt {j}: {err}"
        except (LookupError, TypeError):
            return checks, f"block {i}: malformed receipts"
    return checks, None


def gas_csv_text(rows: dict[int, dict[str, int]]) -> str:
    """Gas report CSV, one row per parameter size, columns in OP_CLASSES order."""
    lines = [",".join(("param_size",) + OP_CLASSES)]
    for size in sorted(rows):
        lines.append(",".join([str(size)] + [str(rows[size][c]) for c in OP_CLASSES]))
    return "\n".join(lines) + "\n"
