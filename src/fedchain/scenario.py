"""Scenario configuration, the end-to-end round runner, reports, and audits.

A scenario is one JSON document; a run is fully determined by it (the seed
lives inside). Artifacts land in ``out/<run-id>/`` where the run id is a
digest of the resolved config, so re-running the same scenario overwrites
the same directory with identical bytes.
"""
from __future__ import annotations

import gzip
import json
import logging
import re
import zlib
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np

from . import incentives
from .coordinator import SYSTEM_SENDER, ContractConfig, Coordinator, gas_class
from .errors import ConfigError, MissingRun, SimulationError, UnreadableRun
from .flclients import (
    ClientBehavior,
    SyntheticDataset,
    act,
    local_train,
    make_client_id,
    sample_true_weights,
)
from .keccak import keccak256
from .ledger import GasModel, Ledger, Transaction, gas_csv_text, verify_chain
from .numerics import Fixed, GradientVector, check_int, check_number
from .offchain import (
    ContentStore,
    canonical_json_bytes,
    publish_checkpoint,
    verify_checkpoints,
)

logger = logging.getLogger("fedchain")

LEDGER_FILE = "ledger.bin"
REPORT_FILE = "report.json"
GAS_FILE = "gas.csv"
REWARDS_FILE = "rewards.csv"
ATTRIBUTION_FILE = "attribution.jsonl"
BLOBS_DIR = "blobs"


@dataclass(frozen=True, kw_only=True)
class DatasetConfig:
    """The clients' synthetic data and local training, with their checks."""

    n_clients: int
    samples_per_client: tuple[int, ...]
    dim: int
    noise: float = 0.0
    behaviors: tuple[ClientBehavior, ...] = None  # None: every client honest
    epochs: int = 5
    lr: float = 0.1
    seed: Optional[int] = None  # None: the scenario seed

    def __post_init__(self) -> None:
        check_int(self.n_clients, "n_clients", minimum=1)
        _check_per_client(self.samples_per_client, self.n_clients, "samples_per_client", "count")
        for count in self.samples_per_client:
            check_int(count, "samples_per_client", minimum=1)
        check_int(self.dim, "dim", minimum=1)
        if max(self.samples_per_client) * self.dim * 8 >= 2**63:  # numpy's array size limit
            raise ValueError(
                "max(samples_per_client) * dim must be below 2**60: "
                "a client's float64 feature matrix must fit in numpy"
            )
        object.__setattr__(self, "noise", check_number(self.noise, "noise"))
        if not self.noise >= 0:
            raise ValueError("noise must be >= 0")
        if self.behaviors is None:
            object.__setattr__(self, "behaviors", (ClientBehavior("honest"),) * self.n_clients)
        _check_per_client(self.behaviors, self.n_clients, "behaviors", "entry")
        check_int(self.epochs, "epochs", minimum=1)
        object.__setattr__(self, "lr", check_number(self.lr, "lr"))
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if self.seed is not None:
            check_int(self.seed, "dataset seed")


def _check_per_client(values, n_clients: int, name: str, item: str) -> None:
    if not (isinstance(values, tuple) and len(values) == n_clients):
        raise ValueError(f"{name} must list one {item} per client")


@dataclass(frozen=True)
class ScenarioConfig(ContractConfig):
    """A scenario: the contract's parameters, plus the rounds, clients,
    batching and gas model of one run. The dataset seed defaults to the
    scenario seed."""

    seed: int
    rounds: int
    dataset: DatasetConfig
    batch_size: int = 10_000
    gas: GasModel = field(default_factory=GasModel)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_int(self.seed, "seed")
        check_int(self.rounds, "rounds", minimum=1)
        check_int(self.batch_size, "batch_size", minimum=1)
        try:  # a round's score is at most tau * tau, and the run sums every round's
            Fixed(self.rounds * (self.tau * self.tau).raw)
        except OverflowError:
            raise ValueError("rounds * tau * tau must lie in the fixed-point range") from None
        cap = incentives.SHAPLEY_MAX_CLIENTS
        if self.reward_basis == "shapley" and self.dataset.n_clients > cap:
            raise ValueError(f"shapley reward basis requires at most {cap} clients")
        if self.dataset.seed is None:
            object.__setattr__(self, "dataset", replace(self.dataset, seed=self.seed))

    def to_canonical_dict(self) -> dict:
        return _canonical(self)

    def run_id(self) -> str:
        return config_run_id(self.to_canonical_dict())


def _canonical(value):
    """A config value in its document form: a ``Fixed`` as its exact decimal
    string, a tuple as a list, and a dataclass as an object of its fields,
    leaving out a field whose ``kind`` metadata names another kind."""
    if isinstance(value, Fixed):
        return value.to_decimal()
    if isinstance(value, tuple):
        return [_canonical(item) for item in value]
    if is_dataclass(value):
        kind = getattr(value, "kind", None)
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in fields(value)
            if f.metadata.get("kind", kind) == kind
        }
    return value


def config_run_id(canonical_config: dict) -> str:
    """Run id: the leading 12 hex digits of the canonical config's Keccak digest."""
    return keccak256(canonical_json_bytes(canonical_config)).hex()[:12]


# --- config parsing -----------------------------------------------------------

def _as_fixed(value, name: str) -> Fixed:
    """A decimal parameter, given as a JSON number or a decimal string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{name} must be a decimal number or string")
    try:
        return Fixed.from_decimal(value if isinstance(value, str) else repr(value))
    except (ValueError, OverflowError) as err:
        raise ConfigError(f"{name}: {err}") from err


_type_hints = cache(get_type_hints)  # a config class's field types, evaluated once


def _from_doc(cls, doc, what: str):
    """``cls`` built from a JSON object keyed by its field names; absent keys
    take the defaults ``cls`` declares, and its constructor checks the values."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be an object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required field {f.name!r}")
    hints = _type_hints(cls)
    values = {name: _from_value(hints[name], value, name) for name, value in doc.items()}
    try:
        return cls(**values)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _from_value(hint, value, name: str):
    """A document value as a field of type ``hint`` holds it: a decimal as a
    ``Fixed``, an object as its config dataclass, a list as a tuple, and a
    behavior's kind name as that behavior."""
    if hint is Fixed:
        return _as_fixed(value, name)
    if hint is ClientBehavior and isinstance(value, str):
        value = {"kind": value}
    if is_dataclass(hint):
        return _from_doc(hint, value, name)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):  # so `"behaviors": null` is no absent key
            raise ConfigError(f"{name} must be a list")
        return tuple(_from_value(get_args(hint)[0], item, name) for item in value)
    return value


def parse_config(doc: dict) -> ScenarioConfig:
    """Build a scenario from its JSON document; unknown keys are rejected.

    Absent keys take the defaults the config dataclasses declare; their
    checks fail as ``ConfigError`` with the constructor's message.
    """
    return _from_doc(ScenarioConfig, doc, "config")


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:  # absent, a directory, or otherwise unreadable
        raise ConfigError(f"config file cannot be read: {err}") from err
    except (ValueError, RecursionError) as err:  # bad JSON or UTF-8, a huge int, deep nesting
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return parse_config(doc)


# --- the runner -----------------------------------------------------------------

@dataclass
class RunResult:
    config: ScenarioConfig
    run_id: str
    coordinator: Coordinator
    store: ContentStore
    ledger_doc: dict  # the persisted chain, as ledger_document builds it
    report: dict
    attribution: list[dict]
    model_history: list[GradientVector]
    true_weights: np.ndarray


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute the full round loop for one scenario, deterministically.

    Every transaction goes through ``call``. For a config ``parse_config``
    accepts, no call the runner makes can revert, so a revert is a fault: it
    stops the run with ``SimulationError`` naming the op, sender and reason.
    """
    ds = config.dataset
    true_weights = sample_true_weights(ds.seed, ds.dim)
    clients = [  # (id, index, dataset)
        (make_client_id(i), i, SyntheticDataset.generate(
            ds.seed, ds.samples_per_client[i], ds.dim, ds.noise,
            true_weights=true_weights, client_index=i,
        ))
        for i in range(ds.n_clients)
    ]
    clients.sort(key=lambda client: client[0])  # submission order is client-id order

    ledger = Ledger(config.gas, Coordinator(ds.dim, config))
    coordinator, store = ledger.coordinator, ContentStore()

    def call(sender: bytes, op: str, **args) -> None:
        receipt = ledger.submit_tx(Transaction(sender, op, args, ledger.next_nonce(sender)))
        if not receipt.success:
            raise SimulationError(f"{op} by 0x{sender.hex()} reverted: {receipt.revert_reason}")

    for cid, _, dataset in clients:
        call(cid, "register", stake=config.min_stake, n_samples=dataset.n_samples)
    ledger.seal_block()

    model = GradientVector.zeros(ds.dim)
    model_history = [model]
    attribution: list[dict] = []
    cumulative: dict[bytes, Fixed] = {}

    for round_index in range(1, config.rounds + 1):
        logger.info("round %d", round_index)
        for cid, index, dataset in clients:
            if coordinator.clients[cid].banned:
                continue
            try:
                update = act(
                    ds.behaviors[index],
                    local_train(model, dataset, ds.epochs, ds.lr),
                    config.seed, index, round_index,
                )
            except (OverflowError, ValueError) as err:  # out of fixed-point range, or NaN
                logger.warning(
                    "client 0x%s sits out round %d: its update cannot be encoded: %s",
                    cid.hex(), round_index, err,
                )
                continue
            if update is None:
                continue
            starts = range(0, update.dim, config.batch_size)
            for batch_index, start in enumerate(starts):
                call(cid, "submit_update", round=round_index, batch_index=batch_index,
                     batch_count=len(starts),
                     components=update.raw[start : start + config.batch_size].tolist())

        round_state = coordinator.rounds[round_index]
        if round_state.submissions:
            call(SYSTEM_SENDER, "validate_round", round=round_index)
        call(SYSTEM_SENDER, "score_and_reward_round", round=round_index)
        if round_state.accepted:
            call(SYSTEM_SENDER, "aggregate_round", round=round_index)

        # attribution-log records: phi and the multipliers are the contract's,
        # recorded while it scored
        phi = round_state.phi or {}
        for cid in sorted(round_state.scores):
            score = round_state.scores[cid]
            cumulative[cid] = cumulative.get(cid, Fixed(0)) + score
            attribution.append({
                "round": round_index,
                "client": "0x" + cid.hex(),
                "S": score.to_decimal(),
                "phi": phi[cid].to_decimal() if cid in phi else None,
                "cumulative": cumulative[cid].to_decimal(),
                "multiplier": round_state.multipliers[cid].to_decimal(),
            })

        if round_index % config.fairness_interval == 0:
            # the running sums already hold rounds 1..round_index
            cid = publish_checkpoint(store, cumulative).hex()
            call(SYSTEM_SENDER, "record_checkpoint", round=round_index, cid=cid, hash=cid)

        call(SYSTEM_SENDER, "close_round", round=round_index)
        ledger.seal_block()
        if round_state.accepted:
            model = model + round_state.aggregate
        model_history.append(model)

    ledger_doc = ledger_document(config, ledger)
    return RunResult(
        config=config,
        run_id=ledger_doc["run_id"],
        coordinator=coordinator,
        store=store,
        ledger_doc=ledger_doc,
        report=build_report(ledger_doc, store),
        attribution=attribution,
        model_history=model_history,
        true_weights=true_weights,
    )


# --- persistence and reporting -----------------------------------------------------

def ledger_document(config: ScenarioConfig, ledger: Ledger) -> dict:
    """The persisted chain: everything needed to rebuild reports and audit."""
    return {
        "config": config.to_canonical_dict(),
        "run_id": config.run_id(),
        **ledger.chain_document(),
    }


def scores_from_ledger(ledger_doc: dict) -> dict[int, dict[bytes, Fixed]]:
    """Per-round alignment scores recovered from the persisted event log,
    keyed by the round each score event names, wherever it sits: an oracle
    for the running sums ``build_report`` keeps."""
    return {
        payload["round"]: {bytes.fromhex(cid[2:]): Fixed(raw) for cid, raw in payload["scores"]}
        for block_receipts in ledger_doc["receipts"]
        for receipt in block_receipts
        for name, payload in receipt["events"]
        if name == "AlignmentScoresUpdated"
    }


# the events whose payload names a round
ROUND_EVENTS = ("UpdateSubmitted", "ClientBanned", "AlignmentScoresUpdated",
                "RewardsDistributed", "FairnessCheckpoint")


def build_report(ledger_doc: dict, store: ContentStore) -> dict:
    """Pure view of a persisted ledger, byte-identical on rebuild: the chain's one
    round-by-round reader. One walk of the blocks takes the gas and reads round r only
    from block r + 1, so the rounds are the chain's, not the recorded config's. It raises
    ``UnreadableRun``, naming the block, unless every round event names its block's round
    (genesis and registration hold none) and each round's block holds one
    ``AlignmentScoresUpdated``, one ``RewardsDistributed``, and one ``FairnessCheckpoint``
    exactly when the round is a multiple of ``fairness_interval``; events it cannot read,
    a round event's client id not as the contract writes it or a payout that is no int
    among them, are ``malformed events``. It keeps one running sum of each client's
    scores, and checks each anchor against the sums at its place in the walk.
    """
    config = ledger_doc["config"]
    dim, interval = config["dataset"]["dim"], config["fairness_interval"]
    rounds, anchors, gas_by_class, sums = [], [], {}, {}
    for height, block in enumerate(zip(ledger_doc["txs"], ledger_doc["receipts"])):
        r = height - 1  # round r seals in block r + 1, after genesis and registration
        record = {"round": r, "submitted": [], "scores": {}, "payouts": {}, "banned": [],
                  "checkpoint": None, "gas_used": 0}
        counts = dict.fromkeys(ROUND_EVENTS, 0)
        for j, (tx, receipt) in enumerate(zip(*block)):
            op_class = gas_class(tx["op"])
            gas_by_class[op_class] = gas_by_class.get(op_class, 0) + receipt["gas_used"]
            record["gas_used"] += receipt["gas_used"]
            try:
                for name, payload in receipt["events"]:
                    if name not in counts:
                        continue
                    named = payload["round"]
                    if not (type(named) is int and named == r >= 1):
                        raise UnreadableRun(f"block {height}: tx {j}: {name} names round {named!r}")
                    counts[name] += 1
                    if name == "UpdateSubmitted":
                        if _client_id(payload["id"]) not in record["submitted"]:
                            record["submitted"].append(payload["id"])
                    elif name == "ClientBanned":
                        record["banned"].append(_client_id(payload["id"]))
                    elif name == "AlignmentScoresUpdated":
                        scores = {bytes.fromhex(_client_id(c)[2:]): Fixed(raw)
                                  for c, raw in payload["scores"]}
                        record["scores"] = {"0x" + c.hex(): s.to_decimal()
                                            for c, s in scores.items()}
                        sums.update({c: sums.get(c, Fixed(0)) + s for c, s in scores.items()})
                    elif name == "RewardsDistributed":
                        record["payouts"] = {_client_id(c): paid for c, paid in payload["payouts"]}
                        if any(type(paid) is not int for _, paid in payload["payouts"]):
                            raise TypeError("a payout is no int")
                    elif name == "FairnessCheckpoint":
                        record["checkpoint"] = {"cid": payload["cid"], "hash": payload["hash"]}
                        anchors.append((payload, bytes.fromhex(payload["cid"]),
                                        bytes.fromhex(payload["hash"]), dict(sums)))
            except (LookupError, TypeError, ValueError, AttributeError, OverflowError):
                raise UnreadableRun(f"block {height}: tx {j}: malformed events") from None
        if height < 2:
            continue
        due = {"AlignmentScoresUpdated": 1, "RewardsDistributed": 1,
               "FairnessCheckpoint": int(r % interval == 0)}
        for name, expected in due.items():
            if counts[name] != expected:
                raise UnreadableRun(
                    f"block {height}: {counts[name]} {name} events, round {r} is due {expected}")
        rounds.append(record)

    verdicts = verify_checkpoints(store, [anchor[1:] for anchor in anchors])
    checkpoints = [
        {"round": a["round"], "cid": a["cid"], "hash": a["hash"], "verdict": verdict or "ok"}
        for (a, *_), verdict in zip(anchors, verdicts)
    ]
    return {
        "run_id": ledger_doc["run_id"],
        "config": config,
        "rounds": rounds,
        "gas": {
            "total": sum(gas_by_class.values()),
            "by_class": dict(sorted(gas_by_class.items())),
            "table": {str(dim): GasModel(**config["gas"]).row(dim)},
        },
        "final_cumulative": {
            "0x" + cid.hex(): value.to_decimal() for cid, value in sorted(sums.items())
        },
        "checkpoints": checkpoints,
        "summary": {
            "rounds": len(rounds),
            "clients": config["dataset"]["n_clients"],
            "blocks": len(ledger_doc["blocks"]),
            "total_payout": sum(sum(record["payouts"].values()) for record in rounds),
            "banned": sorted({cid for record in rounds for cid in record["banned"]}),
            "final_state_root": ledger_doc["blocks"][-1]["state_root"],
        },
    }


def _client_id(text: str) -> str:
    """``text``, a client id as the contract writes it ("0x", 40 lowercase hex digits)."""
    if re.fullmatch("0x[0-9a-f]{40}", text) is None:
        raise ValueError(f"{text!r} is no client id")
    return text


def rewards_csv_text(report: dict) -> str:
    """Per-round, per-client scores and payouts, as the report holds them."""
    lines = ["round,client,score,payout"]
    for record in report["rounds"]:
        for cid, score in record["scores"].items():
            lines.append(f"{record['round']},{cid},{score},{record['payouts'].get(cid, 0)}")
    return "\n".join(lines) + "\n"


def report_files(report: dict) -> dict[str, bytes]:
    """Each file a run writes from its report, by name, as its bytes: the
    report itself and its two CSV views. ``write_run`` writes them and
    ``audit_run`` holds the files to them."""
    dim = report["config"]["dataset"]["dim"]
    return {
        REPORT_FILE: json.dumps(report, sort_keys=True, indent=2, allow_nan=False).encode() + b"\n",
        GAS_FILE: gas_csv_text({dim: report["gas"]["table"][str(dim)]}).encode(),
        REWARDS_FILE: rewards_csv_text(report).encode(),
    }


def write_run(result: RunResult, out_dir) -> Path:
    """Write all artifacts for a completed run under out/<run-id>/."""
    run_dir = Path(out_dir) / result.run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    payload = canonical_json_bytes(result.ledger_doc)
    (run_dir / LEDGER_FILE).write_bytes(gzip.compress(payload, mtime=0))
    for name, data in report_files(result.report).items():
        (run_dir / name).write_bytes(data)
    lines = [canonical_json_bytes(record) + b"\n" for record in result.attribution]
    (run_dir / ATTRIBUTION_FILE).write_bytes(b"".join(lines))

    blob_dir = run_dir / BLOBS_DIR
    blob_dir.mkdir(exist_ok=True)
    for cid in result.store.cids():
        (blob_dir / cid.hex()).write_bytes(result.store.get(cid))
    return run_dir


# --- audit ------------------------------------------------------------------------

def load_run_dir(run_dir) -> tuple[dict, ContentStore]:
    """A run's ledger document and blob store as found on disk.

    ``MissingRun`` without a ledger; ``UnreadableRun`` when the ledger is no
    gzipped chain document, holds a ``NaN`` or ``Infinity`` (no JSON number),
    or a blob cannot be read under its lowercase hex CID.
    """
    run_dir = Path(run_dir)
    ledger_path = run_dir / LEDGER_FILE
    if not ledger_path.exists():
        raise MissingRun(f"no {LEDGER_FILE} under {run_dir}")
    try:
        with gzip.open(ledger_path, "rb") as fh:
            ledger_doc = json.loads(fh.read().decode(), parse_constant=_refuse_constant)
    except (OSError, EOFError, zlib.error, ValueError, RecursionError) as err:
        raise UnreadableRun(f"{LEDGER_FILE} is not gzipped JSON: {err}") from err
    chain_parts = ("blocks", "txs", "receipts")
    if not (
        isinstance(ledger_doc, dict)
        and "config" in ledger_doc
        and all(isinstance(ledger_doc.get(part), list) for part in chain_parts)
    ):
        raise UnreadableRun(f"{LEDGER_FILE} holds no config with blocks, txs and receipts lists")
    if ledger_doc.keys() != {"config", "run_id", *chain_parts}:
        raise UnreadableRun(f"{LEDGER_FILE} keys are not config, run_id, blocks, txs and receipts")
    blobs = {}
    blob_dir = run_dir / BLOBS_DIR
    for path in sorted(blob_dir.iterdir()) if blob_dir.is_dir() else []:
        try:
            cid = bytes.fromhex(path.name)
            if cid.hex() != path.name:  # else two files could claim one CID
                raise ValueError("not named by a CID in lowercase hex")
            blobs[cid] = path.read_bytes()
        except (OSError, ValueError) as err:
            raise UnreadableRun(f"{BLOBS_DIR}/{path.name}: {err}") from err
    return ledger_doc, ContentStore(blobs)


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _chain_fault(ledger_doc: dict) -> Optional[str]:
    """Why the recorded chain fails the audit, or None: its config must be the canonical form
    of a valid config hashing to the run id; its chain must verify under it and hold genesis,
    registration and one block per round."""
    config = ledger_doc["config"]
    try:
        parsed = parse_config(config)
    except ConfigError as err:
        return f"recorded config is invalid: {err}"
    if parsed.to_canonical_dict() != config:
        return "recorded config is not in canonical form"
    config_id = config_run_id(config)
    if config_id != ledger_doc["run_id"]:
        return f"config hashes to run id {config_id}, not {ledger_doc['run_id']}"
    fault = verify_chain(ledger_doc, parsed.gas, parsed.dataset.dim)
    blocks, rounds = len(ledger_doc["blocks"]), parsed.rounds
    if fault is None and blocks != rounds + 2:
        fault = f"{blocks} blocks for {rounds} rounds, expected {rounds + 2}"
    return fault


def audit_run(run_dir) -> dict:
    """Re-verify a completed run from its persisted artifacts alone.

    An unreadable run fails with the reason as its ``chain`` verdict. The
    report is rebuilt from the chain and serialized under one guard: once
    the chain verifies, the walk's layout fault, or ``report cannot be
    written: <error>``, is the ``chain`` verdict. Each file ``report_files``
    gives must hold its bytes, and every blob must be one the chain anchors:
    ``files`` names each file ``ok``, ``missing``, ``unreadable`` or
    ``differs``, and each blob that no anchor names ``unexpected`` (empty
    when no report, or no bytes for one, can be built).
    """
    run_dir = Path(run_dir)
    try:
        ledger_doc, store = load_run_dir(run_dir)
    except UnreadableRun as err:
        return {"run_id": None, "ok": False, "chain": str(err), "checkpoints": [], "files": {}}
    chain_error = _chain_fault(ledger_doc)
    expected = None
    try:  # a report that cannot be written as its files is no report
        report = build_report(ledger_doc, store)
        expected = report_files(report)
    except SimulationError as err:
        chain_error = chain_error or str(err)
    except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError) as err:
        chain_error = chain_error or f"report cannot be written: {err}"
    checkpoints, files = [], {}
    if expected is not None:
        checkpoints = [{"round": c["round"], "verdict": c["verdict"]}
                       for c in report["checkpoints"]]
        files = {name: _file_verdict(run_dir / name, data) for name, data in expected.items()}
        anchored = {c["cid"] for c in report["checkpoints"]}  # a run writes no other blob
        files.update({f"{BLOBS_DIR}/{cid.hex()}": "unexpected"
                      for cid in store.cids() if cid.hex() not in anchored})

    verdicts = [c["verdict"] for c in checkpoints] + list(files.values())
    return {
        "run_id": ledger_doc["run_id"],
        "ok": chain_error is None and all(v == "ok" for v in verdicts),
        "chain": chain_error or "ok",
        "checkpoints": checkpoints,
        "files": files,
    }


def _file_verdict(path: Path, expected: bytes) -> str:
    try:
        return "ok" if path.read_bytes() == expected else "differs"
    except FileNotFoundError:
        return "missing"
    except OSError:  # a directory in its place, or no permission to read it
        return "unreadable"


def audit(out_dir) -> list[dict]:
    """Audit a run directory, or every run found under a base directory."""
    base = Path(out_dir)
    if (base / LEDGER_FILE).exists():
        return [audit_run(base)]
    if base.is_dir():
        run_dirs = sorted(p for p in base.iterdir() if (p / LEDGER_FILE).exists())
        if run_dirs:
            return [audit_run(p) for p in run_dirs]
    raise MissingRun(f"no completed runs under {out_dir}")


# --- gas sweep -----------------------------------------------------------------------


def gas_sweep(config: ScenarioConfig, sizes: list[int]) -> dict[int, dict[str, int]]:
    """The config's gas model row at each size: the charge of one call of each
    class in OP_CLASSES, the same charge a run's receipts record."""
    if not sizes:
        raise ConfigError("gas sweep needs at least one size")
    for size in sizes:
        if size < 1:
            raise ConfigError(f"parameter sizes must be positive, got {size}")
    return {size: config.gas.row(size) for size in sizes}
