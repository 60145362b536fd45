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
class SimClient:
    index: int
    id: bytes
    behavior: ClientBehavior
    dataset: SyntheticDataset


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


def _chunked(components: list, size: int) -> list[list]:
    return [components[i : i + size] for i in range(0, len(components), size)]


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute the full round loop for one scenario, deterministically."""
    ds = config.dataset
    true_weights = sample_true_weights(ds.seed, ds.dim)
    clients = [
        SimClient(
            index=i,
            id=make_client_id(i),
            behavior=ds.behaviors[i],
            dataset=SyntheticDataset.generate(
                ds.seed, ds.samples_per_client[i], ds.dim, ds.noise,
                true_weights=true_weights, client_index=i,
            ),
        )
        for i in range(ds.n_clients)
    ]
    clients.sort(key=lambda c: c.id)  # submission order is client-id order

    ledger = Ledger(config.gas, Coordinator(ds.dim, config))
    coordinator, store = ledger.coordinator, ContentStore()

    def call(sender: bytes, op: str, args: dict) -> None:
        receipt = ledger.submit_tx(Transaction(sender, op, args, ledger.next_nonce(sender)))
        if not receipt.success:
            raise SimulationError(f"{op} by 0x{sender.hex()} reverted: {receipt.revert_reason}")

    for client in clients:
        call(client.id, "register",
             {"stake": config.min_stake, "n_samples": client.dataset.n_samples})
    ledger.seal_block()

    model = GradientVector.zeros(ds.dim)
    model_history = [model]
    attribution: list[dict] = []
    cumulative: dict[bytes, Fixed] = {}

    for round_index in range(1, config.rounds + 1):
        logger.info("round %d", round_index)
        for client in clients:
            if coordinator.clients[client.id].banned:
                continue
            try:
                update = act(
                    client.behavior,
                    local_train(model, client.dataset, ds.epochs, ds.lr),
                    client.behavior.stream(config.seed, client.index, round_index),
                )
            except (OverflowError, ValueError) as err:  # out of fixed-point range, or NaN
                logger.warning(
                    "client 0x%s sits out round %d: its update cannot be encoded: %s",
                    client.id.hex(), round_index, err,
                )
                continue
            if update is None:
                continue
            batches = _chunked(update.raw.tolist(), config.batch_size)
            for batch_index, batch in enumerate(batches):
                tx = Transaction(
                    client.id,
                    "submit_update",
                    {
                        "round": round_index,
                        "batch_index": batch_index,
                        "batch_count": len(batches),
                        "components": batch,
                    },
                    ledger.next_nonce(client.id),
                )
                receipt = ledger.submit_tx(tx)
                if not receipt.success:
                    logger.warning(
                        "submission by 0x%s reverted: %s",
                        client.id.hex(), receipt.revert_reason,
                    )
                    break

        round_state = coordinator.rounds[round_index]
        if round_state.submissions:
            call(SYSTEM_SENDER, "validate_round", {"round": round_index})
        call(SYSTEM_SENDER, "score_and_reward_round", {"round": round_index})
        if round_state.accepted:
            call(SYSTEM_SENDER, "aggregate_round", {"round": round_index})

        attribution.extend(_attribution_for_round(coordinator, round_state, cumulative))

        if round_index % config.fairness_interval == 0:
            # the running sums already hold rounds 1..round_index
            cid = publish_checkpoint(store, cumulative).hex()
            call(SYSTEM_SENDER, "record_checkpoint",
                 {"round": round_index, "cid": cid, "hash": cid})

        call(SYSTEM_SENDER, "close_round", {"round": round_index})
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


def _attribution_for_round(
    coordinator: Coordinator, round_state, cumulative: dict[bytes, Fixed]
) -> list[dict]:
    """Attribution-log records for one scored round; updates running sums.
    phi and the multipliers are the contract's, computed once per round."""
    phi = {}
    if 0 < len(round_state.accepted) <= incentives.SHAPLEY_MAX_CLIENTS:
        phi = coordinator.shapley_values(round_state)
    records = []
    for cid in sorted(round_state.scores):
        score = round_state.scores[cid]
        cumulative[cid] = cumulative.get(cid, Fixed(0)) + score
        records.append({
            "round": round_state.round,
            "client": "0x" + cid.hex(),
            "S": score.to_decimal(),
            "phi": phi[cid].to_decimal() if cid in phi else None,
            "cumulative": cumulative[cid].to_decimal(),
            "multiplier": round_state.multipliers[cid].to_decimal(),
        })
    return records


# --- persistence and reporting -----------------------------------------------------

def ledger_document(config: ScenarioConfig, ledger: Ledger) -> dict:
    """The persisted chain: everything needed to rebuild reports and audit."""
    return {
        "config": config.to_canonical_dict(),
        "run_id": config.run_id(),
        **ledger.chain_document(),
    }


def _doc_events(ledger_doc: dict, name: Optional[str] = None):
    for sealed in ledger_doc["receipts"]:
        for receipt in sealed:
            for event_name, payload in receipt["events"]:
                if name is None or event_name == name:
                    yield receipt["block_height"], event_name, payload


def scores_from_ledger(ledger_doc: dict) -> dict[int, dict[bytes, Fixed]]:
    """Per-round alignment scores recovered from the persisted event log."""
    return {
        payload["round"]: {bytes.fromhex(cid[2:]): Fixed(raw) for cid, raw in payload["scores"]}
        for _, _, payload in _doc_events(ledger_doc, "AlignmentScoresUpdated")
    }


def build_report(ledger_doc: dict, store: ContentStore) -> dict:
    """Pure view of a persisted ledger; byte-identical on rebuild."""
    config = ledger_doc["config"]
    rounds_count = config["rounds"]
    dim = config["dataset"]["dim"]
    gas_model = GasModel(**config["gas"])

    per_round: dict[int, dict] = {
        r: {
            "round": r,
            "submitted": [],
            "scores": {},
            "payouts": {},
            "banned": [],
            "checkpoint": None,
            "gas_used": 0,
        }
        for r in range(1, rounds_count + 1)
    }
    anchors = []  # every FairnessCheckpoint payload, whatever its round
    for _, name, payload in _doc_events(ledger_doc):
        if name == "FairnessCheckpoint":
            anchors.append(payload)
        record = per_round.get(payload.get("round"))
        if record is None:
            continue
        if name == "UpdateSubmitted":
            if payload["id"] not in record["submitted"]:
                record["submitted"].append(payload["id"])
        elif name == "RewardsDistributed":
            record["payouts"] = {cid: amount for cid, amount in payload["payouts"]}
        elif name == "ClientBanned":
            record["banned"].append(payload["id"])
        elif name == "FairnessCheckpoint":
            record["checkpoint"] = {"cid": payload["cid"], "hash": payload["hash"]}

    gas_by_class: dict[str, int] = {}
    for block_receipts, block_txs in zip(ledger_doc["receipts"], ledger_doc["txs"]):
        for receipt, tx in zip(block_receipts, block_txs):
            op_class = gas_class(tx["op"])
            gas_by_class[op_class] = gas_by_class.get(op_class, 0) + receipt["gas_used"]
        height = block_receipts[0]["block_height"] if block_receipts else 0
        if height - 1 in per_round:  # round r is sealed in block r + 1
            per_round[height - 1]["gas_used"] = sum(r["gas_used"] for r in block_receipts)

    history = scores_from_ledger(ledger_doc)
    for r, scores in history.items():
        if r in per_round:
            per_round[r]["scores"] = {"0x" + cid.hex(): s.to_decimal() for cid, s in scores.items()}
    cumulative: dict[int, dict[bytes, Fixed]] = {}  # r -> sums over rounds 1..r
    totals: dict[bytes, Fixed] = {}
    r = 1
    while r in history:  # the sums stop at the first missing round
        for cid, score in history[r].items():
            totals[cid] = totals.get(cid, Fixed(0)) + score
        cumulative[r] = dict(totals)
        r += 1
    final_cumulative = cumulative.get(rounds_count, {})

    verdicts = verify_checkpoints(store, [  # cumulative None: the history cannot be summed
        (bytes.fromhex(a["cid"]), bytes.fromhex(a["hash"]), cumulative.get(a["round"]))
        for a in anchors
    ])
    checkpoints = [
        {"round": a["round"], "cid": a["cid"], "hash": a["hash"], "verdict": verdict or "ok"}
        for a, verdict in zip(anchors, verdicts)
    ]

    total_payout = sum(sum(rec["payouts"].values()) for rec in per_round.values())
    banned = sorted({cid for rec in per_round.values() for cid in rec["banned"]})
    return {
        "run_id": ledger_doc["run_id"],
        "config": config,
        "rounds": [per_round[r] for r in sorted(per_round)],
        "gas": {
            "total": sum(gas_by_class.values()),
            "by_class": dict(sorted(gas_by_class.items())),
            "table": {str(dim): gas_model.row(dim)},
        },
        "final_cumulative": {
            "0x" + cid.hex(): value.to_decimal() for cid, value in sorted(final_cumulative.items())
        },
        "checkpoints": checkpoints,
        "summary": {
            "rounds": rounds_count,
            "clients": config["dataset"]["n_clients"],
            "blocks": len(ledger_doc["blocks"]),
            "total_payout": total_payout,
            "banned": banned,
            "final_state_root": ledger_doc["blocks"][-1]["state_root"],
        },
    }


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
    gzipped chain document or a blob cannot be read under its lowercase hex CID.
    """
    run_dir = Path(run_dir)
    ledger_path = run_dir / LEDGER_FILE
    if not ledger_path.exists():
        raise MissingRun(f"no {LEDGER_FILE} under {run_dir}")
    try:
        with gzip.open(ledger_path, "rb") as fh:
            ledger_doc = json.loads(fh.read().decode())
    except (OSError, EOFError, zlib.error, ValueError, RecursionError) as err:
        raise UnreadableRun(f"{LEDGER_FILE} is not gzipped JSON: {err}") from err
    chain_parts = ("blocks", "txs", "receipts")
    if not (
        isinstance(ledger_doc, dict)
        and "config" in ledger_doc
        and all(isinstance(ledger_doc.get(part), list) for part in chain_parts)
    ):
        raise UnreadableRun(f"{LEDGER_FILE} holds no config with blocks, txs and receipts lists")
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


def _chain_fault(ledger_doc: dict) -> Optional[str]:
    """Why the recorded chain fails the audit, or None: its config must be the canonical form
    of a valid config and hash to the run id, and then its chain must verify under it."""
    config = ledger_doc["config"]
    try:
        parsed = parse_config(config)
    except ConfigError as err:
        return f"recorded config is invalid: {err}"
    if parsed.to_canonical_dict() != config:
        return "recorded config is not in canonical form"
    config_id = config_run_id(config)
    if config_id != ledger_doc.get("run_id"):
        return f"config hashes to run id {config_id}, not {ledger_doc.get('run_id')}"
    return verify_chain(ledger_doc, parsed.rounds, parsed.gas, parsed.dataset.dim)


def audit_run(run_dir) -> dict:
    """Re-verify a completed run from its persisted artifacts alone.

    An unreadable run fails with the reason as its ``chain`` verdict. Each
    file ``report_files`` gives for the rebuilt report must hold its bytes,
    and every blob must be one the chain anchors: ``files`` names each file
    ``ok``, ``missing``, ``unreadable`` or ``differs``, and each blob that no
    anchor names ``unexpected`` (empty when the report cannot be rebuilt).
    """
    run_dir = Path(run_dir)
    try:
        ledger_doc, store = load_run_dir(run_dir)
    except UnreadableRun as err:
        return {"run_id": None, "ok": False, "chain": str(err), "checkpoints": [], "files": {}}
    chain_error = _chain_fault(ledger_doc)
    try:
        report = build_report(ledger_doc, store)
    except (SimulationError, ValueError, LookupError, TypeError, AttributeError, OverflowError):
        report = None
    checkpoints, files = [], {}
    if report is not None:
        checkpoints = [{"round": c["round"], "verdict": c["verdict"]}
                       for c in report["checkpoints"]]
        files = {name: _file_verdict(run_dir / name, data)
                 for name, data in report_files(report).items()}
        anchored = {c["cid"] for c in report["checkpoints"]}  # a run writes no other blob
        files.update({f"{BLOBS_DIR}/{cid.hex()}": "unexpected"
                      for cid in store.cids() if cid.hex() not in anchored})

    verdicts = [c["verdict"] for c in checkpoints] + list(files.values())
    ok = chain_error is None and report is not None and all(v == "ok" for v in verdicts)
    return {
        "run_id": ledger_doc.get("run_id"),
        "ok": ok,
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
