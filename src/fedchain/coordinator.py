"""The simulated smart contract: registration and staking, batched update
submission, validation, scoring and reward payout, FedAvg aggregation, and
periodic checkpoint anchoring.

Each protocol round walks the phase machine open -> validated -> scored ->
aggregated, and ``close_round`` opens the next. Every round call passes one
guard (``_round``), which admits only the current round, so no operation
succeeds out of order. A round on the fairness interval closes only once it
is anchored, and no round is anchored twice. All numeric state is
fixed-point, so two replays of the same transaction sequence produce
identical state roots.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import incentives
from .errors import (
    AlreadyRegistered,
    BadArgs,
    Banned,
    BadSampleCount,
    CheckpointDue,
    DimMismatch,
    DuplicateCheckpoint,
    DuplicateSubmission,
    InsufficientStake,
    NoAcceptedUpdates,
    NotAuthorized,
    NothingToValidate,
    NotRegistered,
    OutOfOrderBatch,
    RoundClosed,
    SimulationError,
    WrongPhase,
    WrongRound,
)
from .numerics import (
    ONE,
    ZERO,
    Fixed,
    GradientVector,
    concatenate,
    div_toward_zero,
    norm_sq,
    sample_weighted_mean,
    SCALE,
    check_int,
)
from .offchain import vector_commit

VERDICT_ACCEPTED = "accepted"
VERDICT_REJECTED_NORM = "rejected_norm"

SYSTEM_SENDER = b"\x00" * 20  # reserved id for coordinator-initiated calls
# n_samples bound: with n_i < 2**64, |raw| < 2**127 and fewer than 2**64 clients,
# every FedAvg and coalition numerator stays below ACC_LIMIT = 2**255
SAMPLES_LIMIT = 2**64


class Call(NamedTuple):
    gas_class: str  # one of ledger.OP_CLASSES, or the flat `system` class
    client: bool  # whether a client may send it; only the system sends the others
    args: dict  # each arg and its type; a str arg is a hex digest


# the contract's interface: every call the chain executes and charges for
CALLS = {
    "register": Call("register", True, {"stake": int, "n_samples": int}),
    "submit_update": Call("submit", True, {
        "round": int, "batch_index": int, "batch_count": int, "components": list,
    }),
    "validate_round": Call("validate", False, {"round": int}),
    "score_and_reward_round": Call("distribute", False, {"round": int}),
    "aggregate_round": Call("aggregate", False, {"round": int}),
    "record_checkpoint": Call("system", False, {"round": int, "cid": str, "hash": str}),
    "close_round": Call("system", False, {"round": int}),
}
_DIGEST_HEX = re.compile("[0-9a-f]{64}")


class Phase(enum.IntEnum):
    OPEN = 0
    VALIDATED = 1
    SCORED = 2
    AGGREGATED = 3


@dataclass
class ClientRecord:
    stake: int
    n_samples: int
    registered_round: int
    rounds_participated: int = 0
    consecutive_negative: int = 0
    banned: bool = False


@dataclass
class RoundState:
    phase: Phase = Phase.OPEN
    submissions: dict[bytes, GradientVector] = field(default_factory=dict)
    partial: dict[bytes, dict] = field(default_factory=dict)  # id -> {count, parts}
    verdicts: dict[bytes, str] = field(default_factory=dict)
    scores: dict[bytes, Fixed] = field(default_factory=dict)
    payouts: dict[bytes, int] = field(default_factory=dict)
    aggregate: Optional[GradientVector] = None
    phi: Optional[dict[bytes, Fixed]] = None  # Shapley values of a scored cohort within the cap
    multipliers: dict[bytes, Fixed] = field(default_factory=dict)  # id -> consistency multiplier

    @property
    def accepted(self) -> list[bytes]:
        """The ids whose update passed validation, in id order."""
        return sorted(cid for cid, verdict in self.verdicts.items() if verdict == VERDICT_ACCEPTED)


@dataclass(frozen=True, kw_only=True)
class ContractConfig:
    """The contract's hybrid-incentive parameters: their defaults and checks."""

    min_stake: int = 100
    tau: Fixed = Fixed.from_decimal("10.0")  # norm bound on an accepted update
    ban_threshold: int = 3
    slash_fraction: Fixed = Fixed.from_decimal("0.5")
    reward_pool_per_round: int = 1_000_000
    alpha: Fixed = Fixed.from_decimal("0.5")
    fairness_interval: int = 5
    reward_basis: str = "alignment"

    def __post_init__(self) -> None:
        check_int(self.min_stake, "min_stake", minimum=0)
        check_int(self.ban_threshold, "ban_threshold", minimum=1)
        check_int(self.reward_pool_per_round, "reward_pool_per_round", minimum=0)
        check_int(self.fairness_interval, "fairness_interval", minimum=1)
        if self.alpha.raw < 0:
            raise ValueError("alpha must be >= 0")
        if self.tau.raw <= 0:
            raise ValueError("tau must be positive")
        try:  # the largest payout basis: a Shapley value, at most 2 * tau * tau, times 1 + alpha
            Fixed.from_int(2) * (self.tau * self.tau) * (ONE + self.alpha)
        except OverflowError:
            message = "2 * tau * tau * (1 + alpha) must lie in the fixed-point range"
            raise ValueError(message) from None
        if not 0 <= self.slash_fraction.raw <= SCALE:
            raise ValueError("slash_fraction must lie in [0, 1]")
        if self.reward_basis not in ("alignment", "shapley"):
            raise ValueError("reward_basis must be alignment or shapley")


class Coordinator:
    """Contract state machine; executes only inside the ledger's tx loop. Each
    call checks all that can revert it before it writes or emits, so a revert
    leaves every round, client and checkpoint as it was. Scoring a round
    records its alignment Shapley values, under either basis, as ``phi``."""

    def __init__(self, dim: int, config: ContractConfig = ContractConfig()):
        self.dim = dim
        self.config = config
        self.global_model = GradientVector.zeros(dim)
        self.model_version = 0
        self.clients: dict[bytes, ClientRecord] = {}
        self.rounds: dict[int, RoundState] = {1: RoundState()}
        self.current_round = 1
        self.checkpoints: dict[int, tuple[bytes, bytes]] = {}  # R -> (cid, H)
        self._events: list[tuple[str, dict]] = []

    @property
    def last_checkpoint_round(self) -> Optional[int]:
        return max(self.checkpoints, default=None)

    def _round(self, round_index: int, *phases: Phase, error=WrongPhase) -> RoundState:
        """The current round if it is ``round_index``, in one of ``phases``; else ``error``."""
        state = self.rounds[self.current_round]
        if round_index != self.current_round:
            raise error(f"round {round_index} is not current")
        if state.phase not in phases:
            needs = " or ".join(phase.name for phase in phases)
            raise error(f"round {round_index} is {state.phase.name}, needs {needs}")
        return state

    # -- event plumbing ------------------------------------------------------

    def _emit(self, name: str, payload: dict) -> None:
        self._events.append((name, payload))

    def admits(self, sender: bytes, op: str) -> bool:
        """Whether the chain executes a call from ``sender`` at all: the
        system, any registration, or a registered client."""
        return sender == SYSTEM_SENDER or op == "register" or sender in self.clients

    # -- dispatch (ledger entry point) ----------------------------------------

    def execute(
        self, op: str, sender: bytes, args: dict, batch: Optional[GradientVector]
    ) -> list[tuple[str, dict]]:
        """Run one call and return the events it emitted. ``batch`` is the
        ``components`` arg as the ledger decoded it for the tx preimage
        (``Transaction.decode``), None when the args carry none; a
        ``submit_update`` that passes its args check always has one."""
        call = CALLS.get(op)
        if sender != SYSTEM_SENDER and not (call and call.client):
            raise NotAuthorized(f"{op} is a coordinator-initiated call")
        if call is None:
            raise SimulationError(f"unknown contract call {op!r}")
        _check_args(op, args)
        self._events = events = []
        if op == "register":
            self.register(sender, args["stake"], args["n_samples"])
        elif op == "submit_update":
            self.submit_update(
                sender,
                args["round"],
                batch,
                args["batch_index"],
                args["batch_count"],
            )
        elif op == "record_checkpoint":
            self.record_checkpoint(
                args["round"], bytes.fromhex(args["cid"]), bytes.fromhex(args["hash"])
            )
        else:
            getattr(self, op)(args["round"])
        return events

    # -- client lifecycle ------------------------------------------------------

    def register(self, client_id: bytes, stake: int, n_samples: int) -> None:
        if client_id in self.clients:
            raise AlreadyRegistered(f"0x{client_id.hex()}")
        if client_id == SYSTEM_SENDER or len(client_id) != 20:
            raise NotAuthorized("invalid client id")
        if stake < self.config.min_stake:
            raise InsufficientStake(f"stake {stake} < minimum {self.config.min_stake}")
        if not 0 < n_samples < SAMPLES_LIMIT:
            raise BadSampleCount(f"n_samples must lie in [1, 2**64), got {n_samples}")
        self.clients[client_id] = ClientRecord(
            stake=stake,
            n_samples=n_samples,
            registered_round=self.current_round,
        )
        self._emit(
            "ClientRegistered",
            {"id": "0x" + client_id.hex(), "stake": stake, "n_samples": n_samples},
        )

    # -- round phase: open -------------------------------------------------------

    def submit_update(
        self,
        client_id: bytes,
        round_index: int,
        batch: GradientVector,
        batch_index: int,
        batch_count: int,
    ) -> None:
        """Buffer one batch of an update, in order; the last one completes it.
        A batch that reverts, ``DimMismatch`` included, leaves the earlier
        batches buffered, so the client may send it again."""
        state = self._round(round_index, Phase.OPEN, error=RoundClosed)
        record = self.clients.get(client_id)
        if record is None:
            raise NotRegistered(f"0x{client_id.hex()}")
        if record.banned:
            raise Banned(f"0x{client_id.hex()}")
        if client_id in state.submissions:
            raise DuplicateSubmission("one submission per client per round")
        if batch_count < 1 or not 0 <= batch_index < batch_count:
            raise OutOfOrderBatch(f"batch {batch_index} of {batch_count}")

        buffer = state.partial.get(client_id) or {"count": batch_count, "parts": []}
        if batch_count != buffer["count"] or batch_index != len(buffer["parts"]):
            raise OutOfOrderBatch(
                f"expected batch {len(buffer['parts'])} of {buffer['count']}, "
                f"got {batch_index} of {batch_count}"
            )
        parts = [*buffer["parts"], batch]
        if len(parts) < batch_count:
            state.partial[client_id] = {"count": batch_count, "parts": parts}
        else:
            update = concatenate(parts)
            if update.dim != self.dim:
                raise DimMismatch(f"update dim {update.dim} != model dim {self.dim}")
            state.submissions[client_id] = update
            state.partial.pop(client_id, None)
        self._emit(
            "UpdateSubmitted",
            {"id": "0x" + client_id.hex(), "round": round_index, "batch_index": batch_index},
        )

    # -- validation ---------------------------------------------------------------

    def validate_round(self, round_index: int) -> list[tuple[bytes, str]]:
        state = self._round(round_index, Phase.OPEN, Phase.VALIDATED)
        if not state.submissions:
            raise NothingToValidate(f"round {round_index} has no complete submissions")
        norm_bound = self.config.tau * self.config.tau
        verdicts: dict[bytes, str] = {}
        for client_id in sorted(state.submissions):
            try:
                within = norm_sq(state.submissions[client_id]) <= norm_bound
            except OverflowError:  # beyond the fixed-point range, so beyond tau * tau
                within = False
            verdicts[client_id] = VERDICT_ACCEPTED if within else VERDICT_REJECTED_NORM
        state.verdicts, state.phase = verdicts, Phase.VALIDATED  # no later submission
        return list(verdicts.items())

    # -- scoring and payout ----------------------------------------------------------

    def score_and_reward_round(self, round_index: int) -> dict[bytes, int]:
        state = self._round(round_index, Phase.OPEN, Phase.VALIDATED)
        if state.phase == Phase.OPEN and state.submissions:
            raise WrongPhase("validate the round before scoring")

        accepted = state.accepted
        aggregate, scores, phi = None, {}, None
        if accepted:
            vectors = [state.submissions[cid] for cid in accepted]
            counts = [self.clients[cid].n_samples for cid in accepted]
            total_samples = sum(counts)
            aggregate = sample_weighted_mean(vectors, counts)
            for cid, vec, n_i in zip(accepted, vectors, counts):
                scores[cid] = incentives.alignment_score(vec, aggregate, n_i, total_samples)
            cap = incentives.SHAPLEY_MAX_CLIENTS  # no phi beyond it: the shapley basis reverts
            if len(accepted) <= cap or self.config.reward_basis == "shapley":
                phi = incentives.shapley_alignment(
                    dict(zip(accepted, vectors)), dict(zip(accepted, counts)), aggregate
                )
        raw_basis = phi if self.config.reward_basis == "shapley" and scores else scores
        basis, multipliers = self._payout_basis(round_index, raw_basis)
        payouts = _largest_remainder_split(self.config.reward_pool_per_round, basis)
        state.aggregate, state.scores, state.phi = aggregate, scores, phi  # nothing reverts now
        state.multipliers, state.payouts, state.phase = multipliers, payouts, Phase.SCORED

        self._emit(
            "AlignmentScoresUpdated",
            {
                "round": round_index,
                "scores": [["0x" + cid.hex(), scores[cid].raw] for cid in sorted(scores)],
            },
        )
        self._apply_negative_score_policy(round_index, scores)
        self._emit(
            "RewardsDistributed",
            {
                "round": round_index,
                "payouts": [
                    ["0x" + cid.hex(), payouts[cid]] for cid in sorted(payouts) if payouts[cid] > 0
                ],
            },
        )
        return dict(payouts)

    def _payout_basis(self, round_index: int, raw_basis: dict[bytes, Fixed]) -> tuple[dict, dict]:
        """Positive payout weights and each scored client's multiplier: the
        scores (or phi, under the shapley basis), consistency-adjusted in the
        ``fairness_interval`` rounds after the last fairness checkpoint, and
        ``ONE`` outside that window."""
        last = self.last_checkpoint_round
        window = last is not None and last < round_index <= last + self.config.fairness_interval
        alpha = self.config.alpha
        basis, multipliers = {}, {}
        for cid, value in raw_basis.items():
            multiplier = ONE
            if window:
                participation = self.participation(cid)
                multiplier = incentives.consistency_multiplier(alpha, participation)
                value = incentives.consistency_adjusted_reward(value, alpha, participation)
            basis[cid], multipliers[cid] = value, multiplier
        return basis, multipliers

    def _apply_negative_score_policy(self, round_index: int, scores: dict[bytes, Fixed]) -> None:
        """Streak bookkeeping: consistently negative scorers are slashed and
        banned. Rounds a client sits out leave the streak unchanged."""
        for cid in sorted(scores):
            record = self.clients[cid]
            if scores[cid].is_negative():
                record.consecutive_negative += 1
                if record.consecutive_negative >= self.config.ban_threshold and not record.banned:
                    slashed = div_toward_zero(record.stake * self.config.slash_fraction.raw, SCALE)
                    record.stake -= slashed
                    record.banned = True
                    self._emit("ClientBanned", {"id": "0x" + cid.hex(), "round": round_index})
            else:
                record.consecutive_negative = 0

    def participation(self, client_id: bytes) -> Fixed:
        """Share of closed rounds since registration the client participated in."""
        record = self.clients[client_id]
        elapsed = self.current_round - record.registered_round
        if elapsed <= 0:
            return ZERO
        return Fixed(div_toward_zero(record.rounds_participated * SCALE, elapsed))

    # -- aggregation -------------------------------------------------------------------

    def aggregate_round(self, round_index: int) -> GradientVector:
        state = self._round(round_index, Phase.SCORED)
        if not state.accepted:
            raise NoAcceptedUpdates(f"round {round_index} accepted no updates")
        # committed value is the same FedAvg the scores were computed against
        assert state.aggregate is not None
        self.global_model = state.aggregate
        self.model_version = round_index
        state.phase = Phase.AGGREGATED
        return state.aggregate

    # -- checkpoint anchoring ---------------------------------------------------------

    def record_checkpoint(self, through_round: int, cid: bytes, integrity_hash: bytes) -> None:
        self._round(through_round, *Phase, error=WrongRound)
        if through_round % self.config.fairness_interval != 0:
            raise WrongRound(
                f"round {through_round} is not a multiple of {self.config.fairness_interval}"
            )
        if through_round in self.checkpoints:
            raise DuplicateCheckpoint(f"round {through_round} is already anchored")
        self.checkpoints[through_round] = (cid, integrity_hash)
        self._emit(
            "FairnessCheckpoint",
            {"round": through_round, "cid": cid.hex(), "hash": integrity_hash.hex()},
        )

    # -- close -----------------------------------------------------------------------

    def close_round(self, round_index: int) -> RoundState:
        state = self._round(round_index, Phase.AGGREGATED, Phase.SCORED)
        if state.phase == Phase.SCORED and state.accepted:
            raise WrongPhase(f"round {round_index} accepted updates: aggregate it first")
        # the consistency multipliers of the next rounds count from this anchor
        if round_index % self.config.fairness_interval == 0 and round_index not in self.checkpoints:
            raise CheckpointDue(f"round {round_index} closes only once it is anchored")
        for cid in state.accepted:
            self.clients[cid].rounds_participated += 1
        self.current_round = round_index + 1
        self.rounds[self.current_round] = RoundState()
        return state

    # -- canonical state -----------------------------------------------------------------

    def state_dict(self) -> dict:
        """Canonical JSON-ready snapshot; hashed into every block's state root.
        A client is a copy of its ``ClientRecord``'s fields, each stated once."""
        return {
            "current_round": self.current_round,
            "global_model": {
                "commit": vector_commit(self.global_model),
                "version": self.model_version,
                "dim": self.dim,
            },
            "clients": {"0x" + cid.hex(): dict(vars(rec)) for cid, rec in self.clients.items()},
            "checkpoints": {
                str(r): {"cid": cid.hex(), "hash": h.hex()}
                for r, (cid, h) in sorted(self.checkpoints.items())
            },
            "last_checkpoint_round": self.last_checkpoint_round,
        }


def gas_class(op: str) -> str:
    """Gas class of an op: its ``CALLS`` class, ``deploy``, or else ``system``."""
    return CALLS[op].gas_class if op in CALLS else "deploy" if op == "deploy" else "system"


def gas(op: str, args, dim: int) -> tuple[str, int]:
    """A call's gas class and size: a submit's component count, 0 when its args
    are not an object (it is charged, and ``execute`` reverts it with ``BadArgs``),
    and the model's ``dim`` for every other call, which a class with no slope ignores."""
    op_class = gas_class(op)
    if op_class == "submit":
        return op_class, len(args.get("components", ())) if isinstance(args, dict) else 0
    return op_class, dim


def _check_args(op: str, args: dict) -> None:
    """``BadArgs`` unless ``args`` holds exactly the call's args, each of its type."""
    types = CALLS[op].args
    if not isinstance(args, dict) or args.keys() != types.keys():
        raise BadArgs(f"{op} takes exactly {', '.join(types)}")
    for name, kind in types.items():
        value = args[name]
        if type(value) is not kind or (kind is str and not _DIGEST_HEX.fullmatch(value)):
            raise BadArgs(f"{op}: bad {name} {value!r}")


def _largest_remainder_split(pool: int, basis: dict[bytes, Fixed]) -> dict[bytes, int]:
    """Split ``pool`` proportionally to the positive basis values, exactly.

    Floor shares are topped up one unit at a time in order of largest
    remainder (ties broken by client id), so the sum equals the pool
    whenever any basis value is positive.
    """
    positive = {cid: b.raw for cid, b in basis.items() if b.raw > 0}
    payouts = {cid: 0 for cid in basis}
    if not positive or pool <= 0:
        return payouts
    total = sum(positive.values())
    remainders: list[tuple[int, bytes]] = []
    distributed = 0
    for cid in sorted(positive):
        share, remainder = divmod(pool * positive[cid], total)
        payouts[cid] = share
        distributed += share
        remainders.append((remainder, cid))
    leftover = pool - distributed
    remainders.sort(key=lambda item: (-item[0], item[1]))
    for _, cid in remainders[:leftover]:
        payouts[cid] += 1
    return payouts
