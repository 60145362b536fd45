"""Exception hierarchy shared across the simulator.

Any ``SimulationError`` raised while a contract call executes is turned into
a reverted receipt by the ledger. The contract raises before it writes or
emits, so a revert changes no contract state and the receipt holds no events.
Errors raised before execution starts (a malformed tx, a wrong nonce,
unhashable args, config problems) propagate to the caller.
"""


class SimulationError(Exception):
    """Base class for all simulator errors."""

    @property
    def reason(self) -> str:
        return type(self).__name__


class ParseError(SimulationError, ValueError):
    """Malformed decimal string."""


class DimMismatch(SimulationError):
    """Vector dimensions disagree."""


class EmptyInput(SimulationError):
    """Operation requires at least one element."""


# --- ledger ---

class NonceError(SimulationError):
    """Transaction nonce is not the sender's next-in-sequence."""


class MalformedTx(SimulationError):
    """A transaction field of the wrong type or shape (``ledger.Transaction``)."""


class BadComponent(SimulationError):
    """Transaction args that cannot be hashed, such as an update component
    that is no raw fixed-point int in range."""


# --- coordinator (contract reverts) ---

class BadArgs(SimulationError):
    """Contract call args that are missing, extra or of the wrong type."""


class AlreadyRegistered(SimulationError):
    pass


class InsufficientStake(SimulationError):
    pass


class BadSampleCount(SimulationError):
    pass


class NotRegistered(SimulationError):
    pass


class Banned(SimulationError):
    pass


class RoundClosed(SimulationError):
    pass


class OutOfOrderBatch(SimulationError):
    pass


class DuplicateSubmission(SimulationError):
    pass


class NothingToValidate(SimulationError):
    pass


class WrongPhase(SimulationError):
    pass


class NoAcceptedUpdates(SimulationError):
    pass


class WrongRound(SimulationError):
    pass


class CheckpointDue(SimulationError):
    """A round on the fairness interval closes only once it is anchored."""


class DuplicateCheckpoint(SimulationError):
    """A round is anchored at most once."""


class NotAuthorized(SimulationError):
    """System-only call attempted by a regular client."""


# --- incentives ---

class TooManyClients(SimulationError):
    """Exact Shapley enumeration is capped at 12 players."""


class BadWeights(SimulationError):
    pass


class MissingRounds(SimulationError):
    pass


# --- scenario / cli ---

class ConfigError(SimulationError):
    pass


class MissingRun(SimulationError):
    pass


class UnreadableRun(SimulationError):
    """A run directory whose ledger or blobs cannot be read."""
