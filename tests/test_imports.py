"""Package layering: importing one module loads only what it imports."""
import subprocess
import sys
from pathlib import Path

import fedchain

SRC = Path(fedchain.__file__).resolve().parent.parent


def loaded_by(module: str) -> list[str]:
    """The fedchain modules a fresh interpreter holds after importing ``module``."""
    code = (
        f"import sys, {module}; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'fedchain')))"
    )
    return subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True
    ).stdout.split()


def test_keccak_loads_no_other_fedchain_module():
    # the package root re-exports nothing, so it imports no module eagerly
    assert loaded_by("fedchain.keccak") == ["fedchain", "fedchain.keccak"]


def test_coordinator_loads_no_ledger():
    # the contract owns its call interface; the chain imports it, not the reverse
    loaded = loaded_by("fedchain.coordinator")
    assert "fedchain.coordinator" in loaded and "fedchain.ledger" not in loaded
