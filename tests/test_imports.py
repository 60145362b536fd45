"""Package layering: importing one module loads only what it imports."""
import subprocess
import sys
from pathlib import Path

import fedchain

SRC = Path(fedchain.__file__).resolve().parent.parent

LOADED = (
    "import sys, fedchain.keccak; "
    "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'fedchain')))"
)


def test_keccak_loads_no_other_fedchain_module():
    # the package root re-exports nothing, so it imports no module eagerly
    out = subprocess.run(
        [sys.executable, "-c", LOADED], cwd=SRC, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["fedchain", "fedchain.keccak"]
