"""Package layering: importing one module loads only what it imports, and a
module uses only the public names of another."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

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


def imported_names(module: str) -> dict[str, set[str]]:
    """The names ``module`` imports from each other fedchain module, by module."""
    tree = ast.parse((SRC / "fedchain" / f"{module}.py").read_text())
    names: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("fedchain")):
            source = (node.module or "").removeprefix("fedchain.")
            names.setdefault(source, set()).update(alias.name for alias in node.names)
    return names


MODULES = sorted(path.stem for path in (SRC / "fedchain").glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_another_modules_private_name(module):
    private = {
        f"{source}.{name}"
        for source, names in imported_names(module).items()
        for name in names if name.startswith("_")
    }
    assert not private


def test_incentives_leaves_exact_integer_arithmetic_to_numerics():
    # the limits and the Python-int steps behind them have one owner; the game
    # reads coalition values from numerics.coalition_dots
    from fedchain import numerics

    owned = {name for name in vars(numerics) if name.endswith("_LIMIT")}
    owned |= {"add_terms", "raw_dot", "truncated_mean", "weighted_sum_lanes"}
    assert not imported_names("incentives").get("numerics", set()) & owned
