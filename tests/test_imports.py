"""Package layering: importing one module loads only what it imports, a
module uses only the public names of another, and the runner drives the
contract only through the chain."""
import ast
import functools
import inspect
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


def asserted_lines(module: str) -> list[int]:
    """The lines of ``module`` holding an ``assert`` or a ``raise AssertionError``."""
    tree = ast.parse((SRC / "fedchain" / f"{module}.py").read_text())
    lines = []
    for node in ast.walk(tree):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(node, ast.Assert) or isinstance(exc, ast.Name) and exc.id == "AssertionError":
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", MODULES)
def test_no_module_asserts(module):
    # an assert vanishes under python -O; a rule is a typed error at its boundary
    assert asserted_lines(module) == []


def test_incentives_leaves_exact_integer_arithmetic_to_numerics():
    # the limits and the Python-int steps behind them have one owner; the game
    # reads coalition values from numerics.coalition_dots
    from fedchain import numerics

    named = {"add_terms", "raw_dot", "weighted_sum_lanes"}
    assert named <= set(vars(numerics))  # a stale name would silently weaken the check
    owned = {name for name in vars(numerics) if name.endswith("_LIMIT")} | named
    assert not imported_names("incentives").get("numerics", set()) & owned


def test_the_runner_calls_no_contract_method(monkeypatch, tmp_path):
    # the runner may read the contract's state, but every contract call it
    # makes goes through the ledger's tx loop, where it is charged and recorded
    from fedchain import scenario
    from fedchain.coordinator import Coordinator

    callers = []

    def recorded(name, method):
        @functools.wraps(method)
        def call(*args, **kwargs):
            callers.append((sys._getframe(1).f_globals["__name__"], name))
            return method(*args, **kwargs)
        return call

    for name, method in vars(Coordinator).items():
        if inspect.isfunction(method) and name != "__init__":
            monkeypatch.setattr(Coordinator, name, recorded(name, method))
    for basis in ("alignment", "shapley"):
        config = scenario.parse_config({
            "seed": 3, "rounds": 2, "fairness_interval": 2, "reward_basis": basis,
            "dataset": {"n_clients": 3, "samples_per_client": [10, 20, 30], "dim": 3,
                        "noise": 0.05},
        })
        run_dir = scenario.write_run(scenario.run_scenario(config), tmp_path)
        assert scenario.audit_run(run_dir)["ok"]
    # the ledger only executes calls and snapshots state: the contract alone
    # decides, by its reverts, who may call what
    assert {name for module, name in callers if module == "fedchain.ledger"} == {
        "execute", "state_dict"}
    assert [name for module, name in callers if module == "fedchain.scenario"] == []
