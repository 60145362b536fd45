"""Every call the benchmark's tracer wraps still exists in the package, in the
form the tracer wraps it: a deletion or rename in ``src/`` that would break a
traced benchmark run fails here first. ``perfbench/tracer.py`` is read, not
installed."""
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer()._targets()


def _resolves(owner, attr: str, kind: str) -> bool:
    """Whether ``Tracer.install`` can wrap ``owner.attr`` as ``kind``: a
    method or classmethod must be defined on the class itself, since the
    tracer reads it from the class's ``__dict__``."""
    if kind == "function":
        return inspect.isfunction(getattr(owner, attr, None))
    if kind == "method":
        return inspect.isfunction(vars(owner).get(attr))
    if kind == "classmethod":
        return isinstance(vars(owner).get(attr), classmethod)
    raise AssertionError(f"unknown target kind {kind!r}")


def test_targets_found():
    assert len(TARGETS) >= 20


@pytest.mark.parametrize("name, owner, attr, kind", [t[:4] for t in TARGETS],
                         ids=[t[0] for t in TARGETS])
def test_target_resolves_to_its_kind(name, owner, attr, kind):
    assert _resolves(owner, attr, kind), f"{name}: {owner.__name__}.{attr} is no {kind}"
