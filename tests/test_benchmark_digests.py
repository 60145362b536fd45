"""Byte-identity guard for the benchmark workloads: every entry recorded in
``perfbench/digests.json`` (each workload at the committed seed, full and
shortened) replays to its recorded run id and SHA-256 of ``ledger.bin``,
``report.json`` and ``attribution.jsonl``. The workloads come from
``perfbench/run.py``, which is read, not installed; no perfbench file is
written."""
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from fedchain.scenario import (
    ATTRIBUTION_FILE,
    LEDGER_FILE,
    REPORT_FILE,
    parse_config,
    run_scenario,
    write_run,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _load_bench()
RECORDED = json.loads(BENCH.DIGESTS.read_text())


def _workload(label: str) -> dict:
    """The config a label names: ``NAME:seed=N:rounds=M``."""
    name, seed, rounds = label.split(":")
    doc = BENCH.WORKLOADS[name](int(seed.removeprefix("seed=")),
                                rounds=int(rounds.removeprefix("rounds=")))
    assert BENCH.workload_label(name, doc) == label
    return doc


def test_every_workload_is_recorded_full_and_short():
    assert len(RECORDED) == 2 * len(BENCH.WORKLOADS)


@pytest.mark.parametrize("label", sorted(RECORDED))
def test_workload_replays_to_recorded_digests(label, tmp_path):
    result = run_scenario(parse_config(_workload(label)))
    run_dir = write_run(result, tmp_path)
    digests = {"run_id": result.run_id}
    for name in (LEDGER_FILE, REPORT_FILE, ATTRIBUTION_FILE):
        digests[name] = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    assert digests == RECORDED[label]
