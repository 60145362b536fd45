"""Self-test of the benchmark on shortened workloads.

    python -m pytest perfbench/test_perfbench.py

Each workload runs shortened and traced twice: every count-type per-layer
metric must repeat exactly, every named metric must be emitted, and the
correctness gate must pass on the committed seed (artifact digests checked
against digests.json) and on one other seed.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SHORT_ROUNDS = run.SHORT_ROUNDS
OTHER_SEED = 1


def _measure(name: str, seed: int, trace: bool) -> dict:
    doc = run.WORKLOADS[name](seed, rounds=SHORT_ROUNDS[name])
    result, lines, _ = run.run_benchmark(name, doc, seconds=0, trace=trace, setup_samples=1)
    assert result["correct"], "\n".join(lines)
    return result


@pytest.fixture(scope="module")
def traced_twice():
    return {name: [_measure(name, run.COMMITTED_SEED, True) for _ in range(2)]
            for name in SHORT_ROUNDS}


@pytest.mark.parametrize("name", sorted(SHORT_ROUNDS))
def test_count_metrics_repeat_exactly(traced_twice, name):
    first, second = traced_twice[name]
    counts = [m for m, unit in run.PER_LAYER if unit in ("count", "B")]
    assert counts
    for metric in counts:
        assert first["metrics"][metric] == second["metrics"][metric], metric


@pytest.mark.parametrize("name", sorted(SHORT_ROUNDS))
def test_every_per_layer_metric_is_emitted(traced_twice, name):
    for result in traced_twice[name]:
        assert set(result["metrics"]) == {m for m, _ in run.PER_LAYER}
        assert result["failed"] == 0 and result["attempted"] == 2 * len(run.OPS)


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("seed", [run.COMMITTED_SEED, OTHER_SEED])
@pytest.mark.parametrize("name", sorted(SHORT_ROUNDS))
def test_gate_passes_untraced(name, seed):
    result = _measure(name, seed, False)
    assert set(result["metrics"]) == {m for m, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(SHORT_ROUNDS))
def test_committed_seed_digests_are_recorded(name):
    recorded = json.loads(run.DIGESTS.read_text())
    for rounds in (SHORT_ROUNDS[name], None):
        doc = run.WORKLOADS[name](run.COMMITTED_SEED, **({"rounds": rounds} if rounds else {}))
        assert run.workload_label(name, doc) in recorded


def test_digest_mismatch_fails_the_gate():
    digests = {"run_id": "a", "ledger.bin": "b", "report.json": "c", "attribution.jsonl": "d"}
    rep = {"completed": list(run.OPS), "traced": True, "digests": digests}
    failed, problems = run.check([rep], {**digests, "ledger.bin": "tampered"})
    assert failed == 1 and problems
    assert run.check([rep], dict(digests)) == (0, [])
