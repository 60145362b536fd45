"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""
import itertools
import math
import random
import time

import numpy as np
import pytest

from keccak_reference import ABC_DIGEST, EMPTY_DIGEST, keccak256_reference

from fedchain.flclients import make_client_id
from fedchain.incentives import (
    alignment_score,
    consistency_adjusted_reward,
    cumulative_scores,
    shapley_exact,
)
from fedchain.keccak import keccak256
from fedchain.numerics import Fixed, GradientVector, SCALE, sample_weighted_mean
from fedchain.scenario import (
    BLOBS_DIR,
    GAS_FILE,
    REPORT_FILE,
    audit,
    gas_sweep,
    parse_config,
    run_scenario,
    write_run,
)

TABLE_SIZES = [10, 100, 1_000, 10_000, 100_000]
TABLE_REFERENCE = {
    "register": [45_373] * 5,
    "submit": [393_262, 2_403_817, 22_866_722, 229_065_242, 2_447_670_138],
    "aggregate": [499_660, 3_891_311, 37_893_125, 386_438_410, 4_724_606_105],
    "validate": [512_769, 2_153_970, 18_609_485, 187_515_227, 2_311_631_243],
    "distribute": [219_961] * 5,
}

ADVERSARY_DOC = {
    "seed": 11,
    "rounds": 10,
    "fairness_interval": 5,
    "ban_threshold": 3,
    "slash_fraction": "0.5",
    "dataset": {
        "n_clients": 6,
        "samples_per_client": [40] * 6,
        "dim": 8,
        "noise": 0.1,
        "behaviors": ["honest"] * 5 + ["negator"],
    },
}

CONVERGENCE_DOC = {
    "seed": 21,
    "rounds": 20,
    "fairness_interval": 5,
    "dataset": {
        "n_clients": 3,
        "samples_per_client": [30, 30, 30],
        "dim": 6,
        "noise": 0.05,
        "behaviors": ["honest"] * 3,
        "epochs": 5,
        "lr": 0.1,
    },
}


def report_line(number: int, text: str) -> None:
    print(f"\n[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def adversary_run():
    return run_scenario(parse_config(dict(ADVERSARY_DOC)))


def test_criterion_1_gas_table_structure():
    started = time.monotonic()
    rows = gas_sweep(parse_config(dict(ADVERSARY_DOC)), TABLE_SIZES)
    elapsed = time.monotonic() - started

    register_column = [rows[p]["register"] for p in TABLE_SIZES]
    distribute_column = [rows[p]["distribute"] for p in TABLE_SIZES]
    assert register_column == [45_373] * 5, "register column must be constant 45,373"
    assert distribute_column == [219_961] * 5, "distribute column must be constant 219,961"

    worst = 0.0
    for op_class in ("submit", "aggregate", "validate"):
        for size, expected in zip(TABLE_SIZES, TABLE_REFERENCE[op_class]):
            got = rows[size][op_class]
            rel = abs(got - expected) / expected
            worst = max(worst, rel)
            assert rel <= 0.15, f"{op_class}@{size}: {got} vs {expected} ({rel:.1%})"
    assert elapsed < 10.0, f"gas sweep took {elapsed:.1f}s"
    report_line(1, f"gas table reproduced; worst cell error {worst:.1%}, {elapsed:.1f}s")


def test_criterion_2_deployment_cost(adversary_run):
    genesis = adversary_run.ledger_doc["receipts"][0]
    assert len(genesis) == 1
    assert genesis[0]["gas_used"] == 2_371_244
    report_line(2, "genesis receipt records deployment cost 2,371,244 gas")


def test_criterion_3_round_math_matches_double_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_ulps = 0.0
    for _ in range(100):
        clients = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 17))
        counts = [int(rng.integers(1, 40)) for _ in range(clients)]
        vectors = [
            GradientVector.from_floats(rng.uniform(-2, 2, size=dim)) for _ in range(clients)
        ]
        floats = [np.array(v.to_floats()) for v in vectors]
        total = sum(counts)

        # FedAvg aggregate vs double-precision weighted mean (2*dim ulps)
        aggregate = sample_weighted_mean(vectors, counts)
        oracle_aggregate = sum(n * f for n, f in zip(counts, floats)) / total
        diff = np.abs(np.array(aggregate.to_floats()) - oracle_aggregate) * SCALE
        worst_ulps = max(worst_ulps, float(diff.max()))
        assert diff.max() <= 2 * dim

        # alignment scores vs double oracle on the same aggregate (4 ulps)
        aggregate_floats = np.array(aggregate.to_floats())
        scores = []
        for v, f, n in zip(vectors, floats, counts):
            score = alignment_score(v, aggregate, n, total)
            scores.append(score)
            oracle_score = float(f @ aggregate_floats) * n / total
            assert abs(score.raw / SCALE - oracle_score) * SCALE <= 4

        # cumulative scores: split the scores into pseudo-rounds (4 ulps)
        history = {r + 1: {make_client_id(0): s} for r, s in enumerate(scores)}
        cumulative = cumulative_scores(history, len(scores))[make_client_id(0)]
        oracle_cumulative = sum(s.raw / SCALE for s in scores)
        assert abs(cumulative.raw / SCALE - oracle_cumulative) * SCALE <= 4

        # consistency-adjusted rewards vs double oracle (4 ulps)
        alpha = Fixed(int(rng.integers(0, 2 * SCALE)))
        participation = Fixed(int(rng.integers(0, SCALE + 1)))
        for s in scores:
            adjusted = consistency_adjusted_reward(s, alpha, participation)
            oracle_adjusted = (s.raw / SCALE) * (
                1 + (alpha.raw / SCALE) * (participation.raw / SCALE)
            )
            assert abs(adjusted.raw / SCALE - oracle_adjusted) * SCALE <= 4

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.1f}s"
    report_line(3, f"100 random instances match double oracles; worst aggregate "
                   f"error {worst_ulps:.2f} ulps, {elapsed:.1f}s")


def test_criterion_4_shapley_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(4096)
    ids = [make_client_id(i) for i in range(8)]

    def permutation_oracle(players, table):
        totals = {cid: 0 for cid in players}
        for order in itertools.permutations(players):
            prefix = frozenset()
            prev = table[prefix]
            for cid in order:
                prefix = prefix | {cid}
                totals[cid] += table[prefix] - prev
                prev = table[prefix]
        n_fact = math.factorial(len(players))
        return {cid: totals[cid] / n_fact / SCALE for cid in players}

    for game in range(50):
        n = int(rng.integers(2, 9))
        players = ids[:n]
        table = {
            frozenset(combo): int(rng.integers(-(10**9), 10**9))
            for size in range(n + 1)
            for combo in itertools.combinations(players, size)
        }
        table[frozenset()] = 0
        fixed_table = {k: Fixed(v) for k, v in table.items()}
        attribution = shapley_exact(players, fixed_table.__getitem__)
        oracle = permutation_oracle(players, table)
        for cid in players:
            assert abs(attribution[cid].raw / SCALE - oracle[cid]) <= 4 * n / SCALE
        # efficiency axiom
        total = sum(v.raw for v in attribution.values())
        assert abs(total - table[frozenset(players)]) <= 4 * n

    # symmetry axiom: interchangeable players receive equal shares
    for trial in range(10):
        n = int(rng.integers(3, 7))
        players = ids[:n]
        base = {
            frozenset(c): int(rng.integers(0, 10**9))
            for size in range(n - 1)
            for c in itertools.combinations(players[2:], size)
        }

        def symmetric_value(subset, base=base):
            twins = (players[0] in subset) + (players[1] in subset)
            rest = frozenset(cid for cid in subset if cid not in players[:2])
            return Fixed(base.get(rest, 0) + twins * 10**8)

        attribution = shapley_exact(players, symmetric_value)
        assert abs(attribution[players[0]].raw - attribution[players[1]].raw) <= 4 * n

    # dummy axiom: a player with zero marginals everywhere gets zero
    for trial in range(10):
        n = int(rng.integers(2, 7))
        players = ids[:n]
        dummy = players[-1]
        core = {
            frozenset(c): int(rng.integers(-(10**9), 10**9))
            for size in range(n)
            for c in itertools.combinations(players[:-1], size)
        }
        core[frozenset()] = 0

        def dummy_value(subset, core=core):
            return Fixed(core[frozenset(cid for cid in subset if cid != dummy)])

        attribution = shapley_exact(players, dummy_value)
        assert abs(attribution[dummy].raw) <= 4 * n

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"shapley comparison took {elapsed:.1f}s"
    report_line(4, f"50 games match the permutation oracle; axioms hold, {elapsed:.1f}s")


def test_criterion_5_keccak_conformance():
    assert keccak256(b"").hex() == EMPTY_DIGEST
    assert keccak256(b"abc").hex() == ABC_DIGEST
    assert keccak256_reference(b"").hex() == EMPTY_DIGEST
    assert keccak256_reference(b"abc").hex() == ABC_DIGEST
    rng = random.Random(555)
    for _ in range(100):
        data = rng.randbytes(rng.randrange(0, 1025))
        assert keccak256(data) == keccak256_reference(data)
    report_line(5, "keccak-256 matches the reference oracle on known vectors "
                   "and 100 random inputs")


def test_criterion_6_checkpoint_integrity(adversary_run, tmp_path):
    run_dir = write_run(adversary_run, tmp_path)
    verdicts = audit(run_dir)
    assert verdicts[0]["ok"]
    checkpoints = verdicts[0]["checkpoints"]
    assert [c["round"] for c in checkpoints] == [5, 10]
    assert all(c["verdict"] == "ok" for c in checkpoints)

    blob_path = sorted((run_dir / BLOBS_DIR).iterdir())[0]
    tampered = bytearray(blob_path.read_bytes())
    tampered[7] ^= 0x20
    blob_path.write_bytes(bytes(tampered))
    verdicts = audit(run_dir)
    assert not verdicts[0]["ok"]
    assert any(c["verdict"] != "ok" for c in verdicts[0]["checkpoints"])
    report_line(6, "checkpoints verify end to end; single-byte blob tamper detected")


def test_criterion_7_adversary_economics(adversary_run):
    negator = make_client_id(5)
    record = adversary_run.coordinator.clients[negator]
    rounds = adversary_run.report["rounds"]
    ban_rounds = [rec["round"] for rec in rounds for _ in rec["banned"]]
    assert record.banned
    assert ban_rounds and ban_rounds[0] <= 4
    assert record.stake == 50  # half of the 100-token stake slashed

    totals: dict[str, int] = {}
    for rec in rounds:
        for cid_hex, amount in rec["payouts"].items():
            totals[cid_hex] = totals.get(cid_hex, 0) + amount
    assert totals.get("0x" + negator.hex(), 0) == 0
    for i in range(5):
        assert totals.get("0x" + make_client_id(i).hex(), 0) > 0
    cumulative = adversary_run.report["final_cumulative"]["0x" + negator.hex()]
    assert cumulative.startswith("-"), "negator cumulative score must be negative"
    report_line(7, f"negator banned in round {ban_rounds[0]}, slashed to "
                   f"{record.stake}, cumulative {cumulative}, paid 0; all honest clients paid")


def test_criterion_8_convergence():
    result = run_scenario(parse_config(dict(CONVERGENCE_DOC)))
    w_star = result.true_weights
    initial = float(np.linalg.norm(np.array(result.model_history[0].to_floats()) - w_star))
    final = float(np.linalg.norm(np.array(result.model_history[-1].to_floats()) - w_star))
    assert final <= 0.5 * initial, f"distance went {initial:.4f} -> {final:.4f}"
    report_line(8, f"model distance shrank {initial:.4f} -> {final:.4f} "
                   f"({final / initial:.1%}) over 20 rounds")


def test_criterion_9_determinism(tmp_path):
    config = parse_config(dict(ADVERSARY_DOC))
    first = run_scenario(config)
    second = run_scenario(config)
    dir_a = write_run(first, tmp_path / "a")
    dir_b = write_run(second, tmp_path / "b")
    assert (dir_a / REPORT_FILE).read_bytes() == (dir_b / REPORT_FILE).read_bytes()
    assert (dir_a / GAS_FILE).read_bytes() == (dir_b / GAS_FILE).read_bytes()
    hashes_a = [b["hash"] for b in first.ledger_doc["blocks"]]
    hashes_b = [b["hash"] for b in second.ledger_doc["blocks"]]
    assert hashes_a == hashes_b
    report_line(9, f"two executions produced identical artifacts and "
                   f"{len(hashes_a)} identical block hashes")


def test_criterion_10_conservation(adversary_run):
    runs = [adversary_run, run_scenario(parse_config(dict(CONVERGENCE_DOC)))]
    for result in runs:
        pool = result.config.reward_pool_per_round
        total = 0
        for record in result.report["rounds"]:
            paid = sum(record["payouts"].values())
            total += paid
            any_positive = any(
                not s.startswith("-") and s != "0" for s in record["scores"].values()
            )
            assert paid <= pool
            if any_positive:
                assert paid == pool, f"round {record['round']} paid {paid} != pool {pool}"
        assert total <= result.config.rounds * pool
    report_line(10, "payouts conserve the pool exactly in every scored round")
