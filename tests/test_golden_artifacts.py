"""Byte-identity guard: the committed configs replay to recorded artifact digests.

The digests are SHA-256 of every file `fedchain run` writes for
configs/adversary.json, configs/baseline.json and the inline VECTOR_PATHS
scenario. A change that alters any of these bytes must say so and re-record
them on purpose.
"""
import hashlib
from pathlib import Path

import pytest

from fedchain.scenario import load_config, parse_config, run_scenario, write_run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The vector paths the committed configs miss: dim > batch_size (three
# submit batches per update), a scaler rejected by the norm bound in every
# round, a negator banned after three rounds, a freerider's zero vector, and
# Shapley-based payouts.
VECTOR_PATHS = {
    "seed": 5,
    "rounds": 6,
    "fairness_interval": 3,
    "batch_size": 5,
    "reward_basis": "shapley",
    "dataset": {
        "n_clients": 5,
        "samples_per_client": [30, 40, 50, 30, 40],
        "dim": 12,
        "noise": 0.1,
        "behaviors": ["honest", "honest", {"kind": "scaler", "c": 50}, "negator", "freerider"],
    },
}

GOLDEN = {
    "adversary.json": ("6b3fabba4b9f", {
        "attribution.jsonl": "c6d8512d1fe0e8f19454914719deff43d7355a0399fbd6f28bbd8aef14719a1e",
        "blobs/0a5a03b82f2a21db7370361be88fecbb94b39c249df424d0d4a1165848753878":
            "c13714bdcf4d23bc750fbf92c75820d5e0fa11a9587259dca01b7c1775cced4d",
        "blobs/126ae13554d59d106fb61f23399e5f3a8f0a08ce554c134288489031c8574b8a":
            "a5004f8ba59e1485f6c7779d2095f2a808e1b193c152de74b4ae95de350aa2e1",
        "gas.csv": "75201e8b1fc5c733f73951a5120a1463625ec2b9a5ce235cbee411ae7250e33b",
        "ledger.bin": "69431c73cc91466203857db4d129d02e2d3bc9fe7ea78cf4bc6488e4ea516166",
        "report.json": "bf1c2bf6f633381ce9fd16a67eb62462f7d528a11c4113a1c8b7848f5fde246a",
        "rewards.csv": "f5584cd85a68059fdcec992fa218373b971b25f82c1be8cd6dfdc2245cff6eba",
    }),
    "baseline.json": ("0bebba75fc8d", {
        "attribution.jsonl": "26ca75e5812912b7e0328434cbe2a445e0a1d97a498470693a6ecb3ba09450ef",
        "blobs/0a340b6be508094b67a48bb6af1f68f72106a008e29bb3399714821da9712a8c":
            "2ac8036bce2f5d8fd8aa9c78d0db185798b7f84e7b88874857d0076d05e269cb",
        "blobs/191171f3b31b40df2680db2e8396e4bf506b2a0ab18a25c066360a3607382d9d":
            "b7473c46e9ab871b54b03e2d18a5b1d9ac1266c1addc3cc8e4da70ba08cfd14f",
        "blobs/631c43f8a5765e336d87d1d798d50509549901e7dc1c0f46a990f05e7bbaf830":
            "6d8ae3d01b465e5947dca3a85bc8b7f0737f129102e7721fa9fe698e4004e542",
        "blobs/7b64b46b6e79a401fa738b9d6824beda2b910c1884fd9e840a2d12d1f3d64132":
            "38dc1fae18c2292b9b406e71853c9542bb8ac3749d08d73cd4ca9ea1be901cac",
        "gas.csv": "6f4feb39e6e7cc526feb9ed7286fdef5f77b0e040a6c2e6c9959605296c2df4c",
        "ledger.bin": "8ad2df47b6e23d0d4456b206c5f2aac9efd6246c078c7a63feecab5a346a3497",
        "report.json": "638706ef1fab529fa1f38162afb97bcb9b74944ac1ad466b228fa269330e4548",
        "rewards.csv": "f8ce2df6b2a0e8ed11d866096d2d78e63fab4a6bbf397029d686bc375b132b3e",
    }),
    "vector_paths": ("93df5a900f02", {
        "attribution.jsonl": "b6c2b872d19227e849220d8b82a724c38f45421bd057c357b831feb7b91e2d51",
        "blobs/a8372c63e6539cf1a84b9c87ad99b290f4f62a6f5a022874439d5087e34c0eea":
            "c9d8a8f1ed61009b5c3d5c998ed137ab105be37d4b1eae7d6c835a2a54e65c94",
        "blobs/df632967ef69e83e5f37738dddcbb8586c5038f416cacd88f28e6ca5b1f3fe52":
            "595512917b3c3bb65592c75fffd7beb20ceb614fe94edac6aff6c1f84eecea19",
        "gas.csv": "805d798b38a94a7143143530e59aa8961f22ba80a92283e95f8ac0ace505a8fe",
        "ledger.bin": "4f9d1084059bb9fb1c784ac1d9f1b52ec7a3ce3784783625a64b8a458963cf86",
        "report.json": "a50f1cf62b7c0f05d52fef246b07a55fa58357f757999ad0bda3a731b0e77b7c",
        "rewards.csv": "a77b5696fbec9920eb228a53e499b767479e4cacd586c106c971382c200ec8f8",
    }),
}


def _config(name):
    return parse_config(VECTOR_PATHS) if name == "vector_paths" else load_config(CONFIGS / name)


@pytest.mark.parametrize("config_name", sorted(GOLDEN))
def test_config_replays_to_recorded_bytes(config_name, tmp_path):
    run_id, digests = GOLDEN[config_name]
    run_dir = write_run(run_scenario(_config(config_name)), tmp_path)
    assert run_dir.name == run_id
    written = {
        path.relative_to(run_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in run_dir.rglob("*")
        if path.is_file()
    }
    assert written == digests
