"""Byte-identity guard: the committed configs replay to recorded artifact digests.

The digests are SHA-256 of every file `fedchain run` writes for
configs/adversary.json and configs/baseline.json. A change that alters any
of these bytes must say so and re-record them on purpose.
"""
import hashlib
from pathlib import Path

import pytest

from fedchain.scenario import load_config, run_scenario, write_run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
}


@pytest.mark.parametrize("config_name", sorted(GOLDEN))
def test_config_replays_to_recorded_bytes(config_name, tmp_path):
    run_id, digests = GOLDEN[config_name]
    run_dir = write_run(run_scenario(load_config(CONFIGS / config_name)), tmp_path)
    assert run_dir.name == run_id
    written = {
        path.relative_to(run_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in run_dir.rglob("*")
        if path.is_file()
    }
    assert written == digests
