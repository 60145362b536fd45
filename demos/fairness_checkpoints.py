"""Periodic fairness checkpoints: cumulative scores are serialized
canonically, stored off-chain under their content hash, anchored on-chain,
and re-verifiable by anyone — flip one byte and the audit fails.

Run: python demos/fairness_checkpoints.py
"""
import tempfile
from pathlib import Path

from fedchain.scenario import BLOBS_DIR, audit, parse_config, run_scenario, write_run

CONFIG = {
    "seed": 5,
    "rounds": 10,
    "fairness_interval": 5,
    "dataset": {
        "n_clients": 4,
        "samples_per_client": [25, 25, 25, 25],
        "dim": 6,
        "noise": 0.05,
        "behaviors": ["honest", "honest", "honest", "freerider"],
    },
}


def print_verdicts(verdicts):
    for verdict in verdicts:
        print(f"  chain: {verdict['chain']}")
        for checkpoint in verdict["checkpoints"]:
            print(f"  checkpoint @ round {checkpoint['round']}: {checkpoint['verdict']}")
        for name, file_verdict in verdict["files"].items():
            print(f"  {name}: {file_verdict}")
        print(f"  => {'OK' if verdict['ok'] else 'FAILED'}")


def main():
    result = run_scenario(parse_config(CONFIG))
    print("checkpoints anchored on-chain:")
    for checkpoint in result.report["checkpoints"]:
        print(f"  round {checkpoint['round']}: cid={checkpoint['cid'][:16]}... "
              f"H={checkpoint['hash'][:16]}...")

    with tempfile.TemporaryDirectory() as tmp:
        run_dir = write_run(result, tmp)
        print(f"\nartifacts written to {Path(run_dir).name}/ — auditing:")
        print_verdicts(audit(run_dir))

        blob = sorted((run_dir / BLOBS_DIR).iterdir())[0]
        data = bytearray(blob.read_bytes())
        data[12] ^= 0x01
        blob.write_bytes(bytes(data))
        print("\nflipped one bit in one stored blob — auditing again:")
        print_verdicts(audit(run_dir))


if __name__ == "__main__":
    main()
