"""Re-record digests.json: SHA-256 of ledger.bin, report.json and
attribution.jsonl, and the run id, for every workload on the committed seed,
at full and shortened size.

    python3 perfbench/record_digests.py

The benchmark's gate compares each committed-seed repetition against these
digests. Artifacts must stay byte-identical across performance work, so
re-record only for a change that alters artifact bytes on purpose, and say so.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    recorded = {}
    for name, make in sorted(run.WORKLOADS.items()):
        for doc in (make(run.COMMITTED_SEED), make(run.COMMITTED_SEED, run.SHORT_ROUNDS[name])):
            reps = run.measure(name, doc, seconds=0, trace=False, setup_samples=0)["reps"]
            failed, problems = run.check(reps, None)
            if failed:
                print("\n".join(problems), file=sys.stderr)
                return 1
            recorded[run.workload_label(name, doc)] = reps[0]["digests"]
    run.DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} workloads in {run.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
