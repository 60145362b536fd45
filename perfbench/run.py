"""fedchain benchmark: closed-loop repetitions of one workload, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Each repetition is a fresh interpreter (``worker.py rep``) that runs
parse_config -> run_scenario -> write_run -> audit_run and a correctness gate.
Set-up time is a fresh interpreter that imports ``fedchain.cli`` and loads
the workload's config (``worker.py setup``), timed several times per run.
Repetitions start while the next one is expected to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced repetition and reports the per-layer metrics. The last
line of standard output is the JSON result; the lines before it name every
metric with its unit and sample count. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"

COMMITTED_SEED = 0
SETUP_SAMPLES = 7
HARD_LIMIT_S = 170.0  # a run must end well inside 180 s even if a repetition hangs
OPS = ("run", "write", "audit", "gate")


def shapley_cohort(seed: int, rounds: int = 4) -> dict:
    # 12 clients is SHAPLEY_MAX_CLIENTS: exact Shapley enumerates 4 095
    # coalitions twice per round (payout basis and attribution log).
    return {
        "seed": seed, "rounds": rounds, "fairness_interval": 2, "reward_basis": "shapley",
        "dataset": {
            "n_clients": 12, "samples_per_client": [40] * 12, "dim": 16, "noise": 0.1,
            "behaviors": ["honest"] * 10 + ["negator", "freerider"],
        },
    }


def wide_model(seed: int, rounds: int = 4) -> dict:
    # lr 0.001: at the default 0.1 training diverges at dim 10 000 and every
    # update is rejected_norm, which would bypass aggregation entirely.
    return {
        "seed": seed, "rounds": rounds, "fairness_interval": 2, "tau": "100",
        "batch_size": 2500,
        "dataset": {
            "n_clients": 4, "samples_per_client": [50] * 4, "dim": 10_000, "noise": 0.1,
            "lr": 0.001,
            "behaviors": ["honest", "honest", "negator", {"kind": "scaler", "c": 100}],
        },
    }


def long_chain(seed: int, rounds: int = 80) -> dict:
    # every seal re-commits all past rounds, so per-round cost grows with
    # chain length; this is the only workload where it does. 400 samples per
    # client (more than dim) and lr 0.002 keep honest updates aligned for all
    # 80 rounds, so on every seed only the negator is banned and nothing is
    # rejected; with 40 samples and lr 0.1, bans and rejections varied by seed
    # and changed the work by up to half.
    return {
        "seed": seed, "rounds": rounds, "fairness_interval": 5,
        "dataset": {
            "n_clients": 4, "samples_per_client": [400] * 4, "dim": 200, "noise": 0.1,
            "lr": 0.002,
            "behaviors": ["honest", "honest", "negator", {"kind": "dropout", "q": 0.7}],
        },
    }


WORKLOADS = {"shapley_cohort": shapley_cohort, "wide_model": wide_model, "long_chain": long_chain}
# shortened sizes for the self-test; their digests are recorded too
SHORT_ROUNDS = {"shapley_cohort": 2, "wide_model": 2, "long_chain": 10}

# (name, unit): every end-to-end metric, measured untraced
END_TO_END = [
    ("setup_s", "s"), ("run_s", "s"), ("round_p50_ms", "ms"), ("round_p90_ms", "ms"),
    ("write_s", "s"), ("audit_s", "s"), ("peak_rss_mb", "MB"),
]

# (name, unit): every per-layer metric, from the traced repetitions
PER_LAYER = [
    ("flclients.local_train.calls", "count"), ("flclients.local_train.self_s", "s"),
    ("flclients.generate.self_s", "s"),
    ("numerics.quantize.components", "count"), ("numerics.quantize.self_s", "s"),
    ("numerics.decode.components", "count"), ("numerics.decode.self_s", "s"),
    ("numerics.fedavg.calls", "count"), ("numerics.fedavg.self_s", "s"),
    ("numerics.dot.calls", "count"), ("numerics.dot.self_s", "s"),
    ("keccak.calls", "count"), ("keccak.bytes", "B"), ("keccak.self_s", "s"),
    ("offchain.vector_commit.calls", "count"), ("offchain.vector_commit.bytes", "B"),
    ("offchain.vector_commit.self_s", "s"),
    ("offchain.canonical_json.calls", "count"), ("offchain.canonical_json.bytes", "B"),
    ("offchain.canonical_json.self_s", "s"), ("offchain.publish_checkpoint.self_s", "s"),
    ("ledger.submit_tx.calls", "count"), ("ledger.submit_tx.self_s", "s"),
    ("ledger.tx_hash.calls", "count"), ("ledger.tx_hash.self_s", "s"),
    ("ledger.seal_block.calls", "count"), ("ledger.seal_block.self_s", "s"),
    ("ledger.state_root.self_s", "s"), ("ledger.state_root.bytes", "B"),
    ("ledger.state_root.last_bytes", "B"),
    ("coordinator.execute.calls", "count"), ("coordinator.execute.self_s", "s"),
    ("coordinator.state_dict.self_s", "s"), ("coordinator.accepted_share", "ratio"),
    ("incentives.shapley.calls", "count"), ("incentives.shapley.self_s", "s"),
    ("incentives.coalition_evals", "count"),
    ("incentives.cumulative_scores.calls", "count"), ("incentives.cumulative_scores.self_s", "s"),
    ("scenario.scores_from_ledger.calls", "count"), ("scenario.scores_from_ledger.self_s", "s"),
    ("scenario.ledger_document.self_s", "s"), ("scenario.build_report.self_s", "s"),
    ("scenario.write_run.self_s", "s"), ("scenario.audit_run.self_s", "s"),
    ("scenario.ledger_bytes", "B"), ("scenario.other_s", "s"),
    ("trace.overhead_s", "s"),
]


def workload_label(name: str, doc: dict) -> str:
    return f"{name}:seed={doc['seed']}:rounds={doc['rounds']}"


def child_env() -> dict:
    """Environment of every worker: BLAS on one thread, fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update({
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    })
    return env


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


class Runner:
    """Starts workers one at a time and waits for each to end."""

    def __init__(self, work: Path, deadline: float, hard_deadline: float):
        self.work = work
        self.deadline = deadline
        self.hard_deadline = hard_deadline
        self.env = child_env()
        self.config = work / "config.json"

    def _call(self, args: list[str]) -> subprocess.CompletedProcess:
        timeout = max(1.0, self.hard_deadline - time.perf_counter())
        return subprocess.run(
            [sys.executable, str(WORKER), *args], env=self.env, cwd=str(ROOT),
            capture_output=True, text=True, timeout=timeout,
        )

    def setup(self) -> tuple[float, float]:
        """Wall seconds of one set-up process, and the same at nominal speed
        (scaled by the speed the process saw, minus its reference loops)."""
        start = time.perf_counter()
        done = self._call(["setup", str(ROOT), str(self.config)])
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()[-2000:]}")
        seen = json.loads(done.stdout.strip().splitlines()[-1])
        return elapsed, (elapsed - seen["spent_s"]) * seen["factor"]

    def rep(self, index: int, traced: bool) -> dict:
        out_dir = self.work / f"rep{index}"
        try:
            done = self._call(["rep", str(ROOT), str(self.config), str(out_dir),
                               "1" if traced else "0"])
        except subprocess.TimeoutExpired:
            return {"completed": [], "error": "repetition timed out", "traced": traced,
                    "timed_out": True}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            return {"completed": [], "traced": traced,
                    "error": f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}"}
        result = json.loads(lines[-1])
        result["traced"] = traced
        if result.get("error"):
            result["error"] += "\n" + done.stderr.strip()[-2000:]
        return result


def measure(name: str, doc: dict, seconds: float, trace: bool,
            setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload for about ``seconds``; return samples and verdicts."""
    start = time.perf_counter()
    work = HERE / "_work" / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, start + seconds, start + HARD_LIMIT_S)
        runner.config.write_text(json.dumps(doc, sort_keys=True, indent=2))
        runner.setup()  # warm-up: byte-compiles the package once
        setups = [runner.setup() for _ in range(setup_samples)]
        reps: list[dict] = []
        durations: list[float] = []
        while True:
            began = time.perf_counter()
            for traced in ((False, True) if trace else (False,)):
                reps.append(runner.rep(len(reps), traced))
            durations.append(time.perf_counter() - began)
            if reps[-1].get("timed_out"):
                break
            if time.perf_counter() + statistics.median(durations) > runner.deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return {"setup_s": [nominal for _, nominal in setups],
            "setup_wall_s": [wall for wall, _ in setups], "reps": reps}


def check(reps: list[dict], expected: dict | None) -> tuple[int, list[str]]:
    """Failed operations over all repetitions, and what failed."""
    failed = 0
    problems = []
    reference = expected
    for index, rep in enumerate(reps):
        completed = list(rep.get("completed", []))
        if rep.get("error"):
            problems.append(f"rep {index}: {rep['error']}")
        for failure in rep.get("gate_failures", []):
            problems.append(f"rep {index} gate: {failure}")
        digests = rep.get("digests")
        if digests is not None:
            if reference is None:
                reference = digests
            elif digests != reference:
                problems.append(f"rep {index} ({'traced' if rep['traced'] else 'untraced'}):"
                                f" artifact digests {digests} differ from {reference}")
                if "gate" in completed:
                    completed.remove("gate")
        failed += len(OPS) - len(completed)
    return failed, problems


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method; the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(samples: dict) -> dict:
    """(value, sample count) per metric; times are at nominal speed (speed.py)."""
    reps = [r for r in samples["reps"] if not r["traced"] and len(r["completed"]) == len(OPS)]
    rounds = [s * 1000 for r in reps for s in r["round_s"]]
    if not reps or not rounds:
        return {}

    def median_of(stage: str) -> tuple[float, int]:
        return statistics.median(r["nominal_s"][stage] for r in reps), len(reps)

    return {
        "setup_s": (statistics.median(samples["setup_s"]), len(samples["setup_s"])),
        "run_s": median_of("run"),
        "round_p50_ms": (_quantile(rounds, 50), len(rounds)),
        "round_p90_ms": (_quantile(rounds, 90), len(rounds)),
        "write_s": median_of("write"),
        "audit_s": median_of("audit"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), len(reps)),
    }


def wall_medians(samples: dict) -> dict:
    """Median unscaled wall seconds per stage of the untraced repetitions."""
    reps = [r for r in samples["reps"] if not r["traced"] and len(r["completed"]) == len(OPS)]
    out = {"setup": statistics.median(samples["setup_wall_s"])} if samples["setup_wall_s"] else {}
    for stage in ("run", "write", "audit"):
        if reps:
            out[stage] = statistics.median(r["wall_s"][stage] for r in reps)
    return out


def _layer_value(rep: dict, name: str) -> float:
    trace = rep["trace"]
    if name == "coordinator.accepted_share":
        return rep["accepted_share"]
    if name == "incentives.coalition_evals":
        return trace["spans"].get("incentives.coalition_value", {}).get("calls", 0)
    if name == "scenario.other_s":
        return trace["other_s"]
    span, _, field = name.rpartition(".")
    if field in ("calls", "self_s"):
        return trace["spans"].get(span, {}).get(field, 0)
    return trace["counts"].get(name, 0)


def per_layer(samples: dict) -> tuple[dict, list[str]]:
    ok = [r for r in samples["reps"] if len(r["completed"]) == len(OPS)]
    traced = [r for r in ok if r["traced"]]
    untraced = [r for r in ok if not r["traced"]]
    values, problems = {}, []
    if not traced or not untraced:
        return values, ["no complete traced and untraced repetition pair"]
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            overhead = (statistics.median(r["nominal_s"]["run"] for r in traced)
                        - statistics.median(r["nominal_s"]["run"] for r in untraced))
            values[name] = (overhead, len(traced))
            continue
        seen = [_layer_value(r, name) for r in traced]
        if unit in ("count", "B"):
            if len(set(seen)) != 1:
                problems.append(f"{name} differs between traced repetitions: {seen}")
            values[name] = (seen[0], len(seen))
        else:
            values[name] = (statistics.median(seen), len(seen))
    return values, problems


def self_time_shares(samples: dict) -> list[tuple[str, float]]:
    """Share of each span's self time (and of time in no span) in the traced window."""
    totals: dict[str, float] = {}
    window = 0.0
    for rep in samples["reps"]:
        if rep["traced"] and len(rep["completed"]) == len(OPS):
            window += rep["trace"]["other_s"] + sum(
                entry["self_s"] for entry in rep["trace"]["spans"].values())
            for span, entry in rep["trace"]["spans"].items():
                totals[span] = totals.get(span, 0.0) + entry["self_s"]
            totals["(no span)"] = totals.get("(no span)", 0.0) + rep["trace"]["other_s"]
    if not window:
        return []
    return sorted(((k, v / window) for k, v in totals.items()), key=lambda kv: -kv[1])


def run_benchmark(name: str, doc: dict, seconds: float, trace: bool,
                  setup_samples: int = SETUP_SAMPLES) -> tuple[dict, list[str], dict]:
    """Measure one workload; returns the result object, report lines and samples."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    label = workload_label(name, doc)
    samples = measure(name, doc, seconds, trace, setup_samples)
    reps = samples["reps"]
    failed, problems = check(reps, recorded.get(label))
    attempted = len(OPS) * len(reps)
    if trace:
        metrics, more = per_layer(samples)
        problems += more
        spec = PER_LAYER
    else:
        metrics = end_to_end(samples)
        spec = END_TO_END

    first = next((r for r in reps if "size" in r), {})
    size = first.get("size", {})
    lines = [
        f"workload {name} seed {doc['seed']}: {size.get('rounds')} rounds, "
        f"{size.get('clients')} clients, dim {size.get('dim')}; closed loop, one caller, "
        f"{len(reps)} repetitions{' (untraced/traced pairs)' if trace else ''}",
        f"env machine={platform.machine()} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={first.get('numpy')} commit={commit_id()}",
        f"digests {label} {'checked against digests.json' if label in recorded else 'compared across repetitions'}: "
        f"{json.dumps(first.get('digests'), sort_keys=True)}",
    ]
    for metric, unit in spec:
        if metric in metrics:
            value, count = metrics[metric]
            lines.append(f"{metric:38s} {value:14.6f} {unit:6s} n={count}")
    if not trace and "run_s" in metrics:
        lines.append(f"{'throughput':38s} {size['rounds'] / metrics['run_s'][0]:14.6f} "
                     f"rounds/s at {size['clients']} clients x dim {size['dim']}")
        walls = wall_medians(samples)
        lines.append("unscaled wall medians (s): "
                     + " ".join(f"{stage}={value:.6f}" for stage, value in walls.items()))
    lines.append(f"{'error_rate':38s} {failed / attempted if attempted else 1.0:14.6f} "
                 f"ratio  ({failed} failed of {attempted} operations)")
    if trace:
        lines.append("self-time shares of the traced window:")
        lines += [f"  {span:36s} {share:8.2%}" for span, share in self_time_shares(samples)]
    lines += [f"FAILED: {p}" for p in problems]

    result = {
        "correct": not problems and failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m][0], "unit": u} for m, u in spec if m in metrics},
    }
    return result, lines, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result, samples and environment here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedchain" / "__init__.py").is_file():
        print(f"no fedchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    doc = WORKLOADS[args.workload](args.seed)
    result, lines, samples = run_benchmark(args.workload, doc, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    if args.out:
        Path(args.out).write_text(json.dumps({"config": doc, "report": lines, **result,
                                              "samples": samples},
                                             indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
