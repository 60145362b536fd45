"""One benchmark process: either the CLI set-up path or one full repetition.

    python worker.py setup ROOT CONFIG
        import fedchain.cli and load_config(CONFIG), then print the machine
        speed factor seen meanwhile: the cost every CLI invocation pays
        before round 1. The caller times the whole process.

    python worker.py rep ROOT CONFIG OUT_DIR TRACE
        parse_config -> run_scenario -> write_run -> audit_run -> gate, then
        print one JSON line with stage timings, the gate verdict and the
        artifact digests. TRACE=1 installs the span tracer first.

ROOT is the checkout whose ``src/fedchain`` is measured. The caller starts
this script in a fresh interpreter with BLAS pinned to one thread; the
script's own directory is first on ``sys.path``, so ``speed`` and ``tracer``
import from it.
"""
from __future__ import annotations

import logging
import sys

# write_run is short next to run_scenario, so each untraced repetition writes
# the run this many times (to separate directories) and keeps the median
# write; a traced repetition writes once, so its spans cover one pass
WRITES = 3


def _import_fedchain(root: str):
    sys.path.insert(0, root + "/src")
    import fedchain.cli  # noqa: F401  (the CLI import path is what set-up measures)

    expected = root + "/src/fedchain/"
    if not fedchain.__file__.startswith(expected):
        raise ImportError(f"fedchain imported from {fedchain.__file__}, not {expected}")
    return fedchain


def setup(root: str, config_path: str) -> dict:
    import time

    from speed import Speedometer

    start = time.perf_counter()
    with Speedometer() as speed:
        fedchain = _import_fedchain(root)
        fedchain.scenario.load_config(config_path)
    spent, factor = speed.scale(start, time.perf_counter())
    return {"spent_s": spent, "factor": factor}


class _RoundClock(logging.Handler):
    """Stamps the runner's ``round %d`` INFO records; nothing is printed.

    Consecutive stamps bound every round but the last, whose end no record marks.
    """

    def __init__(self, clock):
        super().__init__(logging.INFO)
        self.starts: list[float] = []
        self._clock = clock
        logger = logging.getLogger("fedchain")
        logger.setLevel(logging.INFO)
        logger.propagate = False
        logger.handlers = [self]

    def emit(self, record) -> None:
        if record.msg == "round %d":
            self.starts.append(self._clock())


def _positive(decimal: str) -> bool:
    return not decimal.startswith("-") and decimal.strip("0.") != ""


def gate(result, verdict: dict) -> list[str]:
    """Correctness checks on one repetition; returns the failures."""
    failures = []
    if not verdict["ok"]:
        failures.append(f"audit_run not ok: {verdict}")
    pool = result.config.reward_pool_per_round
    phi_positive = {
        rec["round"] for rec in result.attribution
        if rec["phi"] is not None and _positive(rec["phi"])
    }
    for record in result.report["rounds"]:
        if result.config.reward_basis == "shapley":
            positive = record["round"] in phi_positive
        else:
            positive = any(_positive(s) for s in record["scores"].values())
        paid = sum(record["payouts"].values())
        if paid != (pool if positive else 0):
            failures.append(f"round {record['round']}: payouts sum to {paid}, pool {pool}")
    if accepted_share(result) <= 0:
        failures.append("no update was accepted: the workload never aggregates")
    return failures


def accepted_share(result) -> float:
    rounds = result.coordinator.rounds.values()
    submitted = sum(len(state.submissions) for state in rounds)
    return sum(len(state.accepted) for state in rounds) / submitted if submitted else 0.0


def _sha256(path) -> str:
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def rep(root: str, config_path: str, out_dir: str, traced: bool) -> dict:
    import json
    import resource
    import time
    import traceback

    _import_fedchain(root)
    import numpy

    from fedchain import scenario

    from speed import Speedometer

    clock = time.perf_counter
    rounds = _RoundClock(clock)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    speed = Speedometer(on_tick=tracer.pause if tracer is not None else None)

    out: dict = {"completed": [], "gate_failures": [], "error": None,
                 "numpy": numpy.__version__, "wall_s": {}}
    windows = {}
    stage = "run"
    try:
        with open(config_path, encoding="utf-8") as fh:
            config = scenario.parse_config(json.load(fh))
        with speed:
            start = clock()
            result = scenario.run_scenario(config)
            windows[stage] = (start, clock())
            out["completed"].append(stage)

            stage = "write"
            writes = []
            for copy in range(WRITES if tracer is None else 1):
                start = clock()
                run_dir = scenario.write_run(result, f"{out_dir}/{copy}")
                writes.append((start, clock()))
            windows[stage] = sorted(writes, key=lambda w: w[1] - w[0])[len(writes) // 2]
            out["completed"].append(stage)

            stage = "audit"
            start = clock()
            verdict = scenario.audit_run(run_dir)
            windows[stage] = (start, clock())
            out["completed"].append(stage)

        stage = "gate"
        out["gate_failures"] = gate(result, verdict)
        if not out["gate_failures"]:
            out["completed"].append(stage)
    except Exception as err:  # a failed stage is a counted failure, not a crash
        traceback.print_exc()
        out["error"] = f"{stage}: {type(err).__name__}: {err}"
        return out

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # wall_s: the program's own wall time (probe loops taken out);
    # nominal_s: the same scaled to nominal machine speed (speed.py)
    out["wall_s"] = {name: end - start - speed.scale(start, end)[0]
                     for name, (start, end) in windows.items()}
    out["nominal_s"] = {name: speed.normalized(*w) for name, w in windows.items()}
    starts = rounds.starts
    out["round_s"] = [speed.normalized(a, b) for a, b in zip(starts, starts[1:])]
    out["accepted_share"] = accepted_share(result)
    out["size"] = {"rounds": config.rounds, "clients": config.dataset.n_clients,
                   "dim": config.dataset.dim}
    out["digests"] = {"run_id": result.run_id}
    for name in (scenario.LEDGER_FILE, scenario.REPORT_FILE, scenario.ATTRIBUTION_FILE):
        out["digests"][name] = _sha256(run_dir / name)
    if tracer is not None:
        first, last = windows["run"][0], windows["audit"][1]
        out["trace"] = tracer.summary(sum(out["wall_s"].values()), speed.scale(first, last)[1])
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        result = setup(argv[1], argv[2])
    elif argv[:1] == ["rep"] and len(argv) == 5:
        result = rep(argv[1], argv[2], argv[3], argv[4] == "1")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    import json

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
