"""Command-line entry points: run a scenario, sweep gas costs, audit a run.

Exit codes: 0 success, 1 runtime failure, 2 configuration error, an
``--out`` path that cannot be created or written included. The FEDCHAIN_LOG
environment variable sets log verbosity (DEBUG/INFO/WARNING).
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import scenario
from .errors import ConfigError, SimulationError
from .ledger import gas_csv_text


def _setup_logging() -> None:
    level_name = os.environ.get("FEDCHAIN_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _write(write, *args, **kwargs):
    """``write(*args, **kwargs)``, an ``OSError`` on the output path being a config error."""
    try:
        return write(*args, **kwargs)
    except OSError as err:
        raise ConfigError(f"cannot write --out: {err}") from err


def _cmd_run(args: argparse.Namespace) -> int:
    config = scenario.load_config(args.config)
    _write(Path(args.out).mkdir, parents=True, exist_ok=True)  # fail before the run
    result = scenario.run_scenario(config)
    run_dir = _write(scenario.write_run, result, args.out)
    summary = result.report["summary"]
    print(f"run {result.run_id} complete: {summary['rounds']} rounds, "
          f"{summary['clients']} clients, total payout {summary['total_payout']}")
    print(f"artifacts: {run_dir}")
    return 0


def _cmd_gas_sweep(args: argparse.Namespace) -> int:
    config = scenario.load_config(args.config)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as err:
        raise ConfigError(f"bad --sizes list: {err}") from err
    rows = scenario.gas_sweep(config, sizes)
    csv_text = gas_csv_text(rows)
    if args.out:
        _write(Path(args.out).write_text, csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    verdicts = scenario.audit(args.out)
    for verdict in verdicts:
        status = "ok" if verdict["ok"] else "FAILED"
        print(f"run {verdict['run_id']}: {status} (chain: {verdict['chain']})")
        for checkpoint in verdict["checkpoints"]:
            print(f"  checkpoint round {checkpoint['round']}: {checkpoint['verdict']}")
        for name, file_verdict in verdict["files"].items():
            print(f"  {name}: {file_verdict}")
    return 0 if all(verdict["ok"] for verdict in verdicts) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedchain",
        description="Deterministic simulator of blockchain-coordinated federated learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario end to end")
    p_run.add_argument("--config", required=True, help="scenario JSON path")
    p_run.add_argument("--out", required=True, help="output base directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("gas-sweep", help="compute per-class gas across model sizes")
    p_sweep.add_argument("--config", required=True, help="scenario JSON path")
    p_sweep.add_argument("--sizes", required=True, help="comma-separated parameter counts")
    p_sweep.add_argument("--out", help="also write the CSV here")
    p_sweep.set_defaults(func=_cmd_gas_sweep)

    p_audit = sub.add_parser("audit", help="re-verify checkpoints and chain of a run")
    p_audit.add_argument("--out", required=True, help="run directory (or base directory of runs)")
    p_audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SimulationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failure contract: exit 1
        logging.getLogger("fedchain").exception("unhandled failure")
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
