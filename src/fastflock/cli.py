"""Command-line front end: run scenarios, paired ablations, metric
recomputation, and config validation.

Exit codes: 0 success, 2 configuration errors and unreadable logs, 3
simulation faults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import metrics as metrics_mod
from .config import ConfigError, load_scenario
from .engine import SimulationFault, run_scenario, read_log


def _load(path: str):
    """The scenario at `path`; an invalid one is reported, error by error,
    and exits with the configuration-error code."""
    try:
        return load_scenario(path)
    except ConfigError as exc:
        print(f"invalid config {path}:", file=sys.stderr)
        for error in exc.errors:
            print(f"  - {error}", file=sys.stderr)
        raise SystemExit(2)


def _at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _fmt(value: float | None, spec: str) -> str:
    """`value` formatted by `spec`, or n/a when a statistic is undefined
    (a single agent has no neighbour distances)."""
    return "n/a" if value is None else format(value, spec)


def _summary_line(summary) -> str:
    return (
        f"cvr={summary.cvr_mean:.3f} "
        f"d_n={_fmt(summary.neighbor_distance_mean, '.2f')} "
        f"sigma_d={_fmt(summary.neighbor_distance_std, '.2f')} "
        f"collisions={summary.collisions} "
        f"min_gap={summary.min_pairwise_distance:.2f} "
        f"v_g={summary.group_velocity:.2f}"
    )


def cmd_run(args) -> int:
    config = _load(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.no_comm:
        config = dataclasses.replace(config, comm=False)
    out_dir = Path(args.out) if args.out else None
    log_path = out_dir / "log.jsonl" if out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        artifacts = run_scenario(config, log_path=log_path)
    except SimulationFault as exc:
        print(f"simulation fault: {exc}", file=sys.stderr)
        return 3
    if out_dir:
        with open(out_dir / "summary.json", "w") as handle:
            json.dump(artifacts.summary.as_dict(), handle, sort_keys=True,
                      indent=2)
        metrics_mod.export_plot_data(artifacts.records, artifacts.summary,
                                     out_dir)
        print(f"artifacts written to {out_dir}")
    print(_summary_line(artifacts.summary))
    return 0


def cmd_ablate(args) -> int:
    """Fly each seed twice, with and without communication."""
    config = _load(args.config)
    rows = []
    for k in range(args.pairs):
        paired = dataclasses.replace(config, seed=config.seed + k)
        try:
            comm, no_comm = (
                run_scenario(dataclasses.replace(paired, comm=flag)).summary
                for flag in (True, False)
            )
        except SimulationFault as exc:
            print(f"simulation fault: {exc}", file=sys.stderr)
            return 3
        rows.append((paired.seed, comm, no_comm))
    print("seed   d_n(comm) sigma(comm)   d_n(no)  sigma(no)   dCVR")
    for seed, comm, no_comm in rows:
        print(
            f"{seed:4d}   {_fmt(comm.neighbor_distance_mean, '.2f'):>9} "
            f"{_fmt(comm.neighbor_distance_std, '.2f'):>11} "
            f"{_fmt(no_comm.neighbor_distance_mean, '.2f'):>9} "
            f"{_fmt(no_comm.neighbor_distance_std, '.2f'):>10} "
            f"{no_comm.cvr_mean - comm.cvr_mean:6.3f}"
        )
    # A pair without neighbour distances (a single agent) is no win.
    sigmas = [(comm.neighbor_distance_std, no_comm.neighbor_distance_std)
              for _, comm, no_comm in rows]
    wins = sum(1 for comm, no in sigmas if None not in (comm, no) and no > comm)
    print(f"sigma_d(no-comm) > sigma_d(comm) in {wins}/{len(rows)} pairs")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = [
            {"seed": seed, "comm": comm.as_dict(), "no_comm": no_comm.as_dict()}
            for seed, comm, no_comm in rows
        ]
        with open(out / "ablation.json", "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
        print(f"ablation data written to {out}")
    return 0


def cmd_metrics(args) -> int:
    try:
        records = read_log(args.log)
        if not all(isinstance(r, dict) for r in records):
            raise ValueError("a record is not a JSON object")
        body = [r for r in records if r.get("record") != "summary"]
        summary = metrics_mod.summarize(body)
    except KeyError as exc:
        print(f"cannot read log {args.log}: no field {exc}", file=sys.stderr)
        return 2
    except (OSError, TypeError, ValueError) as exc:
        # TypeError: a record's fields hold the wrong types.
        print(f"cannot read log {args.log}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary.as_dict(), sort_keys=True, indent=2))
    return 0


def cmd_validate(args) -> int:
    config = _load(args.config)
    print(f"{args.config}: OK ({config.n_agents} agents, "
          f"{config.duration:.0f} s at dt={config.dt})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastflock",
        description="Decentralized fast-flocking simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=_at_least(0), default=None)
    p_run.add_argument("--no-comm", action="store_true",
                       help="disable the communication channel")
    p_run.add_argument("--out", default=None, metavar="DIR",
                       help="write log, summary, and plot data here")
    p_run.set_defaults(func=cmd_run)

    p_ablate = sub.add_parser("ablate", help="paired comm vs no-comm runs")
    p_ablate.add_argument("config")
    p_ablate.add_argument("--pairs", type=_at_least(1), default=4)
    p_ablate.add_argument("--out", default=None, metavar="DIR")
    p_ablate.set_defaults(func=cmd_ablate)

    p_metrics = sub.add_parser("metrics", help="recompute metrics from a log")
    p_metrics.add_argument("log")
    p_metrics.set_defaults(func=cmd_metrics)

    p_validate = sub.add_parser("validate", help="validate a scenario config")
    p_validate.add_argument("config")
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
