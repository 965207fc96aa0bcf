#!/usr/bin/env python3
"""Reference sweep of tick cost against the agent count, outside the gated
workloads: the ablation flight with comm on, N = 6, 12, 24 and 48, for 1 s
(20 ticks) each. Prints the median tick and its growth over N = 6.

    python3 perfbench/sweep.py [--seed 100] [--seconds 1.0]
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import time

import run  # pins BLAS threads before numpy loads

SIZES = (6, 12, 24, 48)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="simulated flight time per agent count")
    args = parser.parse_args(argv)
    program = run.load_program()
    base = program.config.load_scenario(run.BENCH / "workloads" / "ablation.yaml")
    first = None
    print(f"{'N':>4} {'ticks':>6} {'tick_ms_p50':>12} {'growth':>8}")
    for n in SIZES:
        config = dataclasses.replace(base, n_agents=n, seed=args.seed,
                                     duration=args.seconds)
        sim = program.engine.Simulation(config)
        ticks = []
        for _ in range(int(round(config.duration / config.dt))):
            start = time.perf_counter()
            sim.tick()
            ticks.append(time.perf_counter() - start)
        p50 = 1e3 * statistics.median(ticks)
        first = first or p50
        print(f"{n:4d} {len(ticks):6d} {p50:12.2f} {p50 / first:7.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
