"""The metrics that the columnar `fastflock.metrics` replaced, kept verbatim
as the bit-for-bit reference for its `summarize`, `neighbor_distance_stats`
and `export_plot_data`: they read each agent's fields one at a time from the
records' dicts. Its collision count also reads the log's final record, the
post-advance check that the live run once passed in separately.

`MetricsSummary` itself is unchanged and imported."""

from __future__ import annotations

import math

import numpy as np

from fastflock.metrics import MetricsSummary


def tick_records(records: list[dict]) -> list[dict]:
    return [r for r in records if r.get("record") == "tick"]


def header_record(records: list[dict]) -> dict:
    for r in records:
        if r.get("record") == "header":
            return r
    raise ValueError("log has no header record")


def compute_cvr(
    center: np.ndarray, dt: float, cruise_speed: float, window: float = 1.0
) -> np.ndarray:
    """Ratio of swarm-center speed to the commanded group speed.

    The center velocity comes from centered finite differences over the
    smoothing window (shrunk one-sidedly at the ends of the run).
    """
    n = len(center)
    if n < 2:
        raise ValueError("need at least two trajectory samples")
    half = max(1, int(round(window / (2.0 * dt))))
    out = np.empty(n)
    for k in range(n):
        lo = max(0, k - half)
        hi = min(n - 1, k + half)
        speed = np.linalg.norm(center[hi] - center[lo]) / ((hi - lo) * dt)
        out[k] = speed / cruise_speed
    return out


def neighbor_distance_stats(
    ticks: list[dict],
) -> tuple[float, float, int] | None:
    """Mean/population-std of true distances over every (tick, neighbor-pair)
    sample; the neighbor relation comes from each agent's own selection, the
    distances from ground truth. None when no pair was ever selected.
    Pairs are folded in ascending id order, whatever the key order of the
    records, so a replayed log sums exactly as the live run did."""
    samples = []
    for record in ticks:
        agents = record["agents"]
        pairs = set()
        for aid, fragment in agents.items():
            for nid in fragment["neighbors"]:
                if str(nid) in agents and int(aid) != nid:
                    pairs.add((min(int(aid), nid), max(int(aid), nid)))
        for a, b in sorted(pairs):
            pa = np.asarray(agents[str(a)]["p"])
            pb = np.asarray(agents[str(b)]["p"])
            samples.append(float(np.linalg.norm(pa - pb)))
    if not samples:
        return None
    data = np.array(samples)
    return float(data.mean()), float(data.std()), len(samples)


def summarize(records: list[dict]) -> MetricsSummary:
    """Compute the full metrics summary from log records."""
    header = header_record(records)
    config = header["config"]
    dt = config["dt"]
    cruise = config["gains"]["cruise_speed"]
    ticks = tick_records(records)
    if not ticks:
        raise ValueError("log has no tick records")
    agent_ids = sorted(ticks[0]["agents"], key=int)
    if not agent_ids:
        raise ValueError("tick records hold no agents")

    truth = {
        aid: np.array([r["agents"][aid]["p"] for r in ticks])
        for aid in agent_ids
    }
    center = np.mean([truth[aid] for aid in agent_ids], axis=0)
    cvr = compute_cvr(center, dt, cruise)

    min_pairwise = math.inf
    for i, a in enumerate(agent_ids):
        for b in agent_ids[i + 1:]:
            gaps = np.linalg.norm(truth[a] - truth[b], axis=1)
            min_pairwise = min(min_pairwise, float(gaps.min()))
    if len(agent_ids) == 1:
        min_pairwise = math.inf

    collision_count = sum(len(r["collisions"]) for r in ticks)
    collision_count += sum(len(r["collisions"]) for r in records
                           if r.get("record") == "final")

    nd = neighbor_distance_stats(ticks)

    weight_mean, weight_min = {}, {}
    pos_err_final, vel_errors = {}, []
    full_sq, integral_sq = [], []
    for aid in agent_ids:
        weights = [r["agents"][aid]["vio_w"] for r in ticks]
        weight_mean[aid] = float(np.mean(weights))
        weight_min[aid] = float(np.min(weights))
        est = np.array([r["agents"][aid]["est_p"] for r in ticks])
        est_v = np.array([r["agents"][aid]["est_v"] for r in ticks])
        true_v = np.array([r["agents"][aid]["v"] for r in ticks])
        own = np.array([r["agents"][aid]["own_p"] for r in ticks])
        integral = np.array([r["agents"][aid]["own_int"] for r in ticks])
        pos_err_final[aid] = float(np.linalg.norm(est[-1] - truth[aid][-1]))
        vel_errors.append(np.linalg.norm(est_v - true_v, axis=1))
        full_sq.append(np.sum((own - truth[aid]) ** 2, axis=1))
        integral_sq.append(np.sum((integral - truth[aid]) ** 2, axis=1))

    vel_est_sq = []
    for r in ticks:
        for aid in agent_ids:
            fragment = r["agents"][aid]
            estimates = fragment.get("vel_est")
            if not estimates:
                continue
            for nid, est_v in sorted(estimates.items(), key=lambda e: int(e[0])):
                if nid in r["agents"]:
                    true_v = np.asarray(r["agents"][nid]["v"])
                    vel_est_sq.append(
                        float(np.sum((np.asarray(est_v) - true_v) ** 2))
                    )

    steps = np.diff(center, axis=0)
    trajectory_length = float(np.sum(np.linalg.norm(steps, axis=1)))
    duration = ticks[-1]["t"] - ticks[0]["t"] + dt

    return MetricsSummary(
        cvr_mean=float(cvr.mean()),
        cvr_trace=[float(x) for x in cvr],
        neighbor_distance_mean=nd[0] if nd else None,
        neighbor_distance_std=nd[1] if nd else None,
        min_pairwise_distance=min_pairwise,
        collisions=collision_count,
        vio_weight_mean=weight_mean,
        vio_weight_min=weight_min,
        position_error_final=pos_err_final,
        position_error_mean=float(np.mean(list(pos_err_final.values()))),
        velocity_error_mean=float(np.mean(np.concatenate(vel_errors))),
        trajectory_length=trajectory_length,
        group_velocity=trajectory_length / duration if duration > 0 else 0.0,
        velocity_estimate_rmse=(
            float(math.sqrt(np.mean(vel_est_sq))) if vel_est_sq else None
        ),
        self_loc_rmse_full=float(
            math.sqrt(np.mean(np.concatenate(full_sq)))
        ),
        self_loc_rmse_integral=float(
            math.sqrt(np.mean(np.concatenate(integral_sq)))
        ),
        duration=float(duration),
    )


def export_plot_data(records: list[dict], summary: MetricsSummary,
                     out_dir) -> list[str]:
    """Write delimited text files, one per figure: trajectories, fusion
    weights, velocity estimates, and the group-speed-ratio trace of
    `summary`, the records' summary."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ticks = tick_records(records)
    agent_ids = sorted(ticks[0]["agents"], key=int)
    written = []

    path = out / "trajectories.csv"
    with open(path, "w") as handle:
        cols = ["t"]
        for aid in agent_ids:
            cols += [f"x_{aid}", f"y_{aid}", f"est_x_{aid}", f"est_y_{aid}"]
        cols += ["target_x", "target_y"]
        handle.write(",".join(cols) + "\n")
        for r in ticks:
            row = [repr(r["t"])]
            for aid in agent_ids:
                fragment = r["agents"][aid]
                row += [repr(v) for v in fragment["p"] + fragment["est_p"]]
            row += [repr(v) for v in r["target"]]
            handle.write(",".join(row) + "\n")
    written.append(str(path))

    path = out / "fusion_weights.csv"
    with open(path, "w") as handle:
        cols = ["t"] + [f"w_{aid}" for aid in agent_ids] + [
            f"w_target_{aid}" for aid in agent_ids
        ]
        handle.write(",".join(cols) + "\n")
        for r in ticks:
            row = [repr(r["t"])]
            row += [repr(r["agents"][aid]["vio_w"]) for aid in agent_ids]
            row += [repr(r["agents"][aid]["vio_w_target"]) for aid in agent_ids]
            handle.write(",".join(row) + "\n")
    written.append(str(path))

    path = out / "cvr.csv"
    with open(path, "w") as handle:
        handle.write("t,cvr\n")
        for r, value in zip(ticks, summary.cvr_trace):
            handle.write(f"{r['t']!r},{value!r}\n")
    written.append(str(path))

    if any("vel_est" in r["agents"][aid] for r in ticks for aid in agent_ids):
        path = out / "velocity_estimates.csv"
        with open(path, "w") as handle:
            handle.write(
                "t,observer,agent,est_vx,est_vy,true_vx,true_vy\n"
            )
            for r in ticks:
                for aid in agent_ids:
                    for nid, est in r["agents"][aid].get("vel_est", {}).items():
                        if nid not in r["agents"]:
                            continue
                        true_v = r["agents"][nid]["v"]
                        handle.write(
                            f"{r['t']!r},{aid},{nid},{est[0]!r},{est[1]!r},"
                            f"{true_v[0]!r},{true_v[1]!r}\n"
                        )
        written.append(str(path))
    return written
