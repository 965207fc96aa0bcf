"""Metrics over run logs: group-speed ratio, neighbor-distance statistics
and self-localization errors.

Everything here is a pure function of the log records, so a summary
recomputed from a saved log matches the live run exactly. Each logged field
is read once, as a column over every agent and tick (`column`), and the
metrics are array expressions over those columns. Ground-truth positions are
used for evaluation only, mirroring how the flights were scored against
GNSS. The communication ablation, which flies a scenario twice, is
`fastflock ablate`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .geometry import lengths

# The width, s, of the window over which the swarm center's speed is taken.
CVR_WINDOW_S = 1.0

@dataclass
class MetricsSummary:
    """Run-level metrics.

    cvr is the cluster velocity ratio: swarm-center speed over the commanded
    group speed (0 when hovering, 1 at full commanded speed).
    """

    cvr_mean: float
    cvr_trace: list[float]
    neighbor_distance_mean: float | None
    neighbor_distance_std: float | None
    min_pairwise_distance: float
    collisions: int
    vio_weight_mean: dict[str, float]
    vio_weight_min: dict[str, float]
    position_error_final: dict[str, float]
    position_error_mean: float
    velocity_error_mean: float
    trajectory_length: float
    group_velocity: float
    velocity_estimate_rmse: float | None
    self_loc_rmse_full: float
    self_loc_rmse_integral: float
    duration: float

    def as_dict(self) -> dict:
        return asdict(self)


def tick_records(records: list[dict]) -> list[dict]:
    return [r for r in records if r.get("record") == "tick"]


def header_record(records: list[dict]) -> dict:
    for r in records:
        if r.get("record") == "header":
            return r
    raise ValueError("log has no header record")


def _agent_keys(ticks: list[dict]) -> list[str]:
    """The agents' keys in ascending int id, whatever the key order of the
    records."""
    return sorted(ticks[0]["agents"], key=int)


def _numbers(values, key: str) -> np.ndarray:
    """`values` as a float array. A null, string or boolean is a TypeError:
    a float dtype would turn a null into NaN."""
    array = np.array(values)
    if array.dtype.kind not in "iuf":
        raise TypeError(f"a {key!r} field holds a value that is not a number")
    return array.astype(float, copy=False)


def column(ticks: list[dict], agent_ids: list[str], key: str) -> np.ndarray:
    """The field `key` of every agent at every tick, as an (N, T, ...) array
    whose row i is agent `agent_ids[i]`."""
    return _numbers(
        [[r["agents"][aid][key] for r in ticks] for aid in agent_ids], key)


def compute_cvr(center: np.ndarray, dt: float, cruise_speed: float) -> np.ndarray:
    """Ratio of swarm-center speed to the commanded group speed.

    The center velocity comes from centered finite differences over a
    CVR_WINDOW_S smoothing window (shrunk one-sidedly at the ends of the
    run).
    """
    n = len(center)
    if n < 2:
        raise ValueError("need at least two trajectory samples")
    half = max(1, int(round(CVR_WINDOW_S / (2.0 * dt))))
    k = np.arange(n)
    lo = np.maximum(k - half, 0)
    hi = np.minimum(k + half, n - 1)
    speed = lengths(center[hi] - center[lo]) / ((hi - lo) * dt)
    return speed / cruise_speed


def neighbor_distance_stats(
    ticks: list[dict],
) -> tuple[float, float, int] | None:
    """Mean/population-std of true distances over every (tick, neighbor-pair)
    sample; the neighbor relation comes from each agent's own selection, the
    distances from ground truth. None when no pair was ever selected.
    Pairs are folded in ascending id order, whatever the key order of the
    records, so a replayed log sums exactly as the live run did."""
    ends = []
    for record in ticks:
        agents = record["agents"]
        pairs = set()
        for aid, fragment in agents.items():
            for nid in fragment["neighbors"]:
                if str(nid) in agents and int(aid) != nid:
                    pairs.add((min(int(aid), nid), max(int(aid), nid)))
        for a, b in sorted(pairs):
            ends += agents[str(a)]["p"] + agents[str(b)]["p"]
    if not ends:
        return None
    ends = _numbers(ends, "p").reshape(-1, 2, 2)
    data = lengths(ends[:, 0] - ends[:, 1])
    return float(data.mean()), float(data.std()), len(data)


def _velocity_estimates(ticks: list[dict], agent_ids: list[str]):
    """Every logged velocity estimate of a present agent, as (tick record,
    observer, neighbor id, estimate, the neighbor's true velocity), ordered
    by tick, then observer, then ascending int neighbor id, whatever the
    key order of the records."""
    for r in ticks:
        agents = r["agents"]
        for aid in agent_ids:
            logged = agents[aid].get("vel_est")
            if not logged:
                continue
            for nid, est_v in sorted(logged.items(), key=lambda e: int(e[0])):
                if nid in agents:
                    yield r, aid, nid, est_v, agents[nid]["v"]


def _velocity_estimate_pairs(ticks: list[dict],
                             agent_ids: list[str]) -> np.ndarray:
    """`_velocity_estimates` as a (K, 2, 2) array of (estimate, truth)
    pairs. The values are gathered into one flat list, which numpy converts
    without the transient copies a nested one costs."""
    pairs = []
    for *_, est_v, true_v in _velocity_estimates(ticks, agent_ids):
        pairs += est_v + true_v
    return _numbers(pairs, "vel_est").reshape(-1, 2, 2)


def summarize(records: list[dict]) -> MetricsSummary:
    """Compute the full metrics summary from log records; the collisions are
    the tick records' and, where a log has one, the final record's."""
    header = header_record(records)
    config = header["config"]
    dt = config["dt"]
    cruise = config["gains"]["cruise_speed"]
    ticks = tick_records(records)
    if not ticks:
        raise ValueError("log has no tick records")
    agent_ids = _agent_keys(ticks)
    if not agent_ids:
        raise ValueError("tick records hold no agents")

    truth = column(ticks, agent_ids, "p")
    center = truth.mean(axis=0)
    cvr = compute_cvr(center, dt, cruise)

    # np.linalg.norm along an axis and `lengths` (np.linalg.norm of one
    # vector) round some vectors differently; each metric keeps its own.
    first, second = np.triu_indices(len(agent_ids), k=1)
    gaps = np.linalg.norm(truth[first] - truth[second], axis=-1)
    min_pairwise = float(gaps.min()) if gaps.size else math.inf

    collision_count = sum(len(r["collisions"]) for r in records
                          if r.get("record") in ("tick", "final"))

    nd = neighbor_distance_stats(ticks)

    weights = column(ticks, agent_ids, "vio_w")
    pos_err_final = lengths(
        column(ticks, agent_ids, "est_p")[:, -1] - truth[:, -1])
    vel_errors = np.linalg.norm(
        column(ticks, agent_ids, "est_v") - column(ticks, agent_ids, "v"),
        axis=-1)
    full_sq = np.sum((column(ticks, agent_ids, "own_p") - truth) ** 2, axis=-1)
    integral_sq = np.sum(
        (column(ticks, agent_ids, "own_int") - truth) ** 2, axis=-1)
    vel_est = _velocity_estimate_pairs(ticks, agent_ids)
    vel_est_sq = np.sum((vel_est[:, 0] - vel_est[:, 1]) ** 2, axis=1)

    steps = np.diff(center, axis=0)
    trajectory_length = float(np.sum(np.linalg.norm(steps, axis=1)))
    duration = ticks[-1]["t"] - ticks[0]["t"] + dt

    # A mean over agents and ticks is one sum over the raveled (N, T)
    # column, agent-major.
    return MetricsSummary(
        cvr_mean=float(cvr.mean()),
        cvr_trace=cvr.tolist(),
        neighbor_distance_mean=nd[0] if nd else None,
        neighbor_distance_std=nd[1] if nd else None,
        min_pairwise_distance=min_pairwise,
        collisions=collision_count,
        vio_weight_mean=dict(zip(agent_ids, weights.mean(axis=1).tolist())),
        vio_weight_min=dict(zip(agent_ids, weights.min(axis=1).tolist())),
        position_error_final=dict(zip(agent_ids, pos_err_final.tolist())),
        position_error_mean=float(np.mean(pos_err_final)),
        velocity_error_mean=float(np.mean(vel_errors.ravel())),
        trajectory_length=trajectory_length,
        group_velocity=trajectory_length / duration if duration > 0 else 0.0,
        velocity_estimate_rmse=(
            float(math.sqrt(np.mean(vel_est_sq))) if vel_est_sq.size else None
        ),
        self_loc_rmse_full=float(math.sqrt(np.mean(full_sq.ravel()))),
        self_loc_rmse_integral=float(
            math.sqrt(np.mean(integral_sq.ravel()))),
        duration=float(duration),
    )


def _write_table(path: Path, header: list[str], *columns) -> str:
    """Write `columns`, each (T,) or (T, k), side by side under `header`,
    one line per tick; every value as the repr of a Python float."""
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        for row in np.column_stack(columns).tolist():
            handle.write(",".join(map(repr, row)) + "\n")
    return str(path)


def export_plot_data(records: list[dict], summary: MetricsSummary,
                     out_dir) -> list[str]:
    """Write delimited text files, one per figure: trajectories, fusion
    weights, velocity estimates, and the group-speed-ratio trace of
    `summary`, the records' summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ticks = tick_records(records)
    agent_ids = _agent_keys(ticks)
    t = np.array([r["t"] for r in ticks], dtype=float)

    cols = ["t"]
    for aid in agent_ids:
        cols += [f"x_{aid}", f"y_{aid}", f"est_x_{aid}", f"est_y_{aid}"]
    cols += ["target_x", "target_y"]
    positions = np.concatenate(
        [column(ticks, agent_ids, "p"), column(ticks, agent_ids, "est_p")],
        axis=-1,
    )
    written = [_write_table(
        out / "trajectories.csv", cols, t,
        positions.transpose(1, 0, 2).reshape(len(ticks), -1),
        np.array([r["target"] for r in ticks], dtype=float),
    )]

    cols = ["t"] + [f"w_{aid}" for aid in agent_ids] + [
        f"w_target_{aid}" for aid in agent_ids
    ]
    weights = np.concatenate([column(ticks, agent_ids, "vio_w"),
                              column(ticks, agent_ids, "vio_w_target")])
    written.append(_write_table(out / "fusion_weights.csv", cols, t,
                                weights.T))
    written.append(_write_table(out / "cvr.csv", ["t", "cvr"], t,
                                summary.cvr_trace))

    if any("vel_est" in r["agents"][aid] for r in ticks for aid in agent_ids):
        path = out / "velocity_estimates.csv"
        with open(path, "w") as handle:
            handle.write(
                "t,observer,agent,est_vx,est_vy,true_vx,true_vy\n"
            )
            for r, aid, nid, est, true_v in _velocity_estimates(ticks,
                                                                agent_ids):
                handle.write(f"{r['t']!r},{aid},{nid},{est[0]!r},{est[1]!r},"
                             f"{true_v[0]!r},{true_v[1]!r}\n")
        written.append(str(path))
    return written
