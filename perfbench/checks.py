"""Output checks on a flight log, computed apart from the program.

Everything here reads the log's ground truth with the benchmark's own numpy
and never calls into `fastflock`: the kinematics of the plant, a recount of
the summary fields the benchmark reports, and properties the method must
have. `check_flight` returns a list of failures; an empty list means the
flight passed.
"""

from __future__ import annotations

import math

import numpy as np

# Recomputed summary fields must agree with the program's to this relative
# tolerance: summation order differs, the arithmetic does not.
REL_TOL = 1e-9
# Position integration p[k+1] = p[k] + v[k+1] dt, in metres.
POS_TOL = 1e-9
# The mean neighbour distance must lie within this share of gains.spacing.
SPACING_BAND = 0.2
# The centroid must close this share of the distance it could cover:
# the initial distance to the target, or cruise_speed * duration when the
# flight is too short to arrive.
PROGRESS_SHARE = 0.7
# engine.write_log sorts keys, so agent ids of two digits read back in string
# order ("10" before "2") and metrics.summarize then sums in another order:
# from 11 agents on, the replayed summary differs from the live one in the
# last digits. Replay is held to exact equality below that, and to REL_TOL
# from there on.
EXACT_REPLAY_MAX_AGENTS = 10


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _differing(live: dict, replayed: dict, exact: bool) -> list[str]:
    """Keys whose values differ: exactly, or beyond REL_TOL for numbers."""

    def same(a, b):
        if exact or isinstance(a, (bool, str)) or a is None or b is None:
            return a == b
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
        if isinstance(a, list):
            return len(a) == len(b) and all(map(same, a, b))
        return _close(a, b)

    return sorted(k for k in live if k not in replayed or not same(live[k], replayed[k]))


class FlightLog:
    """Arrays over a log's tick records: `p`, `v`, `own`, `own_int` are
    (ticks, agents, 2), agents in ascending id order."""

    def __init__(self, records: list[dict]):
        headers = [r for r in records if r.get("record") == "header"]
        summaries = [r for r in records if r.get("record") == "summary"]
        self.ticks = [r for r in records if r.get("record") == "tick"]
        if len(headers) != 1 or len(summaries) != 1 or not self.ticks:
            raise ValueError("log needs one header, tick records, one summary")
        self.config = headers[0]["config"]
        self.summary = {k: v for k, v in summaries[0].items() if k != "record"}
        self.ids = sorted(self.ticks[0]["agents"], key=int)
        self.index = {int(aid): i for i, aid in enumerate(self.ids)}

        def field(name):
            return np.array(
                [[r["agents"][aid][name] for aid in self.ids] for r in self.ticks],
                dtype=float,
            )

        self.p = field("p")
        self.v = field("v")
        self.own = field("own_p")
        self.own_int = field("own_int")
        self.dt = float(self.config["dt"])
        self.duration = self.ticks[-1]["t"] - self.ticks[0]["t"] + self.dt


def recompute(log: FlightLog) -> dict:
    """The summary fields the benchmark relies on, from ground truth."""
    n = len(log.ids)
    gaps = np.linalg.norm(log.p[:, :, None, :] - log.p[:, None, :, :], axis=-1)
    upper = np.triu_indices(n, 1)
    pair_gaps = gaps[:, upper[0], upper[1]]

    center = log.p.mean(axis=1)
    path = float(np.linalg.norm(np.diff(center, axis=0), axis=1).sum())

    samples = []
    for k, record in enumerate(log.ticks):
        agents = record["agents"]
        pairs = {
            (min(int(aid), nid), max(int(aid), nid))
            for aid, fragment in agents.items()
            for nid in fragment["neighbors"]
            if str(nid) in agents and int(aid) != nid
        }
        samples.extend(
            gaps[k, log.index[a], log.index[b]] for a, b in sorted(pairs)
        )
    distances = np.array(samples)

    est_sq, zero_sq = [], []
    for k, record in enumerate(log.ticks):
        for fragment in record["agents"].values():
            for nid, estimate in fragment.get("vel_est", {}).items():
                if nid in record["agents"]:
                    truth = log.v[k, log.index[int(nid)]]
                    est_sq.append(float(np.sum((np.asarray(estimate) - truth) ** 2)))
                    zero_sq.append(float(np.sum(truth**2)))

    def rmse(estimate):
        return math.sqrt(float(np.mean(np.sum((estimate - log.p) ** 2, axis=-1))))

    return {
        "collisions": int(np.sum(pair_gaps < log.config["safety_radius"])),
        "min_pairwise_distance": float(pair_gaps.min()) if n > 1 else math.inf,
        "group_velocity": path / log.duration,
        "neighbor_distance_mean": float(distances.mean()) if samples else None,
        "neighbor_distance_std": float(distances.std()) if samples else None,
        "self_loc_rmse_full": rmse(log.own),
        "self_loc_rmse_integral": rmse(log.own_int),
        "velocity_estimate_rmse": (
            math.sqrt(float(np.mean(est_sq))) if est_sq else None
        ),
        "zero_velocity_rmse": math.sqrt(float(np.mean(zero_sq))) if zero_sq else None,
        "centroid_start": center[0],
        "centroid_end": center[-1],
    }


def check_kinematics(log: FlightLog) -> list[str]:
    plant = log.config["plant"]
    failures = []
    drift = float(np.abs(log.p[1:] - (log.p[:-1] + log.v[1:] * log.dt)).max())
    if drift > POS_TOL:
        failures.append(f"kinematics: p[k+1] - (p[k] + v[k+1] dt) reaches {drift:.3g} m")
    speed = float(np.linalg.norm(log.v, axis=-1).max())
    if speed > plant["v_max"] * (1 + REL_TOL):
        failures.append(f"kinematics: speed {speed!r} above v_max {plant['v_max']}")
    accel = float(np.linalg.norm(np.diff(log.v, axis=0), axis=-1).max()) / log.dt
    if accel > plant["a_max"] * (1 + REL_TOL):
        failures.append(f"kinematics: |dv|/dt {accel!r} above a_max {plant['a_max']}")
    return failures


def check_flight(records: list[dict], live: dict, replayed: dict) -> list[str]:
    """Every check on one flight: the written log `records`, the summary the
    run returned (`live`) and the one `metrics.summarize` recomputed from the
    log (`replayed`)."""
    log = FlightLog(records)
    failures = check_kinematics(log)
    ref = recompute(log)
    comm = bool(log.config["comm"])

    if log.summary != live:
        failures.append("log: the summary record differs from the live summary")
    differing = _differing(live, replayed, len(log.ids) <= EXACT_REPLAY_MAX_AGENTS)
    if differing:
        failures.append(f"replay: summary recomputed from the log differs in {differing}")

    # The replayed count covers the logged ticks; the live one also counts
    # the post-advance check, which the log does not carry.
    if ref["collisions"] != replayed["collisions"]:
        failures.append(
            f"recount: {ref['collisions']} collisions, summary {replayed['collisions']}"
        )
    for key in ("min_pairwise_distance", "group_velocity", "neighbor_distance_mean",
                "neighbor_distance_std", "self_loc_rmse_full",
                "self_loc_rmse_integral", "velocity_estimate_rmse"):
        ours, theirs = ref[key], log.summary[key]
        if (ours is None) != (theirs is None) or (
            ours is not None and not _close(ours, theirs)
        ):
            failures.append(f"recount: {key} {ours!r}, summary {theirs!r}")

    if ref["collisions"] or live["collisions"]:
        failures.append(
            f"method: collisions, {ref['collisions']} in the log, "
            f"{live['collisions']} in the live summary"
        )
    spacing = log.config["gains"]["spacing"]
    mean_gap = ref["neighbor_distance_mean"]
    if mean_gap is None or abs(mean_gap - spacing) > SPACING_BAND * spacing:
        failures.append(f"method: mean neighbour distance {mean_gap} off spacing {spacing}")
    if not ref["self_loc_rmse_full"] < ref["self_loc_rmse_integral"]:
        failures.append(
            "method: MRSE self-localization error "
            f"{ref['self_loc_rmse_full']:.3f} m does not beat dead reckoning "
            f"{ref['self_loc_rmse_integral']:.3f} m"
        )
    target = np.asarray(log.ticks[0]["target"], dtype=float)
    start = float(np.linalg.norm(target - ref["centroid_start"]))
    end = float(np.linalg.norm(target - ref["centroid_end"]))
    reach = min(start, log.config["gains"]["cruise_speed"] * log.duration)
    if start - end < PROGRESS_SHARE * reach:
        failures.append(
            f"method: centroid closed {start - end:.1f} m of {start:.1f} m "
            f"(needs {PROGRESS_SHARE * reach:.1f} m)"
        )
    if comm:
        if ref["velocity_estimate_rmse"] is not None:
            failures.append("method: velocity inference ran with comm on")
    elif ref["velocity_estimate_rmse"] is None:
        failures.append("method: no inferred velocities without comm")
    elif not ref["velocity_estimate_rmse"] < ref["zero_velocity_rmse"]:
        failures.append(
            f"method: inferred velocities, RMSE {ref['velocity_estimate_rmse']:.3f}"
            f" m/s, do not beat a zero guess, {ref['zero_velocity_rmse']:.3f} m/s"
        )
    return failures
