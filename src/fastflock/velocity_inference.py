"""Neighbor-velocity estimation without communication.

Assuming a homogeneous swarm, the focal agent replays the flocking law from
each tracked neighbor's estimated viewpoint to obtain that neighbor's desired
velocity, then maps desired to actual velocity through a fitted first-order
response model v(k+1) = a * v(k) + b * v_cmd(k+1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flocking import (ControllerGains, NeighborInfo, flocking_command,
                       group_heading, select_neighbors)
from .geometry import wrap_angle
from .tracking import TrackView


class FitError(RuntimeError):
    """Degenerate training data: the response-model fit is rank deficient."""


class NotFittedError(RuntimeError):
    """Velocity estimation requested without a fitted response model."""


@dataclass
class ResponseModel:
    """First-order closed-loop response: v(k+1) = a * v(k) + b * v_cmd(k+1)."""

    a: float
    b: float
    residual: float = 0.0


def fit_response_model(
    samples: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> ResponseModel:
    """Least-squares fit of (a, b) from (v_k, v_cmd_{k+1}, v_{k+1}) triples.

    Both lateral components contribute one equation each. Raises FitError
    when the stacked system has rank below 2; warns when the fitted values
    fall outside the plausibility bounds 0 < a < 1, b > 0.
    """
    rows, rhs = [], []
    for v_prev, v_cmd, v_next in samples:
        for axis in range(2):
            rows.append([float(v_prev[axis]), float(v_cmd[axis])])
            rhs.append(float(v_next[axis]))
    if len(rows) < 2:
        raise FitError("need at least two equations to fit the response model")
    matrix = np.array(rows)
    target = np.array(rhs)
    solution, residuals, rank, _ = np.linalg.lstsq(matrix, target, rcond=None)
    if rank < 2:
        raise FitError("rank-deficient response-model fit (identical samples?)")
    residual = float(np.sqrt(residuals[0])) if residuals.size else float(
        np.linalg.norm(matrix @ solution - target)
    )
    a, b = float(solution[0]), float(solution[1])
    if not (0.0 < a < 1.0) or b <= 0.0:
        warnings.warn(
            f"fitted response model (a={a:.4f}, b={b:.4f}) outside plausibility "
            "bounds 0 < a < 1, b > 0",
            stacklevel=2,
        )
    return ResponseModel(a=a, b=b, residual=residual)


def estimate_view(
    views: Sequence[TrackView],
    target: TrackView,
    own_position: np.ndarray,
    own_velocity: np.ndarray,
    psi: float,
    sensor_range: float,
    fov: float,
    max_neighbors: int,
    in_focal_neighborhood: bool,
) -> list[NeighborInfo]:
    """The neighborhood the focal agent believes the tracked neighbor
    `target`, one of `views`, can see.

    Built purely from the focal agent's own tracks: every other tracked
    agent within sensor range and inside the field of view around the
    neighbor's estimated heading (its tracked velocity direction, falling
    back to the group heading). The focal agent appends itself when the
    neighbor is in its own neighborhood. Known to overestimate: occlusions
    and the neighbor's actual sensor state are invisible from here.
    """
    speed = float(np.linalg.norm(target.velocity))
    heading = (
        math.atan2(target.velocity[1], target.velocity[0]) if speed > 0.1 else psi
    )
    candidates = []
    for v in views:
        if v.agent_id == target.agent_id:
            continue
        rel = v.position - target.position
        dist = float(np.linalg.norm(rel))
        if dist > sensor_range or dist < 1e-9:
            continue
        bearing = math.atan2(rel[1], rel[0])
        if abs(wrap_angle(bearing - heading)) > fov / 2.0:
            continue
        candidates.append(
            NeighborInfo(
                agent_id=v.agent_id,
                bearing=bearing,
                distance=dist,
                velocity=v.velocity - target.velocity,
            )
        )
    candidates.sort(key=lambda m: (m.distance, m.agent_id))
    members = candidates[:max_neighbors]
    if in_focal_neighborhood:
        rel = np.asarray(own_position, float) - target.position
        dist = float(np.linalg.norm(rel))
        if dist > 1e-9:
            members.append(
                NeighborInfo(
                    agent_id=-2,
                    bearing=math.atan2(rel[1], rel[0]),
                    distance=dist,
                    velocity=np.asarray(own_velocity, float) - target.velocity,
                )
            )
    return members


def estimate_velocities(
    views: Sequence[TrackView],
    own_position: np.ndarray,
    own_velocity: np.ndarray,
    target_rel: np.ndarray | None,
    psi: float,
    gains: ControllerGains,
    model: ResponseModel,
    sensor_range: float,
    fov: float,
    previous: dict[int, np.ndarray],
) -> list[tuple[int, np.ndarray]]:
    """One tick of neighbor-velocity estimation, ordered by ascending id.

    Pure function of its inputs: previous estimates are read from
    `previous` (missing ids fall back to the track velocity) and the
    updated values are returned, not written back.
    """
    own_position = np.asarray(own_position, dtype=float)
    focal_ids = {
        m.agent_id
        for m in select_neighbors(
            views, own_position, own_velocity, gains.max_neighbors
        )
    }
    out = []
    for v in sorted(views, key=lambda t: t.agent_id):
        members = estimate_view(
            views,
            v,
            own_position,
            own_velocity,
            psi,
            sensor_range,
            fov,
            gains.max_neighbors,
            in_focal_neighborhood=v.agent_id in focal_ids,
        )
        if target_rel is None:
            neighbor_target = None
        else:
            neighbor_target = own_position + np.asarray(target_rel, float) - v.position
        if members:
            center = np.mean(
                [m.distance * np.array([math.cos(m.bearing), math.sin(m.bearing)])
                 for m in members],
                axis=0,
            )
        else:
            center = np.zeros(2)
        neighbor_psi = (
            group_heading(center, neighbor_target, psi)
            if neighbor_target is not None
            else psi
        )
        desired = flocking_command(members, neighbor_psi, neighbor_target, gains)
        prev = previous.get(v.agent_id, v.velocity)
        estimate = model.a * np.asarray(prev, float) + model.b * desired.velocity
        out.append((v.agent_id, estimate))
    return out


class VelocityEstimator:
    """Stateful wrapper owning the per-neighbor previous estimates."""

    def __init__(
        self,
        gains: ControllerGains,
        model: ResponseModel | None,
        sensor_range: float,
        fov: float,
    ):
        self.gains = gains
        self.model = model
        self.sensor_range = sensor_range
        self.fov = fov
        self.estimates: dict[int, np.ndarray] = {}

    def update(
        self,
        views: Sequence[TrackView],
        own_position: np.ndarray,
        own_velocity: np.ndarray,
        target_rel: np.ndarray | None,
        psi: float,
    ) -> list[tuple[int, np.ndarray]]:
        if self.model is None:
            raise NotFittedError(
                "no response model configured; fit one before estimating"
            )
        out = estimate_velocities(
            views,
            own_position,
            own_velocity,
            target_rel,
            psi,
            self.gains,
            self.model,
            self.sensor_range,
            self.fov,
            self.estimates,
        )
        self.estimates = {agent_id: estimate for agent_id, estimate in out}
        return out
