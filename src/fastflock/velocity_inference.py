"""Neighbor-velocity estimation without communication.

Assuming a homogeneous swarm, the focal agent replays the flocking law from
each tracked neighbor's estimated viewpoint to obtain that neighbor's desired
velocity, then maps desired to actual velocity through a fitted first-order
response model v(k+1) = a * v(k) + b * v_cmd(k+1). The replay uses the law's
own neighborhood model from `flocking`: its members, nearest-K selection and
group heading, evaluated from the neighbor's estimated position.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flocking import (FOCAL_MEMBER_ID, ControllerGains, NeighborInfo,
                       _member, _nearest, flocking_command,
                       neighborhood_heading, select_neighbors)
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
    psi: float,
    sensor_range: float,
    fov: float,
    max_neighbors: int,
    in_focal_neighborhood: bool,
) -> list[NeighborInfo]:
    """The neighborhood the focal agent believes the tracked neighbor
    `target`, one of `views`, can see.

    Built purely from the focal agent's own tracks, with the members made
    as the flocking law makes them but measured from `target`: the nearest
    `max_neighbors` other tracked agents within sensor range and inside the
    field of view around the neighbor's estimated heading (its tracked
    velocity direction, falling back to the group heading). The focal agent
    is then appended as `FOCAL_MEMBER_ID` when the neighbor is in its own
    neighborhood. Known to overestimate: occlusions and the neighbor's
    actual sensor state are invisible from here.
    """
    speed = float(np.linalg.norm(target.velocity))
    heading = (
        math.atan2(target.velocity[1], target.velocity[0]) if speed > 0.1 else psi
    )
    visible = [
        m
        for m in (_member(v.agent_id, v.position - target.position)
                  for v in views if v.agent_id != target.agent_id)
        if 1e-9 <= m.distance <= sensor_range
        and abs(wrap_angle(m.bearing - heading)) <= fov / 2.0
    ]
    members = _nearest(visible, max_neighbors)
    if in_focal_neighborhood:
        focal = _member(
            FOCAL_MEMBER_ID, np.asarray(own_position, float) - target.position
        )
        if focal.distance > 1e-9:
            members.append(focal)
    return members


def estimate_velocities(
    views: Sequence[TrackView],
    own_position: np.ndarray,
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
        for m in select_neighbors(views, own_position, gains.max_neighbors)
    }
    out = []
    for v in sorted(views, key=lambda t: t.agent_id):
        members = estimate_view(
            views, v, own_position, psi, sensor_range, fov, gains.max_neighbors,
            in_focal_neighborhood=v.agent_id in focal_ids,
        )
        if target_rel is None:
            neighbor_target = None
        else:
            neighbor_target = own_position + np.asarray(target_rel, float) - v.position
        neighbor_psi = neighborhood_heading(members, neighbor_target, psi)
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
        target_rel: np.ndarray | None,
        psi: float,
    ) -> list[tuple[int, np.ndarray]]:
        if self.model is None:
            raise NotFittedError(
                "no response model configured; fit one before estimating"
            )
        out = estimate_velocities(
            views, own_position, target_rel, psi, self.gains, self.model,
            self.sensor_range, self.fov, self.estimates,
        )
        self.estimates = {agent_id: estimate for agent_id, estimate in out}
        return out
