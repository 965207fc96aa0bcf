"""Neighbor-velocity estimation without communication.

Assuming a homogeneous swarm, the focal agent replays the flocking law from
each tracked neighbor's estimated viewpoint to obtain that neighbor's desired
velocity, then maps desired to actual velocity through a fitted first-order
response model v(k+1) = a * v(k) + b * v_cmd(k+1). The replay uses the law's
own neighborhood model from `flocking`: its members, nearest-K selection and
group heading, evaluated from the neighbor's estimated position.

The replay runs on stacks: `VelocityEstimator.update`, the swarm's
estimator, does the whole swarm's tick at once. One stacked
`geometry.pairwise` over each focal agent's own position and track positions
gives every member's offset, and one call of the stacked law
(`flocking.neighborhood_heading_stack`, then
`flocking.flocking_command_stack`) replays every tracked neighbour of every
agent. `estimate_velocities` and `estimate_view` are the one-agent case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flocking import (FOCAL_MEMBER_ID, ControllerGains, NeighborInfo,
                       Neighborhoods, _optional_rows, append_member,
                       flocking_command_stack, nearest,
                       neighborhood_heading_stack, select_neighbors_stack)
from .geometry import bearings, lengths, pairwise, wrap_angles
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


def _replay_neighborhoods(
    views: Sequence[Sequence[TrackView]],
    own_positions: Sequence[np.ndarray],
    psis: Sequence[float],
    sensor_range: float,
    fov: float,
    max_neighbors: int,
    focal: Sequence[set[int]],
) -> tuple[Neighborhoods, list[list[TrackView]]]:
    """The neighbourhood each focal agent believes each of its tracked
    neighbours can see, one row per neighbour, agent by agent and by
    ascending id within an agent; also each agent's views by ascending id.

    Built purely from the focal agent's own tracks, with the members
    measured from the neighbour: the nearest `max_neighbors` other tracked
    agents within sensor range and inside the field of view around the
    neighbor's estimated heading (its tracked velocity direction, falling
    back to the group heading psis[a]). The focal agent is then appended as
    `FOCAL_MEMBER_ID` when the neighbour's id is in focal[a], the ids of
    its own neighbourhood. Known to overestimate: occlusions and the
    neighbor's actual sensor state are invisible from here.
    """
    tracks = [sorted(vs, key=lambda v: v.agent_id) for vs in views]
    n = np.array([len(t) for t in tracks], dtype=int)
    rows = [v for t in tracks for v in t]
    if not rows:
        return Neighborhoods.of([]), tracks
    # Agent a's own position and its tracks, padded to the most tracks any
    # agent has: points (A, T + 1, 2), with present (A, T) marking tracks.
    present = np.arange(n.max()) < n[:, None]
    points = np.zeros(present.shape + (2,))
    points[present] = [v.position for v in rows]
    points = np.concatenate(
        [np.asarray(own_positions, dtype=float).reshape(-1, 1, 2), points], axis=1)
    velocity = np.array([v.velocity for v in rows], dtype=float)
    track_ids = np.zeros(present.shape, dtype=int)
    track_ids[present] = [v.agent_id for v in rows]
    rel, dist = pairwise(points)
    heading = np.zeros(present.shape)
    heading[present] = np.where(lengths(velocity) > 0.1, bearings(velocity),
                                np.repeat(np.asarray(psis, dtype=float), n))
    between = dist[:, 1:, 1:]
    a, j, k = np.nonzero(present[:, :, None] & present[:, None, :]
                         & ~np.eye(len(present[0]), dtype=bool)
                         & (1e-9 <= between) & (between <= sensor_range))
    angle = bearings(rel[a, 1 + j, 1 + k])
    seen = np.abs(wrap_angles(angle - heading[a, j])) <= fov / 2.0
    a, j, k, angle = a[seen], j[seen], k[seen], angle[seen]
    row = np.zeros(present.shape, dtype=int)
    row[present] = np.arange(len(rows))
    hoods = nearest(row[a, j], track_ids[a, k], angle,
                    between[a, j, k], len(rows), max_neighbors)
    in_focal = np.array([v.agent_id in ids for t, ids in zip(tracks, focal)
                         for v in t])
    return append_member(hoods, in_focal & (dist[:, 1:, 0][present] > 1e-9),
                         FOCAL_MEMBER_ID, rel[:, 1:, 0][present]), tracks


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
    `target`, one of `views`, can see (see `_replay_neighborhoods`); the
    focal agent is a member when `in_focal_neighborhood` holds."""
    focal = {target.agent_id} if in_focal_neighborhood else set()
    hoods, tracks = _replay_neighborhoods(
        [views], [np.asarray(own_position, dtype=float)], [psi], sensor_range,
        fov, max_neighbors, [focal],
    )
    row = [v.agent_id for v in tracks[0]].index(target.agent_id)
    return hoods.members()[row]


def estimate_velocities_stack(
    views: Sequence[Sequence[TrackView]],
    own_positions: Sequence[np.ndarray],
    target_rels: Sequence[np.ndarray | None],
    psis: Sequence[float],
    gains: ControllerGains,
    model: ResponseModel,
    sensor_range: float,
    fov: float,
    previous: Sequence[dict[int, np.ndarray]],
) -> list[list[tuple[int, np.ndarray]]]:
    """One tick of neighbor-velocity estimation for each of several focal
    agents, each agent's list ordered by ascending id.

    Pure function of its inputs: previous estimates are read from
    previous[a] (missing ids fall back to the track velocity) and the
    updated values are returned, not written back.
    """
    own = np.asarray(own_positions, dtype=float).reshape(-1, 2)
    mine = select_neighbors_stack(views, own, gains.max_neighbors)
    focal = [set(mine.ids[a, :mine.count[a]].tolist()) for a in range(len(own))]
    hoods, tracks = _replay_neighborhoods(views, own, psis, sensor_range, fov,
                                          gains.max_neighbors, focal)
    if not len(hoods.count):
        return [[] for _ in tracks]
    agent = np.repeat(np.arange(len(tracks)), [len(t) for t in tracks])
    target, has_target = _optional_rows(target_rels)
    positions = np.array([v.position for t in tracks for v in t], dtype=float)
    neighbor_target = (own + target)[agent] - positions
    psi = neighborhood_heading_stack(
        hoods, neighbor_target, has_target[agent],
        np.asarray(psis, dtype=float)[agent],
    )
    desired = flocking_command_stack(hoods, psi, neighbor_target,
                                     has_target[agent], gains)
    prev = np.array([previous[a].get(v.agent_id, v.velocity)
                     for a, t in enumerate(tracks) for v in t], dtype=float)
    estimate = model.a * prev + model.b * desired.velocity
    out, row = [], 0
    for t in tracks:
        out.append([(v.agent_id, estimate[row + i]) for i, v in enumerate(t)])
        row += len(t)
    return out


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
    """`estimate_velocities_stack` for one focal agent."""
    return estimate_velocities_stack(
        [views], [own_position], [target_rel], [psi], gains, model,
        sensor_range, fov, [previous],
    )[0]


class VelocityEstimator:
    """The swarm's estimator: estimates[e] holds agent e's previous estimate
    of each tracked neighbour, by id."""

    def __init__(
        self,
        gains: ControllerGains,
        model: ResponseModel | None,
        sensor_range: float,
        fov: float,
        n_agents: int,
    ):
        self.gains = gains
        self.model = model
        self.sensor_range = sensor_range
        self.fov = fov
        self.estimates: list[dict[int, np.ndarray]] = [{} for _ in range(n_agents)]

    def update(
        self,
        views: Sequence[Sequence[TrackView]],
        own_positions: Sequence[np.ndarray],
        target_rels: Sequence[np.ndarray | None],
        psis: Sequence[float],
    ) -> list[list[tuple[int, np.ndarray]]]:
        """One tick of every agent's estimates, with one replay of the law
        for all of them; agent e sees views[e] from own_positions[e]."""
        if self.model is None:
            raise NotFittedError(
                "no response model configured; fit one before estimating"
            )
        out = estimate_velocities_stack(
            views, own_positions, target_rels, psis, self.gains, self.model,
            self.sensor_range, self.fov, self.estimates,
        )
        self.estimates = [dict(estimates) for estimates in out]
        return out
