"""Neighbor-velocity estimation without communication.

Assuming a homogeneous swarm, the focal agent replays the flocking law from
each tracked neighbor's estimated viewpoint to obtain that neighbor's desired
velocity, then maps desired to actual velocity through a fitted first-order
response model v(k+1) = a * v(k) + b * v_cmd(k+1). The replay uses the law's
own neighborhood model from `flocking`: its members, nearest-K selection and
group heading, evaluated from the neighbor's estimated position.

The replay runs on stacks: `VelocityEstimator.update`, the swarm's
estimator, does the whole swarm's tick at once on the track bank's table
(`states` (A, N, 6) and the mask `tracks` (A, N), indexed by (focal agent,
neighbour id)), and returns the estimates as a table of the same shape. One
stacked `geometry.pairwise` over each focal agent's own position and its row
of track positions gives every member's offset, and one call of the stacked
law (`flocking.neighborhood_heading_stack`, then
`flocking.flocking_command_stack`) replays every tracked neighbour of every
agent. `estimate_velocities` and `estimate_view` are the one-agent case,
on one row of the table.
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
    states: np.ndarray,
    tracks: np.ndarray,
    own_positions: Sequence[np.ndarray],
    psis: Sequence[float],
    sensor_range: float,
    fov: float,
    max_neighbors: int,
    focal: np.ndarray,
) -> Neighborhoods:
    """The neighbourhood each focal agent believes each of its tracked
    neighbours can see, one row per entry of the track table (agent a
    tracks agent j where tracks[a, j] holds, with state states[a, j]), in
    ascending (agent, id).

    Built purely from the focal agent's own tracks, with the members
    measured from the neighbour: the nearest `max_neighbors` other tracked
    agents within sensor range and inside the field of view around the
    neighbor's estimated heading (its tracked velocity direction, falling
    back to the group heading psis[a]). The focal agent is then appended as
    `FOCAL_MEMBER_ID` where focal[a, j] holds, which marks the members of
    its own neighbourhood. Known to overestimate: occlusions and the
    neighbor's actual sensor state are invisible from here.
    """
    present = np.asarray(tracks, dtype=bool)
    if not present.any():
        return Neighborhoods.of([])
    agent = np.nonzero(present)[0]
    # Agent a's own position, then its row of tracks: points (A, N + 1, 2).
    points = np.concatenate(
        [np.asarray(own_positions, dtype=float).reshape(-1, 1, 2),
         states[..., :2]], axis=1)
    velocity = states[present][:, 2:4]
    rel, dist = pairwise(points)
    heading = np.zeros(present.shape)
    heading[present] = np.where(lengths(velocity) > 0.1, bearings(velocity),
                                np.asarray(psis, dtype=float)[agent])
    between = dist[:, 1:, 1:]
    a, j, k = np.nonzero(present[:, :, None] & present[:, None, :]
                         & ~np.eye(present.shape[1], dtype=bool)
                         & (1e-9 <= between) & (between <= sensor_range))
    angle = bearings(rel[a, 1 + j, 1 + k])
    seen = np.abs(wrap_angles(angle - heading[a, j])) <= fov / 2.0
    a, j, k, angle = a[seen], j[seen], k[seen], angle[seen]
    row = np.zeros(present.shape, dtype=int)
    row[present] = np.arange(len(agent))
    hoods = nearest(row[a, j], k, angle, between[a, j, k], len(agent),
                    max_neighbors)
    return append_member(hoods, focal[present] & (dist[:, 1:, 0][present] > 1e-9),
                         FOCAL_MEMBER_ID, rel[:, 1:, 0][present])


def estimate_view(
    state: np.ndarray,
    tracks: np.ndarray,
    target_id: int,
    own_position: np.ndarray,
    psi: float,
    sensor_range: float,
    fov: float,
    max_neighbors: int,
    in_focal_neighborhood: bool,
) -> list[NeighborInfo]:
    """The neighborhood the focal agent believes its tracked neighbor
    `target_id` can see, from the focal agent's row of the track table (see
    `_replay_neighborhoods`); the focal agent is a member when
    `in_focal_neighborhood` holds."""
    if not tracks[target_id]:
        raise ValueError(f"agent {target_id} is not tracked")
    focal = np.zeros((1, len(tracks)), dtype=bool)
    focal[0, target_id] = in_focal_neighborhood
    hoods = _replay_neighborhoods(
        state[None], tracks[None], [own_position], [psi], sensor_range, fov,
        max_neighbors, focal,
    )
    return hoods.members()[int(np.count_nonzero(tracks[:target_id]))]


def estimate_velocities_stack(
    states: np.ndarray,
    tracks: np.ndarray,
    own_positions: Sequence[np.ndarray],
    target_rels: Sequence[np.ndarray | None],
    psis: Sequence[float],
    gains: ControllerGains,
    model: ResponseModel,
    sensor_range: float,
    fov: float,
    previous: np.ndarray,
) -> np.ndarray:
    """One tick of neighbor-velocity estimation for each of several focal
    agents, from their rows of the track table: agent a tracks agent j
    where tracks[a, j] holds, with state states[a, j]. Returns the
    estimates (A, N, 2), zero where tracks is false.

    Pure function of its inputs: previous[a, j] is agent a's previous
    estimate of agent j, and the updated values are returned, not written
    back.
    """
    present = np.asarray(tracks, dtype=bool)
    own = np.asarray(own_positions, dtype=float).reshape(-1, 2)
    out = np.zeros(present.shape + (2,))
    mine = select_neighbors_stack(states, present, own, gains.max_neighbors)
    focal = np.zeros(present.shape, dtype=bool)
    focal[np.nonzero(mine.valid)[0], mine.ids[mine.valid]] = True
    hoods = _replay_neighborhoods(states, present, own, psis, sensor_range,
                                  fov, gains.max_neighbors, focal)
    if not len(hoods.count):
        return out
    agent = np.nonzero(present)[0]
    target, has_target = _optional_rows(target_rels)
    neighbor_target = (own + target)[agent] - states[present][:, :2]
    psi = neighborhood_heading_stack(
        hoods, neighbor_target, has_target[agent],
        np.asarray(psis, dtype=float)[agent],
    )
    desired = flocking_command_stack(hoods, psi, neighbor_target,
                                     has_target[agent], gains)
    out[present] = model.a * previous[present] + model.b * desired.velocity
    return out


def estimate_velocities(
    state: np.ndarray,
    tracks: np.ndarray,
    own_position: np.ndarray,
    target_rel: np.ndarray | None,
    psi: float,
    gains: ControllerGains,
    model: ResponseModel,
    sensor_range: float,
    fov: float,
    previous: np.ndarray,
) -> np.ndarray:
    """`estimate_velocities_stack` for one focal agent's row of the track
    table; previous is (N, 2)."""
    return estimate_velocities_stack(
        state[None], tracks[None], [own_position], [target_rel], [psi], gains,
        model, sensor_range, fov, previous[None],
    )[0]


class VelocityEstimator:
    """The swarm's estimator: estimates[e, j] holds agent e's previous
    estimate of agent j's velocity where estimated[e, j] holds, that is,
    where agent e tracked agent j at the last update."""

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
        self.estimates = np.zeros((n_agents, n_agents, 2))
        self.estimated = np.zeros((n_agents, n_agents), dtype=bool)

    def update(
        self,
        states: np.ndarray,
        tracks: np.ndarray,
        own_positions: Sequence[np.ndarray],
        target_rels: Sequence[np.ndarray | None],
        psis: Sequence[float],
    ) -> np.ndarray:
        """One tick of every agent's estimates (N, N, 2), with one replay of
        the law for all of them; agent e sees its row of the track table
        from own_positions[e]. A track without a previous estimate starts
        from its own velocity."""
        if self.model is None:
            raise NotFittedError(
                "no response model configured; fit one before estimating"
            )
        previous = np.where(self.estimated[..., None], self.estimates,
                            states[..., 2:4])
        self.estimates = estimate_velocities_stack(
            states, tracks, own_positions, target_rels, psis, self.gains,
            self.model, self.sensor_range, self.fov, previous,
        )
        self.estimated = np.array(tracks, dtype=bool)
        return self.estimates
