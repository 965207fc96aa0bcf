"""Neighbor-velocity estimation without communication.

Assuming a homogeneous swarm, the focal agent replays the flocking law from
each tracked neighbor's estimated viewpoint to obtain that neighbor's desired
velocity, then maps desired to actual velocity through the first-order
response v(k+1) = a * v(k) + b * v_cmd(k+1) of the agents' own plant
(`ResponseModel.of_plant`). The replay uses the law's own neighborhood model
from `flocking`: its members, nearest-K selection and group heading,
evaluated from the neighbor's estimated position.

The replay runs on stacks: `VelocityEstimator.update`, the swarm's
estimator, does the whole swarm's tick at once on the track bank's table
(`states` (A, N, 6) and the mask `tracks` (A, N), indexed by (focal agent,
neighbour id)), and returns the estimates as a table of the same shape.
The members' offsets are taken over tracked pairs only: for agent a tracking
both j and k, k's offset from j, and a's own offset from j. One call of the
stacked law (`flocking.neighborhood_heading`, then
`flocking.flocking_command`) replays every tracked neighbour of every agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flocking import (FOCAL_MEMBER_ID, ControllerGains, Neighborhoods,
                       append_member, flocking_command, nearest,
                       neighborhood_heading, select_neighbors)
from .geometry import bearings, lengths, wrap_angles


@dataclass
class ResponseModel:
    """First-order closed-loop response: v(k+1) = a * v(k) + b * v_cmd(k+1)."""

    a: float
    b: float

    @classmethod
    def of_plant(cls, dt: float, tau: float) -> ResponseModel:
        """The response of a first-order lag with time constant `tau`,
        sampled every `dt` under a zero-order hold."""
        a = math.exp(-dt / tau)
        return cls(a=a, b=1.0 - a)


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
    # Row r of the result is agent[r]'s track of tracked[r].
    agent, tracked = np.nonzero(present)
    track = states[present]
    position, velocity = track[:, :2], track[:, 2:4]
    heading = np.where(lengths(velocity) > 0.1, bearings(velocity),
                       np.asarray(psis, dtype=float)[agent])
    # Every pair of distinct rows r, m of one agent, in ascending (agent, r,
    # m), and m's offset from r: agent a's rows fill the first slots of
    # rows[a].
    count = np.bincount(agent, minlength=len(present))
    slot = np.arange(count.max(initial=0)) < count[:, None]
    rows = np.zeros(slot.shape, dtype=int)
    rows[slot] = np.arange(len(agent))
    a, s, t = np.nonzero(slot[:, :, None] & slot[:, None, :]
                         & ~np.eye(slot.shape[1], dtype=bool))
    r, m = rows[a, s], rows[a, t]
    rel = position[m] - position[r]
    distance = lengths(rel)
    near = (1e-9 <= distance) & (distance <= sensor_range)
    r, m, rel, distance = r[near], m[near], rel[near], distance[near]
    angle = bearings(rel)
    seen = np.abs(wrap_angles(angle - heading[r])) <= fov / 2.0
    hoods = nearest(r[seen], tracked[m[seen]], angle[seen], distance[seen],
                    len(agent), max_neighbors)
    # The focal agent's own offset from each of its tracks.
    own = np.asarray(own_positions, dtype=float).reshape(-1, 2)[agent] - position
    return append_member(hoods, focal[present] & (lengths(own) > 1e-9),
                         FOCAL_MEMBER_ID, own)


def estimate_velocities(
    states: np.ndarray,
    tracks: np.ndarray,
    own_positions: Sequence[np.ndarray],
    target_rels: Sequence[np.ndarray],
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
    if not present.any():
        return out
    mine = select_neighbors(states, present, own, gains.max_neighbors)
    focal = np.zeros(present.shape, dtype=bool)
    focal[np.nonzero(mine.valid)[0], mine.ids[mine.valid]] = True
    hoods = _replay_neighborhoods(states, present, own, psis, sensor_range,
                                  fov, gains.max_neighbors, focal)
    agent = np.nonzero(present)[0]
    target = np.asarray(target_rels, dtype=float).reshape(-1, 2)
    neighbor_target = (own + target)[agent] - states[present][:, :2]
    psi = neighborhood_heading(hoods, neighbor_target,
                               np.asarray(psis, dtype=float)[agent])
    desired = flocking_command(hoods, psi, neighbor_target, gains)
    out[present] = model.a * previous[present] + model.b * desired.velocity
    return out


class VelocityEstimator:
    """The swarm's estimator: estimates[e, j] holds agent e's previous
    estimate of agent j's velocity where estimated[e, j] holds, that is,
    where agent e tracked agent j at the last update."""

    def __init__(
        self,
        gains: ControllerGains,
        model: ResponseModel,
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
        target_rels: Sequence[np.ndarray],
        psis: Sequence[float],
    ) -> np.ndarray:
        """One tick of every agent's estimates (N, N, 2), with one replay of
        the law for all of them; agent e sees its row of the track table
        from own_positions[e]. A track without a previous estimate starts
        from its own velocity."""
        previous = np.where(self.estimated[..., None], self.estimates,
                            states[..., 2:4])
        self.estimates = estimate_velocities(
            states, tracks, own_positions, target_rels, psis, self.gains,
            self.model, self.sensor_range, self.fov, previous,
        )
        self.estimated = np.array(tracks, dtype=bool)
        return self.estimates
