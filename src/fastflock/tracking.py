"""The swarm's bank of per-neighbor Kalman filters.

Each observer runs one constant-acceleration filter per agent it can see,
fed by bearing/range observations (converted into the observer's local frame)
and by communicated or inferred velocities, each an (id, velocity) pair with
the bank's one noise level `TrackParams.vel_sigma`. One bank holds the
filters of the whole swarm as one dense table indexed by (observer, agent
id): `state` (N, N, 6), `cov` (N, N, 6, 6), `staleness` and
`last_pos_stamp` (N, N), and the mask `tracks` (N, N), where tracks[e, j]
means observer e tracks agent j. An observer's filters take only its own
inputs, so no observer's tracks depend on another's.

The filters are independent, so the bank runs them as stacks across the
swarm: `step` makes one stacked predict of every live entry, and
`apply_tick` one stacked correction per measurement kind (positions, then
velocities); a stack's rows are gathered from the table and its results
written back by (observer, id) index. The controller, velocity
inference and the position fix read the table directly: an observer's row
of `state` with its row of `tracks`, the column being the id.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kalman
from .geometry import rotation

log = logging.getLogger(__name__)


@dataclass
class RelativeObservation:
    """One bearing/range sighting of `observed_id` by `observer_id`.

    The bearing is measured in the observer's body frame (relative to its
    heading); distance in meters.
    """

    observer_id: int
    observed_id: int
    bearing: float
    distance: float
    stamp: float

    def __post_init__(self):
        if not self.distance > 0.0:
            raise ValueError("observation distance must be > 0")
        if not (-math.pi < self.bearing <= math.pi):
            raise ValueError("bearing must lie in (-pi, pi]")


@dataclass
class TrackParams:
    """Noise model and lifecycle settings for the filter bank.

    q_rate is the per-second process-noise intensity for each state; the
    per-step Q is q_rate * dt. Position measurement noise grows with range:
    sigma^2 = (d * range_sigma_rel)^2 + (d * bearing_sigma)^2, floored at
    pos_sigma_floor.
    """

    q_rate: tuple[float, ...] = (1e-4, 1e-4, 0.05, 0.05, 0.6, 0.6)
    range_sigma_rel: float = 0.1
    bearing_sigma: float = math.radians(1.0)
    pos_sigma_floor: float = 0.15
    vel_sigma: float = 0.3
    drop_after: float = 2.0
    init_vel_var: float = 25.0
    init_acc_var: float = 10.0

    def pos_sigma(self, distance: float) -> float:
        var = (distance * self.range_sigma_rel) ** 2 + (
            distance * self.bearing_sigma
        ) ** 2
        return max(math.sqrt(var), self.pos_sigma_floor)


class TrackBank:
    """One Kalman filter per (observer, observed agent), in arrays indexed
    by (observer, id) over `n_agents` agents; entries where `tracks` is
    false hold no filter. The drop counters are totals over the swarm."""

    def __init__(self, params: TrackParams, dt: float, n_agents: int):
        self.params = params
        self.model = kalman.constant_acceleration_model(
            dt, np.asarray(params.q_rate) * dt
        )
        self.state = np.zeros((n_agents, n_agents, 6))
        self.cov = np.zeros((n_agents, n_agents, 6, 6))
        self.tracks = np.zeros((n_agents, n_agents), dtype=bool)
        self.staleness = np.zeros((n_agents, n_agents))
        self.last_pos_stamp = np.zeros((n_agents, n_agents))
        self.dropped_stale = 0
        self.dropped_unknown = 0
        # Fault labels of the stacked rows, by column.
        self._names = np.array([f"track-{j}" for j in range(n_agents)])

    def ingest_position(
        self,
        obs: RelativeObservation,
        observer_position: np.ndarray,
        observer_heading: float,
    ) -> None:
        """`apply_tick` of one bearing/range observation by observer 0. The
        engine never calls this; perfbench's hooks and layer metrics key on
        it, so deleting it breaks the traced benchmark run."""
        self.apply_tick([[obs]], [], [observer_position], [observer_heading])

    def ingest_velocity(self, agent_id: int, velocity: np.ndarray) -> None:
        """`apply_tick` of one velocity of `agent_id` to observer 0. The
        engine never calls this; perfbench's hooks and layer metrics key on
        it, so deleting it breaks the traced benchmark run."""
        self.apply_tick([], [[(agent_id, velocity)]], [], [])

    def step(self) -> None:
        """Predict every track of every observer one step forward and retire
        the stale ones."""
        live = self.tracks
        if live.any():
            e, j = np.nonzero(live)
            with kalman.owned_rows(e):
                self.state[live], self.cov[live] = kalman.predict_stack(
                    self.state[live], self.cov[live], self.model,
                    names=self._names[j],
                )
            self.staleness[live] += self.model.dt
        live[self.staleness > self.params.drop_after] = False

    def apply_tick(
        self,
        observations: Sequence[Sequence[RelativeObservation]],
        velocities: Sequence[Sequence[tuple[int, np.ndarray]]],
        observer_positions: Sequence[np.ndarray],
        observer_headings: Sequence[float],
    ) -> None:
        """Apply one tick's inputs of every observer: `observations[e]` and
        the (id, velocity) pairs `velocities[e]` are observer e's, taken
        from `observer_positions[e]` with heading `observer_headings[e]`;
        an observer may have none.

        The first sighting of an id spawns a track at the measured position
        with zero velocity/acceleration and wide initial covariance; a
        sighting older than the track's last one is dropped as stale; the
        others correct their tracks. Velocities for untracked ids are
        dropped. Positions apply before velocities, each kind as one stacked
        correction over the swarm; the rows are independent, so the result
        does not depend on the order of the inputs. Within a kind an
        (observer, id) pair may appear once, and ids must lie in 0..N-1;
        anything else raises ValueError."""
        params = self.params
        seen = [o for items in observations for o in items]
        if seen:
            e, j = self._pairs([[o.observed_id for o in items]
                                for items in observations])
            rows = np.array([(o.distance * math.cos(o.bearing),
                              o.distance * math.sin(o.bearing), o.stamp,
                              params.pos_sigma(o.distance) ** 2) for o in seen])
            stamp, var = rows[:, 2], rows[:, 3]
            turns = np.array([rotation(h) for h in observer_headings])[e]
            z = (np.asarray(observer_positions, dtype=float)[e]
                 + (turns @ rows[:, :2, None])[..., 0])
            known = self.tracks[e, j]
            stale = known & (stamp < self.last_pos_stamp[e, j])
            if stale.any():
                for a, b in zip(e[stale].tolist(), j[stale].tolist()):
                    log.debug("agent %d dropping stale observation of %d", a, b)
                self.dropped_stale += int(np.count_nonzero(stale))
            if not known.all():
                self._spawn(e[~known], j[~known], z[~known], var[~known])
            fresh = ~stale
            self.last_pos_stamp[e[fresh], j[fresh]] = stamp[fresh]
            hit = known & fresh
            self._correct(e[hit], j[hit], kalman.H_POS, z[hit], var[hit])
        reports = [v for items in velocities for _, v in items]
        if reports:
            e, j = self._pairs([[i for i, _ in items] for items in velocities])
            known = self.tracks[e, j]
            if not known.all():
                for a, b in zip(e[~known].tolist(), j[~known].tolist()):
                    log.debug("agent %d dropping velocity for untracked agent %d",
                              a, b)
                self.dropped_unknown += int(np.count_nonzero(~known))
            z = np.array(reports, dtype=float)[known]
            self._correct(e[known], j[known], kalman.H_VEL, z,
                          np.full(len(z), params.vel_sigma ** 2))

    def _pairs(self, ids: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
        """The observers and ids of a tick's inputs, flattened observer by
        observer; ids[e] are the ids of observer e's inputs."""
        n = len(self.tracks)
        e = np.repeat(np.arange(len(ids)), [len(row) for row in ids])
        j = np.array([i for row in ids for i in row], dtype=int)
        if not (0 <= j.min() and j.max() < n):
            raise ValueError(f"agent ids must lie in 0..{n - 1}")
        if len(set((e * n + j).tolist())) < len(j):
            raise ValueError("an (observer, id) pair repeats within one tick")
        return e, j

    def _spawn(self, e: np.ndarray, j: np.ndarray, z: np.ndarray,
               variances: np.ndarray) -> None:
        """New tracks (e, j) at positions z with zero velocity and
        acceleration: position variance `variances`, the initial velocity
        and acceleration variances for the rest."""
        params = self.params
        diag = np.repeat([[0.0, 0.0, params.init_vel_var, params.init_vel_var,
                           params.init_acc_var, params.init_acc_var]],
                         len(e), axis=0)
        diag[:, :2] = variances[:, None]
        self.state[e, j] = 0.0
        self.state[e, j, :2] = z
        self.cov[e, j] = diag[:, :, None] * np.eye(6)
        self.staleness[e, j] = 0.0
        self.tracks[e, j] = True

    def _correct(self, e: np.ndarray, j: np.ndarray, h: np.ndarray,
                 z: np.ndarray, variances: np.ndarray) -> None:
        """One stacked correction of the tracks (e, j) with R = variance * I
        per row."""
        if not len(e):
            return
        with kalman.owned_rows(e):
            self.state[e, j], self.cov[e, j] = kalman.correct_stack(
                self.state[e, j], self.cov[e, j], h, z,
                variances[:, None, None] * np.eye(2), names=self._names[j],
            )
        self.staleness[e, j] = 0.0
