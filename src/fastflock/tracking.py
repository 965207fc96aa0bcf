"""The swarm's bank of per-neighbor Kalman filters.

Each observer runs one constant-acceleration filter per agent it can see,
fed by bearing/range sightings (turned into world-frame positions from the
observer's position and heading) and by communicated or inferred
velocities. The scenario sets the measurement noise (`TrackParams`, with
the bank's one velocity noise level `vel_sigma`); the process noise, the
initial variances and the drop time are fixed here. A tick's inputs arrive
as flat arrays over the whole swarm, one row per input: `Sightings`
(observer, id, body bearing, distance, stamp) and `Velocities` (observer,
id, velocity). One bank holds the filters of the whole swarm as
one dense table indexed by (observer, agent id): `state` (N, N, 6), `cov`
(N, N, 6, 6), `staleness` and `last_pos_stamp` (N, N), and the mask `tracks`
(N, N), where tracks[e, j] means observer e tracks agent j. An observer's
filters take only its own inputs, so no observer's tracks depend on
another's.

The filters are independent, so the bank runs them as stacks across the
swarm: `step` makes one stacked predict of every live entry, and
`apply_tick` one stacked correction per measurement kind (positions, then
velocities), each with R = variance * I per row; a stack's rows are
gathered from the table and its results written back by (observer, id)
index. The controller, velocity inference and the position fix read the
table directly: an observer's row of `state` with its row of `tracks`, the
column being the id.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kalman
from .geometry import heading_vectors

log = logging.getLogger(__name__)

# Per-second process-noise intensity of each tracked state (position,
# velocity, acceleration; x and y): the per-step Q is Q_RATE * dt.
Q_RATE = (1e-4, 1e-4, 0.05, 0.05, 0.6, 0.6)
# The floor of a sighting's position deviation, m.
POS_SIGMA_FLOOR = 0.15
# A track unseen and uncorrected for longer than this, s, is dropped.
DROP_AFTER = 2.0
# A new track's velocity and acceleration variances.
INIT_VEL_VAR = 25.0
INIT_ACC_VAR = 10.0


@dataclass(frozen=True)
class Sightings:
    """One tick's bearing/range sightings across a swarm, one row each: agent
    `observer[k]` saw agent `ids[k]` at `bearing[k]` in its body frame
    (relative to its heading) and `distance[k]` meters, at time `stamp[k]`.
    `len()` is the number of sightings."""

    observer: np.ndarray
    ids: np.ndarray
    bearing: np.ndarray
    distance: np.ndarray
    stamp: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_rows(cls, rows) -> "Sightings":
        """Sightings from (observer, id, bearing, distance, stamp) tuples."""
        cols = list(zip(*rows)) if rows else [()] * 5
        return cls(*(np.array(c, dtype=int) for c in cols[:2]),
                   *(np.array(c, dtype=float) for c in cols[2:]))


@dataclass(frozen=True)
class Velocities:
    """Velocity reports across a swarm, one row each: agent `observer[k]`
    learns that agent `ids[k]` moves at `velocity[k]` (K, 2). `len()` is the
    number of reports."""

    observer: np.ndarray
    ids: np.ndarray
    velocity: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_rows(cls, rows) -> "Velocities":
        """Reports from (observer, id, velocity) tuples."""
        observer, ids, velocity = zip(*rows) if rows else ((), (), ())
        return cls(np.array(observer, dtype=int), np.array(ids, dtype=int),
                   np.array(velocity, dtype=float).reshape(-1, 2))


def world_offsets(sightings: Sightings, headings: Sequence[float]) -> np.ndarray:
    """Each sighted agent's offset from its observer in the world frame,
    R(psi) (d cos b, d sin b) with psi the observer's entry of `headings`
    and R its `geometry.rotation`, built for all headings at once; (K, 2)."""
    local = sightings.distance[:, None] * heading_vectors(sightings.bearing)
    c, s = heading_vectors(headings).T
    turns = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    return (turns[sightings.observer] @ local[..., None])[..., 0]


def _check_sightings(sightings: Sightings) -> None:
    """Distances must be > 0 and bearings lie in (-pi, pi]. The error names
    the first bad row's observer as its `owner`."""
    bad_distance = ~(sightings.distance > 0.0)
    bad = bad_distance | ~((-math.pi < sightings.bearing)
                           & (sightings.bearing <= math.pi))
    if bad.any():
        row = int(np.argmax(bad))
        exc = ValueError("observation distance must be > 0" if bad_distance[row]
                         else "bearing must lie in (-pi, pi]")
        exc.owner = int(sightings.observer[row])
        raise exc


@dataclass
class TrackParams:
    """The bank's measurement noise. Position noise grows with range:
    sigma^2 = (d * range_sigma_rel)^2 + (d * bearing_sigma)^2, with sigma
    floored at POS_SIGMA_FLOOR; a velocity's deviation is vel_sigma.
    """

    range_sigma_rel: float
    bearing_sigma: float
    vel_sigma: float

    def pos_variances(self, distances: Sequence[float]) -> np.ndarray:
        """sigma^2 at each distance. Python's ** runs per element: numpy's
        square rounds some values apart from it."""
        rs, bs, floor = self.range_sigma_rel, self.bearing_sigma, POS_SIGMA_FLOOR
        out = []
        for d in distances:
            sigma = math.sqrt((d * rs) ** 2 + (d * bs) ** 2)
            out.append((floor if floor > sigma else sigma) ** 2)
        return np.array(out, dtype=float)


class TrackBank:
    """One Kalman filter per (observer, observed agent), in arrays indexed
    by (observer, id) over `n_agents` agents; entries where `tracks` is
    false hold no filter. The drop counters are totals over the swarm."""

    def __init__(self, params: TrackParams, dt: float, n_agents: int):
        self.params = params
        self.model = kalman.constant_acceleration_model(
            dt, np.asarray(Q_RATE) * dt
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
        observed_id: int,
        bearing: float,
        distance: float,
        stamp: float,
        observer_position: np.ndarray,
        observer_heading: float,
    ) -> None:
        """`apply_tick` of one bearing/range sighting by observer 0. The
        engine never calls this; perfbench's hooks and layer metrics key on
        it, so deleting it breaks the traced benchmark run."""
        self.apply_tick(
            Sightings.from_rows([(0, observed_id, bearing, distance, stamp)]),
            None, [observer_position], [observer_heading])

    def ingest_velocity(self, agent_id: int, velocity: np.ndarray) -> None:
        """`apply_tick` of one velocity of `agent_id` to observer 0. The
        engine never calls this; perfbench's hooks and layer metrics key on
        it, so deleting it breaks the traced benchmark run."""
        self.apply_tick(None, Velocities.from_rows([(0, agent_id, velocity)]),
                        [], [])

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
        live[self.staleness > DROP_AFTER] = False

    def apply_tick(
        self,
        sightings: Sightings | None,
        velocities: Velocities | None,
        observer_positions: Sequence[np.ndarray],
        observer_headings: Sequence[float],
    ) -> np.ndarray | None:
        """Apply one tick's inputs of every observer: the sightings and
        velocity reports, either of which may be None, each row filed under
        its observer e, seen from `observer_positions[e]` with heading
        `observer_headings[e]`. Returns the sightings' `world_offsets`
        (None without sightings), which the position fix reuses.

        The first sighting of an id spawns a track at the measured position
        with zero velocity/acceleration and wide initial covariance; a
        sighting older than the track's last one is dropped as stale; the
        others correct their tracks. Velocities for untracked ids are
        dropped. Positions apply before velocities, each kind as one stacked
        correction over the swarm; the rows are independent, so the result
        does not depend on the order of the inputs. Within a kind an
        (observer, id) pair may appear once, observers and ids must lie in
        0..N-1, distances must be > 0 and bearings lie in (-pi, pi];
        anything else raises ValueError."""
        offsets = None
        if sightings is not None:
            offsets = self._apply_sightings(sightings, observer_positions,
                                            observer_headings)
        if velocities is not None:
            self._apply_velocities(velocities)
        return offsets

    def _apply_sightings(self, sightings: Sightings,
                         observer_positions: Sequence[np.ndarray],
                         observer_headings: Sequence[float]) -> np.ndarray:
        _check_sightings(sightings)
        e, j = self._pairs(sightings.observer, sightings.ids)
        offsets = world_offsets(sightings, observer_headings)
        if not len(e):
            return offsets
        stamp = sightings.stamp
        var = self.params.pos_variances(sightings.distance.tolist())
        z = np.asarray(observer_positions, dtype=float)[e] + offsets
        known = self.tracks[e, j]
        stale = known & (stamp < self.last_pos_stamp[e, j])
        if stale.any():
            if log.isEnabledFor(logging.DEBUG):
                for a, b in zip(e[stale].tolist(), j[stale].tolist()):
                    log.debug("agent %d dropping stale observation of %d", a, b)
            self.dropped_stale += int(np.count_nonzero(stale))
        if not known.all():
            self._spawn(e[~known], j[~known], z[~known], var[~known])
        fresh = ~stale
        self.last_pos_stamp[e[fresh], j[fresh]] = stamp[fresh]
        hit = known & fresh
        self._correct(e[hit], j[hit], kalman.H_POS, z[hit], var[hit])
        return offsets

    def _apply_velocities(self, velocities: Velocities) -> None:
        e, j = self._pairs(velocities.observer, velocities.ids)
        known = self.tracks[e, j]
        if not known.all():
            if log.isEnabledFor(logging.DEBUG):
                for a, b in zip(e[~known].tolist(), j[~known].tolist()):
                    log.debug("agent %d dropping velocity for untracked agent %d",
                              a, b)
            self.dropped_unknown += int(np.count_nonzero(~known))
        z = np.asarray(velocities.velocity, dtype=float)[known]
        self._correct(e[known], j[known], kalman.H_VEL, z,
                      np.full(len(z), self.params.vel_sigma ** 2))

    def _pairs(self, observer: np.ndarray, ids: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """The observers and ids of one kind of a tick's inputs as int
        arrays, checked: both index the table, and no pair repeats."""
        n = len(self.tracks)
        e = np.asarray(observer, dtype=int)
        j = np.asarray(ids, dtype=int)
        if not j.size:
            return e, j
        if not (0 <= min(e.min(), j.min()) and max(e.max(), j.max()) < n):
            raise ValueError(f"agent ids must lie in 0..{n - 1}")
        if np.bincount(e * n + j).max() > 1:
            raise ValueError("an (observer, id) pair repeats within one tick")
        return e, j

    def _spawn(self, e: np.ndarray, j: np.ndarray, z: np.ndarray,
               variances: np.ndarray) -> None:
        """New tracks (e, j) at positions z with zero velocity and
        acceleration: position variance `variances`, the initial velocity
        and acceleration variances for the rest."""
        diag = np.repeat([[0.0, 0.0, INIT_VEL_VAR, INIT_VEL_VAR,
                           INIT_ACC_VAR, INIT_ACC_VAR]], len(e), axis=0)
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
                self.state[e, j], self.cov[e, j], h, z, variances,
                names=self._names[j],
            )
        self.staleness[e, j] = 0.0
