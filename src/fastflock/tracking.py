"""Bank of per-neighbor Kalman filters.

Each observable agent gets its own constant-acceleration filter fed by
bearing/range observations (converted into the observer's local frame) and by
communicated or inferred velocities. Mutation happens only in the owning
agent's tick.

The filters are independent, so the bank runs them as stacks: `step` makes
one stacked predict of every track, and `apply_tick` one stacked correction
per measurement kind (positions, then velocities), each in ascending id
order. Tracks stay in a dict keyed by id; a stack is gathered from it and the
results written back.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

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


class VelocityReport(NamedTuple):
    """A velocity measurement for one tracked agent (communicated or inferred)."""

    agent_id: int
    velocity: np.ndarray
    sigma: float | None = None


class TrackView(NamedTuple):
    agent_id: int
    position: np.ndarray
    velocity: np.ndarray
    staleness: float


@dataclass
class NeighborTrack:
    agent_id: int
    state: np.ndarray
    cov: np.ndarray
    last_pos_stamp: float
    staleness: float = 0.0


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
    """One Kalman filter per observable agent, keyed by id."""

    def __init__(self, params: TrackParams, dt: float):
        self.params = params
        self.dt = dt
        self.model = kalman.constant_acceleration_model(
            dt, np.asarray(params.q_rate) * dt
        )
        self.tracks: dict[int, NeighborTrack] = {}
        self.dropped_stale = 0
        self.dropped_unknown = 0

    def ingest_position(
        self,
        obs: RelativeObservation,
        observer_position: np.ndarray,
        observer_heading: float,
    ) -> None:
        """Apply a bearing/range observation as a position correction.

        The first sighting of an id spawns a track at the measured position
        with zero velocity/acceleration and wide initial covariance.
        """
        self._ingest_positions([obs], observer_position, observer_heading)

    def ingest_velocity(
        self,
        agent_id: int,
        velocity: np.ndarray,
        sigma: float | None = None,
    ) -> None:
        """Apply a velocity correction; velocities for unseen ids are dropped."""
        self._ingest_velocities([VelocityReport(agent_id, velocity, sigma)])

    def step(self, dt: float) -> None:
        """Predict every track forward and retire the stale ones."""
        if not dt > 0.0:
            raise ValueError("dt must be > 0")
        if dt != self.model.dt:
            self.model = kalman.constant_acceleration_model(
                dt, np.asarray(self.params.q_rate) * dt
            )
        tracks = list(self.tracks.values())
        if tracks:
            states, covs = kalman.predict_stack(
                np.array([t.state for t in tracks]),
                np.array([t.cov for t in tracks]),
                self.model,
                names=[f"track-{t.agent_id}" for t in tracks],
            )
            for track, x, p in zip(tracks, states, covs):
                track.state, track.cov = x, p
                track.staleness += dt
        for tid in [t for t, tr in self.tracks.items() if tr.staleness > self.params.drop_after]:
            del self.tracks[tid]

    def apply_tick(
        self,
        observations: list[RelativeObservation],
        velocities: list[VelocityReport],
        observer_position: np.ndarray,
        observer_heading: float,
    ) -> None:
        """Apply one tick's inputs in the canonical order: position
        corrections by ascending id, then velocity corrections by ascending
        id. Makes the bank state independent of input-list permutations.

        Each kind runs as one stacked correction; an id that repeats within
        the tick goes into a later stack, so its inputs apply in order."""
        for batch in _rounds(observations, lambda o: o.observed_id):
            self._ingest_positions(batch, observer_position, observer_heading)
        for batch in _rounds(velocities, lambda r: r.agent_id):
            self._ingest_velocities(batch)

    def _ingest_positions(
        self,
        batch: list[RelativeObservation],
        observer_position: np.ndarray,
        observer_heading: float,
    ) -> None:
        """Spawn, drop as stale, or correct each observation; the ids in
        `batch` are distinct."""
        local = np.array(
            [
                [o.distance * math.cos(o.bearing), o.distance * math.sin(o.bearing)]
                for o in batch
            ]
        )
        zs = np.asarray(observer_position, dtype=float) + (
            rotation(observer_heading) @ local[..., None]
        )[..., 0]
        hits, rows, variances = [], [], []
        for obs, z in zip(batch, zs):
            var = self.params.pos_sigma(obs.distance) ** 2
            track = self.tracks.get(obs.observed_id)
            if track is None:
                cov = np.diag(
                    [
                        var,
                        var,
                        self.params.init_vel_var,
                        self.params.init_vel_var,
                        self.params.init_acc_var,
                        self.params.init_acc_var,
                    ]
                )
                self.tracks[obs.observed_id] = NeighborTrack(
                    agent_id=obs.observed_id,
                    state=np.concatenate([z, np.zeros(4)]),
                    cov=cov,
                    last_pos_stamp=obs.stamp,
                )
            elif obs.stamp < track.last_pos_stamp:
                self.dropped_stale += 1
                log.debug(
                    "dropping stale observation of %d (stamp %.3f < %.3f)",
                    obs.observed_id,
                    obs.stamp,
                    track.last_pos_stamp,
                )
            else:
                hits.append(track)
                rows.append(z)
                variances.append(var)
                track.last_pos_stamp = obs.stamp
        self._correct(hits, kalman.H_POS, rows, variances)

    def _ingest_velocities(self, batch: list[VelocityReport]) -> None:
        """Correct each report's track or count it dropped; the ids in
        `batch` are distinct."""
        hits, rows, variances = [], [], []
        for report in batch:
            track = self.tracks.get(report.agent_id)
            if track is None:
                self.dropped_unknown += 1
                log.debug("dropping velocity for untracked agent %d", report.agent_id)
                continue
            s = self.params.vel_sigma if report.sigma is None else report.sigma
            hits.append(track)
            rows.append(report.velocity)
            variances.append(s**2)
        self._correct(hits, kalman.H_VEL, rows, variances)

    def _correct(
        self,
        tracks: list[NeighborTrack],
        h: np.ndarray,
        z: list[np.ndarray],
        variances: list[float],
    ) -> None:
        """One stacked correction with R = variance * I per track."""
        if not tracks:
            return
        states, covs = kalman.correct_stack(
            np.array([t.state for t in tracks]),
            np.array([t.cov for t in tracks]),
            h,
            np.array(z, dtype=float),
            np.array(variances)[:, None, None] * np.eye(2),
            names=[f"track-{t.agent_id}" for t in tracks],
        )
        for track, x, p in zip(tracks, states, covs):
            track.state, track.cov = x, p
            track.staleness = 0.0

    def snapshot(self) -> list[TrackView]:
        """Read-only view for the controller and velocity inference, sorted
        by id for determinism."""
        return [
            TrackView(
                agent_id=tid,
                position=track.state[:2].copy(),
                velocity=track.state[2:4].copy(),
                staleness=track.staleness,
            )
            for tid, track in sorted(self.tracks.items())
        ]


def _rounds(items, key) -> list[list]:
    """Sort `items` by key and split them into successive batches in which
    each key appears once: the k-th item with a given key lands in batch k."""
    batches: list[list] = []
    seen: dict[int, int] = {}
    for item in sorted(items, key=key):
        k = seen.get(key(item), 0)
        seen[key(item)] = k + 1
        if k == len(batches):
            batches.append([])
        batches[k].append(item)
    return batches
