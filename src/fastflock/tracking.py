"""The swarm's bank of per-neighbor Kalman filters.

Each observer gets one constant-acceleration filter per agent it can see,
fed by bearing/range observations (converted into the observer's local frame)
and by communicated or inferred velocities. One bank holds the filters of the
whole swarm; an observer's filters take only its own inputs, so no observer's
tracks depend on another's.

The filters are independent, so the bank runs them as stacks across the
swarm: `step` makes one stacked predict of every track of every observer,
and `apply_tick` one stacked correction per measurement kind (positions, then
velocities), rows in ascending id within each observer. Tracks stay in one
dict per observer, keyed by id; a stack is gathered from them and the
results written back. A single-observer bank is the one-row case of the same
code, the way `kalman.predict` is the K = 1 case of `kalman.predict_stack`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    """One Kalman filter per (observer, observed agent): `tracks[e]` holds
    observer e's filters keyed by the observed id. The drop counters are
    totals over the swarm."""

    def __init__(self, params: TrackParams, dt: float, n_observers: int = 1):
        self.params = params
        self.model = kalman.constant_acceleration_model(
            dt, np.asarray(params.q_rate) * dt
        )
        self.tracks: list[dict[int, NeighborTrack]] = [
            {} for _ in range(n_observers)
        ]
        self.dropped_stale = 0
        self.dropped_unknown = 0

    def ingest_position(
        self,
        obs: RelativeObservation,
        observer_position: np.ndarray,
        observer_heading: float,
    ) -> None:
        """Apply one bearing/range observation to observer 0's tracks as a
        position correction.

        The first sighting of an id spawns a track at the measured position
        with zero velocity/acceleration and wide initial covariance.
        """
        self._ingest_positions(
            [(0, obs)], [observer_position], [rotation(observer_heading)]
        )

    def ingest_velocity(
        self,
        agent_id: int,
        velocity: np.ndarray,
        sigma: float | None = None,
    ) -> None:
        """Apply a velocity correction to one of observer 0's tracks;
        velocities for ids it does not track are dropped."""
        self._ingest_velocities([(0, VelocityReport(agent_id, velocity, sigma))])

    def step(self, dt: float) -> None:
        """Predict every track of every observer forward and retire the
        stale ones."""
        if not dt > 0.0:
            raise ValueError("dt must be > 0")
        if dt != self.model.dt:
            self.model = kalman.constant_acceleration_model(
                dt, np.asarray(self.params.q_rate) * dt
            )
        tracks = [t for bank in self.tracks for t in bank.values()]
        if tracks:
            owners = [e for e, bank in enumerate(self.tracks) for _ in bank]
            with kalman.owned_rows(owners):
                states, covs = kalman.predict_stack(
                    np.array([t.state for t in tracks]),
                    np.array([t.cov for t in tracks]),
                    self.model,
                    names=[f"track-{t.agent_id}" for t in tracks],
                )
            for track, x, p in zip(tracks, states, covs):
                track.state, track.cov = x, p
                track.staleness += dt
        drop_after = self.params.drop_after
        for bank in self.tracks:
            for tid in [t for t, tr in bank.items() if tr.staleness > drop_after]:
                del bank[tid]

    def apply_tick(
        self,
        observations: Sequence[Sequence[RelativeObservation]],
        velocities: Sequence[Sequence[VelocityReport]],
        observer_positions: Sequence[np.ndarray],
        observer_headings: Sequence[float],
    ) -> None:
        """Apply one tick's inputs of every observer: `observations[e]` and
        `velocities[e]` are observer e's, taken from `observer_positions[e]`
        with heading `observer_headings[e]`; an observer may have none.

        Within each observer the order is canonical: position corrections by
        ascending id, then velocity corrections by ascending id, which makes
        the bank state independent of input-list permutations. Each kind
        runs as one stacked correction over the swarm; an id that repeats
        within an observer's tick goes into a later stack, so its inputs
        apply in order."""
        batches = _rounds(observations, lambda o: o.observed_id)
        if batches:
            positions = np.asarray(observer_positions, dtype=float)
            rotations = np.array([rotation(h) for h in observer_headings])
        for batch in batches:
            self._ingest_positions(batch, positions, rotations)
        for batch in _rounds(velocities, lambda r: r.agent_id):
            self._ingest_velocities(batch)

    def _ingest_positions(
        self,
        batch: list[tuple[int, RelativeObservation]],
        positions,
        rotations,
    ) -> None:
        """Spawn, drop as stale, or correct each (observer, observation)
        pair; observer e sits at positions[e] with heading rotation
        rotations[e], and no pair repeats within `batch`."""
        observers = [e for e, _ in batch]
        local = np.array(
            [
                [o.distance * math.cos(o.bearing), o.distance * math.sin(o.bearing)]
                for _, o in batch
            ]
        )
        origins = np.array([positions[e] for e in observers])
        turns = np.array([rotations[e] for e in observers])
        zs = origins + (turns @ local[..., None])[..., 0]
        hits, owners, rows, variances = [], [], [], []
        for (e, obs), z in zip(batch, zs):
            var = self.params.pos_sigma(obs.distance) ** 2
            bank = self.tracks[e]
            track = bank.get(obs.observed_id)
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
                bank[obs.observed_id] = NeighborTrack(
                    agent_id=obs.observed_id,
                    state=np.concatenate([z, np.zeros(4)]),
                    cov=cov,
                    last_pos_stamp=obs.stamp,
                )
            elif obs.stamp < track.last_pos_stamp:
                self.dropped_stale += 1
                log.debug(
                    "agent %d dropping stale observation of %d (stamp %.3f < %.3f)",
                    e, obs.observed_id, obs.stamp, track.last_pos_stamp,
                )
            else:
                hits.append(track)
                owners.append(e)
                rows.append(z)
                variances.append(var)
                track.last_pos_stamp = obs.stamp
        self._correct(hits, owners, kalman.H_POS, rows, variances)

    def _ingest_velocities(self, batch: list[tuple[int, VelocityReport]]) -> None:
        """Correct each (observer, report) pair's track or count it dropped;
        no pair repeats within `batch`."""
        hits, owners, rows, variances = [], [], [], []
        for e, report in batch:
            track = self.tracks[e].get(report.agent_id)
            if track is None:
                self.dropped_unknown += 1
                log.debug("agent %d dropping velocity for untracked agent %d",
                          e, report.agent_id)
                continue
            s = self.params.vel_sigma if report.sigma is None else report.sigma
            hits.append(track)
            owners.append(e)
            rows.append(report.velocity)
            variances.append(s**2)
        self._correct(hits, owners, kalman.H_VEL, rows, variances)

    def _correct(
        self,
        tracks: list[NeighborTrack],
        owners: list[int],
        h: np.ndarray,
        z: list[np.ndarray],
        variances: list[float],
    ) -> None:
        """One stacked correction with R = variance * I per track; owners[i]
        is the observer holding tracks[i]."""
        if not tracks:
            return
        with kalman.owned_rows(owners):
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

    def snapshot(self) -> list[list[TrackView]]:
        """Read-only views for the controller and velocity inference, one
        list per observer, sorted by id for determinism."""
        return [
            [
                TrackView(tid, track.state[:2].copy(), track.state[2:4].copy(),
                          track.staleness)
                for tid, track in sorted(bank.items())
            ]
            for bank in self.tracks
        ]


def _rounds(inputs: Sequence[Sequence], key) -> list[list[tuple[int, object]]]:
    """Pair each input with its observer (`inputs[e]` are observer e's) and
    split the pairs into successive batches in which each (observer, key)
    appears once: the k-th input an observer has with a given key lands in
    batch k. Each batch is sorted by observer, then by key."""
    batches: list[list] = []
    for e, items in enumerate(inputs):
        k, last = 0, None
        for item in sorted(items, key=key):
            k = k + 1 if key(item) == last else 0
            last = key(item)
            if k == len(batches):
                batches.append([])
            batches[k].append((e, item))
    return batches
