"""The dict-based neighbour bank, kept as a reference for the table in
`fastflock.tracking`, and a helper that builds track tables for tests.

`DictBank` is the bank the table replaced: one dict of `NeighborTrack`
objects per observer, keyed by id, with the inputs of a tick split into
rounds in which each (observer, id) appears once. It shares the Kalman
arithmetic of `fastflock.kalman` on purpose, since that has its own oracle;
what it pins is the bookkeeping (spawns, stale drops, unknown velocities,
staleness and stamps, the order of the corrections), so the tests compare
it with the table bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from fastflock import kalman
from fastflock.geometry import rotation


class TrackView(NamedTuple):
    """One track as a test writes it down."""

    agent_id: int
    position: np.ndarray
    velocity: np.ndarray
    staleness: float = 0.0


def table(rows: Sequence[Sequence[TrackView]], width: int | None = None
          ) -> tuple[np.ndarray, np.ndarray]:
    """The track table holding `rows`, one row per observer: states
    (E, width, 6) and the mask tracks (E, width), the column being the id.
    `width` defaults to one more than the largest id."""
    ids = [v.agent_id for row in rows for v in row]
    width = max(ids, default=-1) + 1 if width is None else width
    states = np.zeros((len(rows), width, 6))
    tracks = np.zeros((len(rows), width), dtype=bool)
    for e, row in enumerate(rows):
        for v in row:
            states[e, v.agent_id, :2] = v.position
            states[e, v.agent_id, 2:4] = v.velocity
            tracks[e, v.agent_id] = True
    return states, tracks


def views(states: np.ndarray, tracks: np.ndarray) -> list[TrackView]:
    """One row of a track table as views sorted by id."""
    return [TrackView(j, states[j, :2], states[j, 2:4])
            for j in np.flatnonzero(tracks).tolist()]


@dataclass
class NeighborTrack:
    agent_id: int
    state: np.ndarray
    cov: np.ndarray
    last_pos_stamp: float
    staleness: float = 0.0


class DictBank:
    """`tracks[e]` holds observer e's filters keyed by the observed id.
    `params` is a `fastflock.tracking.TrackParams`; inputs are, per
    observer, lists of sightings (records with `observed_id`, `bearing`,
    `distance` and `stamp`) and of (id, velocity) pairs."""

    def __init__(self, params, dt: float, n_observers: int):
        self.params = params
        self.model = kalman.constant_acceleration_model(
            dt, np.asarray(params.q_rate) * dt
        )
        self.tracks: list[dict[int, NeighborTrack]] = [
            {} for _ in range(n_observers)
        ]
        self.dropped_stale = 0
        self.dropped_unknown = 0

    def step(self) -> None:
        dt = self.model.dt
        tracks = [t for bank in self.tracks for t in bank.values()]
        if tracks:
            states, covs = kalman.predict_stack(
                np.array([t.state for t in tracks]),
                np.array([t.cov for t in tracks]),
                self.model,
            )
            for track, x, p in zip(tracks, states, covs):
                track.state, track.cov = x, p
                track.staleness += dt
        drop_after = self.params.drop_after
        for bank in self.tracks:
            for tid in [t for t, tr in bank.items() if tr.staleness > drop_after]:
                del bank[tid]

    def apply_tick(self, observations, velocities, observer_positions,
                   observer_headings) -> None:
        batches = _rounds(observations, lambda o: o.observed_id)
        if batches:
            positions = np.asarray(observer_positions, dtype=float)
            rotations = np.array([rotation(h) for h in observer_headings])
        for batch in batches:
            self._ingest_positions(batch, positions, rotations)
        for batch in _rounds(velocities, lambda r: r[0]):
            self._ingest_velocities(batch)

    def _ingest_positions(self, batch, positions, rotations) -> None:
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
        hits, rows, variances = [], [], []
        for (e, obs), z in zip(batch, zs):
            var = float(self.params.pos_variances([obs.distance])[0])
            bank = self.tracks[e]
            track = bank.get(obs.observed_id)
            if track is None:
                cov = np.diag([var, var, self.params.init_vel_var,
                               self.params.init_vel_var, self.params.init_acc_var,
                               self.params.init_acc_var])
                bank[obs.observed_id] = NeighborTrack(
                    agent_id=obs.observed_id,
                    state=np.concatenate([z, np.zeros(4)]),
                    cov=cov,
                    last_pos_stamp=obs.stamp,
                )
            elif obs.stamp < track.last_pos_stamp:
                self.dropped_stale += 1
            else:
                hits.append(track)
                rows.append(z)
                variances.append(var)
                track.last_pos_stamp = obs.stamp
        self._correct(hits, kalman.H_POS, rows, variances)

    def _ingest_velocities(self, batch) -> None:
        hits, rows, variances = [], [], []
        for e, (agent_id, velocity) in batch:
            track = self.tracks[e].get(agent_id)
            if track is None:
                self.dropped_unknown += 1
                continue
            hits.append(track)
            rows.append(velocity)
            variances.append(self.params.vel_sigma**2)
        self._correct(hits, kalman.H_VEL, rows, variances)

    def _correct(self, tracks, h, z, variances) -> None:
        if not tracks:
            return
        states, covs = kalman.correct_stack(
            np.array([t.state for t in tracks]),
            np.array([t.cov for t in tracks]),
            h,
            np.array(z, dtype=float),
            np.array(variances),
        )
        for track, x, p in zip(tracks, states, covs):
            track.state, track.cov = x, p
            track.staleness = 0.0


def _rounds(inputs: Sequence[Sequence], key) -> list[list[tuple[int, object]]]:
    """Pair each input with its observer and split the pairs into batches
    in which each (observer, key) appears once, each sorted by observer,
    then by key."""
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
