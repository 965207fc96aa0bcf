"""The per-agent sensing and per-receiver comm code that `fastflock.sensors`
replaced, kept verbatim as the bit-for-bit reference for the swarm-wide
`observe` and `CommChannel`.

`observe` senses for one observer from its row of the pairwise geometry,
one candidate at a time; `CommChannel` is one receiver's inbox. Each draws
from its generator in the order the swarm-wide code must reproduce. Only
`fastflock.geometry` is imported, for the angle wrap both sides share, and
the config parameters lost their type hints, whose classes live in
`fastflock.sensors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fastflock.geometry import wrap_angle


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


def observe(
    rel: np.ndarray,
    dist: np.ndarray,
    observer_id: int,
    observer_heading: float,
    config,
    rng: np.random.Generator,
    stamp: float,
) -> list[RelativeObservation]:
    """Bearing/range observations of every agent inside range and field of
    view, each surviving an independent dropout draw. `rel` (N, 2) and
    `dist` (N,) are the observer's row of `geometry.pairwise` over the true
    positions, indexed by agent id. Bearings are reported in the observer's
    body frame."""
    # The observer's own distance is 0, so the coincidence floor drops it.
    in_range = (dist <= config.max_range) & (dist >= 1e-9)
    out = []
    for agent_id in np.flatnonzero(in_range).tolist():
        distance = float(dist[agent_id])
        offset = rel[agent_id]
        body_bearing = wrap_angle(
            math.atan2(offset[1], offset[0]) - observer_heading
        )
        if abs(body_bearing) > config.fov / 2.0:
            continue
        if rng.random() < config.dropout_prob:
            continue
        noisy_bearing = wrap_angle(
            body_bearing + rng.normal(0.0, config.bearing_sigma)
        )
        noisy_distance = distance * (1.0 + rng.normal(0.0, config.range_sigma_rel))
        out.append(
            RelativeObservation(
                observer_id=observer_id,
                observed_id=agent_id,
                bearing=noisy_bearing,
                distance=max(noisy_distance, 1e-3),
                stamp=stamp,
            )
        )
    return out


class CommChannel:
    """Per-receiver broadcast inbox with latency and per-message drops."""

    def __init__(self, config, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self._queue: list[tuple[int, int, np.ndarray]] = []

    def send(self, tick: int, sender_ids: Sequence[int],
             velocities: Sequence[np.ndarray]) -> None:
        """Queue one tick's broadcasts, in the order given: one uniform draw
        per message decides whether it is dropped."""
        kept = self.rng.random(len(sender_ids)) >= self.config.drop_prob
        due = tick + self.config.latency_ticks
        self._queue.extend(
            (due, sender_id, np.asarray(velocity))
            for sender_id, velocity, keep in zip(sender_ids, velocities, kept)
            if keep
        )

    def deliver(self, tick: int) -> list[tuple[int, np.ndarray]]:
        due = [(s, v) for t, s, v in self._queue if t <= tick]
        self._queue = [item for item in self._queue if item[0] > tick]
        return due
