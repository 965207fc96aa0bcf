"""Seeded emulation of the onboard sensor suite.

Relative localization: bearing/range sightings with a rear blind spot,
per-tick dropouts, additive bearing noise, and multiplicative range noise
(range inaccuracy grows with distance). `observe` senses the whole swarm
once per tick from the tick's pairwise geometry (`geometry.pairwise`): the
range and field-of-view tests run on arrays, the noise stays scalar draws
from each observer's own stream, and the result is one flat
`tracking.Sightings`. VIO: a drifting position and a noisy velocity from a
feature population, fixed here, that starves with ground speed; each sample
carries its quality score (`vio_quality`), which the fusion weight follows.
Communication: an optional broadcast channel with latency and drops, one
for the swarm, which queues one keep mask per broadcast and delivers
`tracking.Velocities`.
Everything is deterministic given the RNG streams handed in by the
simulation engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ego_estimation import VioSample
from .geometry import bearings, wrap_angles
from .tracking import Sightings, Velocities


# The VIO feature population: at most MAX_FEATURES tracks, STABLE_CAP of
# them long-lived (mean life STABLE_LIFE s), the rest transient (mean life
# TRANSIENT_LIFE s). The count falls linearly with ground speed to 0 at
# STARVE_SPEED m/s.
MAX_FEATURES = 150
STARVE_SPEED = 10.0
STABLE_SHARE = 0.35
STABLE_CAP = int(round(STABLE_SHARE * MAX_FEATURES))
STABLE_LIFE = 30.0
TRANSIENT_LIFE = 1.0
# The quality score's reference age: the hover steady state's mean age times
# AGE_MARGIN, so that hover saturates the score instead of jittering just
# under 1.
AGE_MARGIN = 0.8
NOMINAL_TRACK_AGE = AGE_MARGIN * (
    STABLE_SHARE * STABLE_LIFE + (1.0 - STABLE_SHARE) * TRANSIENT_LIFE
)


@dataclass
class VioConfig:
    """Visual-odometry noise: the pose and velocity noise, the drift and the
    feature count's jitter."""

    pos_sigma: float = 0.05
    vel_sigma: float = 0.1
    drift_rate: float = 0.05  # m / sqrt(s) random-walk intensity
    count_sigma: float = 3.0


@dataclass
class CommConfig:
    """Broadcast channel settings. The engine delivers each tick's inboxes
    before it broadcasts, so a message sent at tick k is first delivered at
    tick k + max(latency_ticks, 1): latencies 0 and 1 fly alike."""

    latency_ticks: int = 0
    drop_prob: float = 0.0


@dataclass
class SensorConfig:
    """Relative-localization, IMU, and target-perception noise settings.

    The rear blind spot is whatever part of the circle the horizontal
    field of view leaves out.
    """

    bearing_sigma: float = math.radians(1.0)
    range_sigma_rel: float = 0.1
    dropout_prob: float = 0.05
    max_range: float = 50.0
    fov: float = math.radians(320.0)
    heading_mode: str = "velocity"  # velocity | goal
    imu_accel_sigma: float = 0.3
    target_sigma: float = 0.5
    vio: VioConfig = field(default_factory=VioConfig)
    comm: CommConfig = field(default_factory=CommConfig)


def observe(
    rel: np.ndarray,
    dist: np.ndarray,
    headings: Sequence[float],
    config: SensorConfig,
    rngs: Sequence[np.random.Generator],
    stamp: float,
) -> Sightings:
    """Bearing/range sightings by every agent of every other agent inside
    range and field of view, each surviving an independent dropout draw.
    `rel` (N, N, 2) and `dist` (N, N) are the tick's `geometry.pairwise`
    over the true positions, indexed by (observer, id); `headings` (N,) are
    the agents' headings and `rngs[i]` agent i's perception stream.

    Rows are ordered by observer, then by id, and bearings are reported in
    the observer's body frame. Each candidate draws from its observer's
    stream in that order: one uniform for the dropout and, when it survives,
    a bearing and a range normal. An error raised by the draws carries the
    observer as its `owner`."""
    headings = np.asarray(headings, dtype=float)
    # An agent's distance to itself is 0, so the coincidence floor drops it.
    e, j = np.nonzero((dist <= config.max_range) & (dist >= 1e-9))
    body = wrap_angles(bearings(rel[e, j]) - headings[e])
    visible = ~(np.abs(body) > config.fov / 2.0)
    e, j, body = e[visible], j[visible], body[visible]
    dropout, bearing_sigma = config.dropout_prob, config.bearing_sigma
    range_sigma = config.range_sigma_rel
    # Rows are ordered by observer: observer i's are bounds[i]:bounds[i + 1].
    bounds = np.searchsorted(e, np.arange(len(rngs) + 1)).tolist()
    kept, noise = [], []
    for observer, rng in enumerate(rngs):
        random, normal = rng.random, rng.normal
        try:
            for row in range(bounds[observer], bounds[observer + 1]):
                if random() < dropout:
                    continue
                kept.append(row)
                noise.append((normal(0.0, bearing_sigma),
                              normal(0.0, range_sigma)))
        except Exception as exc:
            exc.owner = observer
            raise
    bearing_noise, range_noise = np.array(noise, dtype=float).reshape(-1, 2).T
    e, j, body = e[kept], j[kept], body[kept]
    return Sightings(
        observer=e,
        ids=j,
        bearing=wrap_angles(body + bearing_noise),
        distance=np.maximum(dist[e, j] * (1.0 + range_noise), 1e-3),
        stamp=np.full(len(kept), stamp),
    )


def vio_quality(count: int, ages: np.ndarray) -> float:
    """Quality score of a VIO sample in [0, 1]: the feature count relative
    to capacity times the summed age of the surviving tracks relative to
    capacity at the nominal age."""
    value = count * float(np.sum(ages)) / (NOMINAL_TRACK_AGE * MAX_FEATURES**2)
    return min(max(value, 0.0), 1.0)


class VioEmulator:
    """Drifting pose source with speed-dependent feature-count dynamics.

    Speed starvation removes transient features first, so the surviving
    features during fast flight are the old stable core. The pool starts
    warm (ages sampled at the hover steady state) so the reported quality
    begins near its nominal value, the way a converged VIO behaves after
    initialization.
    """

    def __init__(self, config: VioConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self.drift = np.zeros(2)
        self._stable = rng.exponential(STABLE_LIFE, size=STABLE_CAP)
        self._transient = rng.exponential(
            TRANSIENT_LIFE, size=MAX_FEATURES - STABLE_CAP
        )

    def _resize(self, pool: np.ndarray, target: int) -> np.ndarray:
        if len(pool) > target:
            # Capacity shrink drops the youngest (weakest) tracks first.
            return np.sort(pool)[len(pool) - target:]
        if len(pool) < target:
            return np.concatenate([pool, np.zeros(target - len(pool))])
        return pool

    def sample(
        self,
        true_position: np.ndarray,
        true_velocity: np.ndarray,
        dt: float,
    ) -> VioSample:
        config = self.config
        self.drift = self.drift + self.rng.normal(
            0.0, config.drift_rate * math.sqrt(dt), size=2
        )
        position = true_position + self.drift + self.rng.normal(
            0.0, config.pos_sigma, size=2
        )
        velocity = true_velocity + self.rng.normal(0.0, config.vel_sigma, size=2)
        # Two standard normals are drawn and dropped: the stream reserves
        # them, as `normal(0, s, 2)` takes exactly two for any s (0
        # included), so that every later feature-count and pool draw, and
        # with it each seed's flight, keeps its place in the stream.
        self.rng.standard_normal(2)

        speed = float(np.linalg.norm(true_velocity))
        fraction = max(0.0, 1.0 - speed / STARVE_SPEED)
        count = MAX_FEATURES * fraction + self.rng.normal(
            0.0, config.count_sigma
        )
        count = int(round(min(max(count, 0.0), MAX_FEATURES)))

        # Age and churn the pools, then fit them to the starved capacity.
        self._stable = self._stable + dt
        self._transient = self._transient + dt
        self._stable = self._stable[
            self.rng.random(len(self._stable)) > dt / STABLE_LIFE
        ]
        self._transient = self._transient[
            self.rng.random(len(self._transient)) > dt / TRANSIENT_LIFE
        ]
        stable_target = min(STABLE_CAP, count)
        self._stable = self._resize(self._stable, stable_target)
        self._transient = self._resize(self._transient, count - stable_target)

        ages = np.concatenate([self._stable, self._transient])
        return VioSample(position, velocity, vio_quality(count, ages))


class CommChannel:
    """The swarm's broadcast channel: every agent's velocity goes to every
    other agent, each message dropped independently, and falls due
    `latency_ticks` after it was sent. `deliver` hands it over at its first
    call for a tick at or past that; the engine delivers before it
    broadcasts, so with latency 0 that is the next tick's call.
    `rngs[r]` is receiver r's stream. The queue holds one (N, N) keep mask
    per broadcast, indexed by (receiver, sender)."""

    def __init__(self, config: CommConfig,
                 rngs: Sequence[np.random.Generator]):
        self.config = config
        self.rngs = list(rngs)
        self._others = ~np.eye(len(self.rngs), dtype=bool)
        self._queue: list[tuple[int, np.ndarray, np.ndarray]] = []

    def send(self, tick: int, velocities: Sequence[np.ndarray]) -> None:
        """Queue one tick's broadcast of `velocities` (N, 2), agent i's in
        row i: each receiver draws one uniform per message, over the other
        agents in id order, and drops the message when it falls below
        `drop_prob`."""
        n = len(self.rngs)
        draws = np.array([rng.random(n - 1) for rng in self.rngs])
        keep = np.zeros((n, n), dtype=bool)
        keep[self._others] = (draws >= self.config.drop_prob).ravel()
        self._queue.append((tick + self.config.latency_ticks, keep,
                            np.array(velocities, dtype=float)))

    def deliver(self, tick: int) -> Velocities:
        """Every queued message due by `tick`, ordered by receiver, then by
        the broadcast it came in, then by sender."""
        due = [item for item in self._queue if item[0] <= tick]
        self._queue = [item for item in self._queue if item[0] > tick]
        if not due:
            return Velocities.from_rows([])
        keep = np.stack([mask for _, mask, _ in due], axis=1)
        receiver, batch, sender = np.nonzero(keep)
        velocities = np.stack([v for _, _, v in due])
        return Velocities(receiver, sender, velocities[batch, sender])
