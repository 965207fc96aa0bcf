"""Seeded emulation of the onboard sensor suite.

Relative localization: bearing/range observations with a rear blind spot,
per-tick dropouts, additive bearing noise, and multiplicative range noise
(range inaccuracy grows with distance), read from the observer's row of the
tick's pairwise geometry (`geometry.pairwise`). VIO: drifting pose whose
feature population starves with ground speed. Communication: an optional
broadcast channel with latency and drops. Everything is deterministic given the RNG
streams handed in by the simulation engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ego_estimation import VioSample
from .geometry import TWO_PI, wrap_angle
from .tracking import RelativeObservation


@dataclass
class VioConfig:
    """Visual-odometry emulation parameters.

    Feature population is split into long-lived stable tracks and
    short-lived transient ones; speed starvation removes transients first,
    so the surviving features during fast flight are the old stable core.
    nominal_track_age is the hover steady-state mean age and serves as the
    reference age scale reported with every sample.
    """

    pos_sigma: float = 0.05
    vel_sigma: float = 0.1
    accel_sigma: float = 0.2
    drift_rate: float = 0.05  # m / sqrt(s) random-walk intensity
    max_features: int = 150
    starve_speed: float = 10.0  # m/s at which the feature count reaches zero
    count_sigma: float = 3.0
    stable_share: float = 0.35
    stable_life: float = 30.0
    transient_life: float = 1.0
    # Reference age sits below the hover steady state so nominal operation
    # saturates the quality score instead of jittering just under 1.
    age_margin: float = 0.8

    @property
    def nominal_track_age(self) -> float:
        return self.age_margin * (
            self.stable_share * self.stable_life
            + (1.0 - self.stable_share) * self.transient_life
        )


@dataclass
class CommConfig:
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

    def __post_init__(self):
        if not 0.0 < self.fov <= TWO_PI:
            raise ValueError("fov must lie in (0, 2*pi]")
        if self.heading_mode not in ("velocity", "goal"):
            raise ValueError("heading_mode must be 'velocity' or 'goal'")


def observe(
    rel: np.ndarray,
    dist: np.ndarray,
    observer_id: int,
    observer_heading: float,
    config: SensorConfig,
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


class VioEmulator:
    """Drifting pose source with speed-dependent feature-count dynamics.

    The pool starts warm (ages sampled at the hover steady state) so the
    reported quality begins near its nominal value, the way a converged
    VIO behaves after initialization.
    """

    def __init__(
        self, config: VioConfig, initial_position, rng: np.random.Generator
    ):
        self.config = config
        self.rng = rng
        self.drift = np.zeros(2)
        stable_cap = int(round(config.stable_share * config.max_features))
        self._stable = rng.exponential(config.stable_life, size=stable_cap)
        self._transient = rng.exponential(
            config.transient_life, size=config.max_features - stable_cap
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
        true_acceleration: np.ndarray,
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
        acceleration = true_acceleration + self.rng.normal(
            0.0, config.accel_sigma, size=2
        )

        speed = float(np.linalg.norm(true_velocity))
        fraction = max(0.0, 1.0 - speed / config.starve_speed)
        count = config.max_features * fraction + self.rng.normal(
            0.0, config.count_sigma
        )
        count = int(round(min(max(count, 0.0), config.max_features)))

        # Age and churn the pools, then fit them to the starved capacity.
        self._stable = self._stable + dt
        self._transient = self._transient + dt
        self._stable = self._stable[
            self.rng.random(len(self._stable)) > dt / config.stable_life
        ]
        self._transient = self._transient[
            self.rng.random(len(self._transient)) > dt / config.transient_life
        ]
        stable_cap = int(round(config.stable_share * config.max_features))
        stable_target = min(stable_cap, count)
        self._stable = self._resize(self._stable, stable_target)
        self._transient = self._resize(self._transient, count - stable_target)

        ages = np.concatenate([self._stable, self._transient])
        return VioSample(
            position=position,
            velocity=velocity,
            acceleration=acceleration,
            feature_count=count,
            max_features=config.max_features,
            track_ages=ages,
            mean_track_age=config.nominal_track_age,
        )


class CommChannel:
    """Per-receiver broadcast inbox with latency and per-message drops."""

    def __init__(self, config: CommConfig, rng: np.random.Generator):
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
