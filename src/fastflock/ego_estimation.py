"""Self-state estimation from neighbor observations, fused with VIO.

The focal agent estimates its own lateral state by running a Kalman filter
whose model is driven by the commanded velocity through the plant's lag,
corrected with position fixes derived from the tracked neighborhood and with
IMU accelerations. The result's position and velocity are blended with the
visual-odometry stream using an adaptive weight that follows each VIO
sample's quality score (`sensors.vio_quality`).

The swarm's position fixes, filters and fusion, the weight's slew included,
run as one call per tick over rows, one per agent (`position_fix`,
`SelfStateFilter`, `OdometryFusion`). The fusion holds the swarm's fused
state, which the rest of the tick reads. The filter's process noise, initial
variance and fix noise and the weight's slew rate are fixed here; the lag
and the IMU noise come from the scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kalman
from .tracking import Sightings

# The self-state filter's per-second process-noise intensity of each state
# (position, velocity, acceleration; x and y), its initial variances, and
# the assumed deviation of a neighborhood position fix.
Q_RATE = (1e-4, 1e-4, 0.05, 0.05, 0.5, 0.5)
INIT_VAR = (0.01, 0.01, 0.25, 0.25, 0.25, 0.25)
FIX_SIGMA = 1.5
# The fusion weight's slew rate toward the quality score, per second.
FUSION_RATE = 0.2


def focal_model(dt: float, tau: float, q_diag) -> kalman.LkfModel:
    """Kinematic model with a first-order velocity lag toward the commanded
    velocity: velocity rows decay by exp(-dt/tau) and receive (1 - exp(-dt/tau))
    of the command: the a and b of `ResponseModel.of_plant(dt, tau)`."""
    base = kalman.constant_acceleration_model(dt, q_diag)
    e_d = math.exp(-dt / tau)
    base.a[2, 2] = base.a[3, 3] = e_d
    b = np.zeros((6, 2))
    b[2, 0] = b[3, 1] = 1.0 - e_d
    return kalman.LkfModel(a=base.a, b=b, q=base.q, dt=dt)


class SelfStateFilter:
    """Kalman filters over each agent's own lateral state, one row per agent:
    `state` is (N, 6) and `cov` (N, 6, 6). The rows are independent, so a
    swarm's filters run as stacks; one agent's filter is the one-row case.
    `tau` is the plant's lag, `accel_sigma` the assumed IMU noise.

    Also dead-reckons a velocity-integral position (`integral_position`,
    (N, 2)): the position obtained by integrating the velocity estimate
    alone, with no position corrections, kept as a degradation comparator.
    """

    def __init__(self, tau: float, accel_sigma: float, dt: float,
                 initial_positions):
        positions = np.array(initial_positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("initial positions must be (N, 2)")
        self.accel_sigma = accel_sigma
        self.model = focal_model(dt, tau, np.asarray(Q_RATE) * dt)
        self.state = np.zeros((len(positions), 6))
        self.state[:, :2] = positions
        self.cov = np.repeat(np.diag(INIT_VAR).astype(float)[None],
                             len(positions), axis=0)
        self.integral_position = positions

    def step(self, commands: np.ndarray, fixes: np.ndarray, fixed: np.ndarray,
             accels: np.ndarray | None) -> np.ndarray:
        """Predict every row one step with its commanded velocity (N, 2) as
        input, then correct with the position fixes (N, 2) of the rows where
        `fixed` (N,) holds and with the IMU accelerations (N, 2), unless
        None, of every row. Returns a copy of the states, (N, 6)."""
        rows = np.arange(len(self.state))
        with kalman.owned_rows(rows):
            self.state, self.cov = kalman.predict_stack(
                self.state, self.cov, self.model,
                np.asarray(commands, dtype=float), ["self-state"] * len(rows),
            )
        fixed = np.flatnonzero(fixed)
        self._correct(kalman.H_POS, fixed, fixes[fixed], FIX_SIGMA)
        if accels is not None:
            self._correct(kalman.H_ACC, rows, accels, self.accel_sigma)
        self.integral_position = (self.integral_position
                                  + self.state[:, 2:4] * self.model.dt)
        return self.state.copy()

    def _correct(self, h: np.ndarray, rows: np.ndarray, z: np.ndarray,
                 sigma: float) -> None:
        """One stacked correction of the rows `rows` with measurements z
        (len(rows), 2) and R = sigma^2 I."""
        if not len(rows):
            return
        with kalman.owned_rows(rows):
            x, p = kalman.correct_stack(
                self.state[rows], self.cov[rows], h, z,
                np.full(len(rows), sigma**2), ["self-state"] * len(rows),
            )
        self.state[rows], self.cov[rows] = x, p


def position_fix(states: np.ndarray, tracks: np.ndarray, sightings: Sightings,
                 offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's own-position fix from the neighbors it both tracks and
    freshly sights: the mean of its candidates, tracked position minus the
    sighted world-frame offset (`offsets` (K, 2)), on the track bank's table
    `states` (N, N, 6) and `tracks` (N, N). Returns the fixes (N, 2) and the
    mask (N,) of the agents that have one; the other rows mean nothing."""
    seen = tracks[sightings.observer, sightings.ids]
    e = sightings.observer[seen]
    candidates = states[e, sightings.ids[seen], :2] - offsets[seen]
    # The sums start from -0.0, the identity of +, and add each agent's
    # candidates one after another, as np.mean over the agent's rows does.
    total = np.full((len(tracks), 2), -0.0)
    np.add.at(total, e, candidates)
    count = np.bincount(e, minlength=len(tracks))
    return total / np.maximum(count, 1)[:, None], count > 0


@dataclass
class VioSample:
    """One visual-odometry output: pose and velocity, and the quality score
    in [0, 1] that the fusion weight follows (`sensors.vio_quality`)."""

    position: np.ndarray
    velocity: np.ndarray
    quality: float


def slew_weight(current: np.ndarray, target: np.ndarray, rate: float,
                dt: float) -> np.ndarray:
    """Move each fusion weight toward its target by rate*dt, stopping
    exactly at the target (no limit-cycle chatter around it), then clip it
    to [0, 1]."""
    step = rate * dt
    value = np.where(np.abs(current - target) <= step, target,
                     np.where(current > target, current - step, current + step))
    return np.clip(value, 0.0, 1.0)


# Every agent starts out trusting VIO fully.
INITIAL_VIO_WEIGHT = 1.0


class OdometryFusion:
    """Position-delta blending of the VIO stream against the self-state
    estimate, one row per agent; runs outside the Kalman filter so either
    source can be swapped. One agent's fusion is the one-row case.

    The swarm's fused state lives here: `position` and `velocity` (N, 2),
    the weight on VIO `vio_weight` and its quality score `weight_target`
    (N,). It starts at the start positions, at rest, trusting VIO fully.
    Velocity is a convex combination of the two sources; position
    integrates the weighted deltas of both, from the first sample, which
    anchors it.
    """

    def __init__(self, positions):
        self.position = np.array(positions, dtype=float)
        self.velocity = np.zeros_like(self.position)
        self.vio_weight = np.full(len(self.position), INITIAL_VIO_WEIGHT)
        self.weight_target = self.vio_weight.copy()
        self._prev_vio: np.ndarray | None = None
        self._prev_state: np.ndarray | None = None

    def advance(self, samples: Sequence[VioSample], own_states: np.ndarray,
                dt: float) -> None:
        """Slew each row's weight toward its sample's quality score at
        `FUSION_RATE`, then blend row e's sample with its self-state
        `own_states[e]` (N, 6), row e with weight `vio_weight[e]` on VIO."""
        targets = np.array([sample.quality for sample in samples], dtype=float)
        weight = slew_weight(self.vio_weight, targets, FUSION_RATE, dt)
        w = weight[:, None]
        vio_position = np.array([sample.position for sample in samples])
        state_position = np.array(own_states[:, :2], dtype=float)
        if self._prev_vio is None:
            self.position = w * vio_position + (1.0 - w) * state_position
        else:
            delta_vio = vio_position - self._prev_vio
            delta_state = state_position - self._prev_state
            self.position = self.position + w * delta_vio + (1.0 - w) * delta_state
        self._prev_vio = vio_position
        self._prev_state = state_position
        self.velocity = (w * np.array([sample.velocity for sample in samples])
                         + (1.0 - w) * own_states[:, 2:4])
        self.vio_weight = weight
        self.weight_target = targets
