"""Self-state estimation from neighbor observations, fused with VIO.

The focal agent estimates its own lateral state by running a Kalman filter
whose model is driven by the commanded velocity through the plant's lag,
corrected with position fixes derived from the tracked neighborhood and with
IMU accelerations. The result's position and velocity are blended with the
visual-odometry stream using an adaptive weight that follows each VIO
sample's quality score (`sensors.vio_quality`).

The swarm's filters and fusion run as one call per tick over rows, one per
agent (`SelfStateFilter`, `OdometryFusion`); the position fix and the
weight's slew stay per agent. The fusion holds the swarm's fused state,
which the rest of the tick reads. The filter's process noise, initial
variance and fix noise and the weight's slew rate are fixed here; the lag
and the IMU noise come from the scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kalman

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

    def step(
        self,
        commands: Sequence[np.ndarray],
        fixes: Sequence[np.ndarray | None],
        accels: Sequence[np.ndarray | None],
    ) -> np.ndarray:
        """Predict every row one step with its commanded velocity as input,
        then correct with the position fixes and the IMU accelerations (in
        that order), each over the rows whose input is not None. Returns a
        copy of the states, (N, 6)."""
        with kalman.owned_rows(range(len(self.state))):
            self.state, self.cov = kalman.predict_stack(
                self.state, self.cov, self.model,
                np.asarray(commands, dtype=float), ["self-state"] * len(self.state),
            )
        self._correct(kalman.H_POS, fixes, FIX_SIGMA)
        self._correct(kalman.H_ACC, accels, self.accel_sigma)
        self.integral_position = (self.integral_position
                                  + self.state[:, 2:4] * self.model.dt)
        return self.state.copy()

    def _correct(self, h: np.ndarray, zs, sigma: float) -> None:
        """One stacked correction of the rows whose measurement is given,
        with R = sigma^2 I."""
        rows = [e for e, z in enumerate(zs) if z is not None]
        if not rows:
            return
        with kalman.owned_rows(rows):
            x, p = kalman.correct_stack(
                self.state[rows], self.cov[rows], h,
                np.array([zs[e] for e in rows], dtype=float),
                np.full(len(rows), sigma**2), ["self-state"] * len(rows),
            )
        self.state[rows], self.cov[rows] = x, p


def position_fix(
    state: np.ndarray,
    tracks: np.ndarray,
    ids: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray | None:
    """Own-position candidates from every neighbor that is both tracked and
    freshly sighted: tracked position minus the sighted world-frame offset.
    `state` and `tracks` are the observer's row of the track bank, indexed
    by id; `ids` (k,) and `offsets` (k, 2) are the observer's rows of the
    tick's sightings and their `tracking.world_offsets`. Returns the
    candidates' mean, or None when no neighbor qualifies."""
    seen = tracks[ids]
    if not seen.any():
        return None
    return np.mean(state[ids[seen], :2] - offsets[seen], axis=0)


@dataclass
class VioSample:
    """One visual-odometry output: pose and velocity, and the quality score
    in [0, 1] that the fusion weight follows (`sensors.vio_quality`)."""

    position: np.ndarray
    velocity: np.ndarray
    quality: float


def slew_weight(current: float, target: float, rate: float, dt: float) -> float:
    """Move the fusion weight toward its target by rate*dt, stopping exactly
    at the target (no limit-cycle chatter around it)."""
    step = rate * dt
    if abs(current - target) <= step:
        value = target
    elif current > target:
        value = current - step
    else:
        value = current + step
    return min(max(value, 0.0), 1.0)


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
        targets = [sample.quality for sample in samples]
        weight = np.array([slew_weight(current, target, FUSION_RATE, dt)
                           for current, target in zip(self.vio_weight.tolist(),
                                                      targets)])
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
        self.weight_target = np.array(targets)
