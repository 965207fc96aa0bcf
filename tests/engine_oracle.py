"""The one-agent plant and odometry fusion that the swarm's rows replaced,
kept verbatim as the bit-for-bit reference for `engine.AgentPlant` and
`ego_estimation.OdometryFusion`.

The weight's slew (`slew_weight`) is the scalar one the array slew
replaced, kept here so that the oracle does not share code with what it
checks; its target is the sample's quality score."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fastflock.ego_estimation import VioSample


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


class AgentPlant:
    """Point-mass plant: first-order velocity lag toward the command, with
    acceleration and speed caps enforced every step."""

    def __init__(self, tau: float, v_max: float, a_max: float, position):
        self.tau = tau
        self.v_max = v_max
        self.a_max = a_max
        self.position = np.asarray(position, dtype=float).copy()
        self.velocity = np.zeros(2)
        self.acceleration = np.zeros(2)

    def advance(self, command: np.ndarray, dt: float) -> None:
        decay = math.exp(-dt / self.tau)
        v_new = command + (self.velocity - command) * decay
        accel = (v_new - self.velocity) / dt
        a_mag = float(np.linalg.norm(accel))
        if a_mag > self.a_max:
            accel = accel * (self.a_max / a_mag)
            v_new = self.velocity + accel * dt
        speed = float(np.linalg.norm(v_new))
        if speed > self.v_max:
            v_new = v_new * (self.v_max / speed)
            accel = (v_new - self.velocity) / dt
        self.position = self.position + v_new * dt
        self.velocity = v_new
        self.acceleration = accel
        assert np.linalg.norm(self.velocity) <= self.v_max + 1e-9
        assert np.linalg.norm(self.acceleration) <= self.a_max + 1e-9


@dataclass
class FusionState:
    """Blended odometry output for one tick."""

    position: np.ndarray
    velocity: np.ndarray
    vio_weight: float
    weight_target: float


class OdometryFusion:
    """Position-delta blending of the VIO stream against the self-state
    estimate; runs outside the Kalman filter so either source can be swapped.

    Velocity and acceleration are convex combinations of the two sources;
    position integrates the weighted deltas of both.
    """

    def __init__(self, initial_position, weight: float = 1.0, rate: float = 0.2):
        self.position = np.asarray(initial_position, dtype=float).copy()
        self.vio_weight = weight
        self.rate = rate
        self._prev_vio: np.ndarray | None = None
        self._prev_state: np.ndarray | None = None

    def fuse(
        self,
        vio_position: np.ndarray,
        vio_velocity: np.ndarray,
        state_position: np.ndarray,
        state_velocity: np.ndarray,
        weight: float,
    ) -> FusionState:
        """Blend one tick of both sources with a given weight."""
        if self._prev_vio is None:
            # First sample anchors the integration constant.
            self.position = weight * np.asarray(vio_position, float) + (
                1.0 - weight
            ) * np.asarray(state_position, float)
        else:
            delta_vio = vio_position - self._prev_vio
            delta_state = state_position - self._prev_state
            self.position = self.position + weight * delta_vio + (
                1.0 - weight
            ) * delta_state
        self._prev_vio = np.asarray(vio_position, dtype=float).copy()
        self._prev_state = np.asarray(state_position, dtype=float).copy()
        self.vio_weight = weight
        return FusionState(
            position=self.position.copy(),
            velocity=weight * np.asarray(vio_velocity, float)
            + (1.0 - weight) * np.asarray(state_velocity, float),
            vio_weight=weight,
            weight_target=weight,
        )

    def advance(self, sample: VioSample, own_state: np.ndarray, dt: float) -> FusionState:
        """Slew the weight toward the sample's quality score, then fuse."""
        target = sample.quality
        weight = slew_weight(self.vio_weight, target, self.rate, dt)
        state = self.fuse(
            sample.position,
            sample.velocity,
            own_state[:2],
            own_state[2:4],
            weight,
        )
        state.weight_target = target
        return state
