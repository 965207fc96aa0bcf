"""Deterministic tick loop: plant dynamics, target trajectories, scenario
orchestration, collision detection, and ground-truth bookkeeping.

Every tick advances all agents synchronously on the previous tick's ground
truth. The world state is held in rows, one per agent (see `Simulation`).
The tick works out the swarm's pairwise geometry once
(`geometry.pairwise`); collision detection and sensing read it. The tick
then runs in phases across the swarm:
1. sense: one `sensors.observe` gives every agent's sightings as one flat
   `tracking.Sightings`, ordered by observer; then per agent, in id order,
   `Simulation._stage` draws the agent's VIO sample, IMU acceleration and
   target sighting;
2. tracker: one `TrackBank.step` and one `TrackBank.apply_tick` of the
   swarm's bank predict and correct every agent's neighbour tracks, which
   the bank keeps in one table indexed by (agent, neighbour id); the
   sightings' world-frame offsets come back from `apply_tick`;
3. self-state: one `ego_estimation.position_fix` on that table, the
   sightings and their offsets gives every agent's fix; then one
   `SelfStateFilter.step` of the swarm's self-state filter;
4. fusion: one `OdometryFusion.advance` of the swarm's fusion, which holds
   the swarm's fused position and velocity; the later phases, the tick
   record and the broadcast read them there;
5. velocity-ingest: with comm on, one `CommChannel.deliver` of the swarm's
   channel gives every agent's inbox as one `tracking.Velocities` (it
   delivers before the tick broadcasts, so a message sent at tick k is
   first delivered at tick k + max(L, 1) for a latency of L ticks); with
   comm off, one call of the swarm's `velocity_inference.VelocityEstimator`
   replays the flocking law for every entry of the table, in one
   `velocity_inference.estimate_velocities` and one
   `flocking.flocking_command`; then one `TrackBank.apply_tick` takes those
   velocities;
6. controller: one call of the swarm's `flocking.FlockingController` on
   the table, with one `flocking.desired_offset`, each agent's command one
   row of its result;
7. heading: every agent's heading, the `geometry.bearings` of its target
   sighting or its command, then the finiteness checks in one pass over
   the swarm; then the tick record, whose per-agent fields are rows of the
   swarm's arrays and whose `tracks` lists each agent's row of the table;
then the broadcast (with comm on, one `CommChannel.send`, which queues one
keep mask over every (receiver, sender) pair) and one `AgentPlant.advance`
of the swarm's plant.

Agent order cannot change the result. Within a tick an agent reads only
the previous tick's ground truth and its own rows of the swarm's state,
sightings, filters, controller and estimator, its random streams and its
inbox, and nothing another agent writes before the broadcast; the stacked
filters, law, plant and fusion round each row exactly as the row alone. A fault in a
swarm-wide call names the agent that owns the offending row. All
randomness flows from per-(agent, sensor) generator streams spawned off
the scenario seed.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .config import ScenarioConfig, initial_positions, scenario_to_dict
from .ego_estimation import (
    OdometryFusion,
    SelfStateFilter,
    VioSample,
    position_fix,
)
from .flocking import FlockingCommand, FlockingController
from .geometry import bearings, lengths, pairwise
from .sensors import CommChannel, VioEmulator, observe
from .tracking import Sightings, TrackBank, TrackParams, Velocities
from .velocity_inference import ResponseModel, VelocityEstimator

LOG_FORMAT_VERSION = 1


class SimulationFault(RuntimeError):
    """Non-finite value produced by an agent stage; names agent and stage."""


@dataclass
class RunArtifacts:
    records: list[dict]
    summary: "metrics_mod.MetricsSummary"
    config: ScenarioConfig


def detect_collisions(
    dist: np.ndarray, safety_radius: float
) -> list[tuple[int, int]]:
    """All agent pairs (i, j), i < j, closer than the safety radius, in
    ascending order; `dist` is the distance matrix of `geometry.pairwise`
    over the agents, indexed by id."""
    rows, cols = np.nonzero(np.triu(dist < safety_radius, 1))
    return list(zip(rows.tolist(), cols.tolist()))


class AgentPlant:
    """Point-mass plants of the swarm, one row per agent: `position`,
    `velocity` and `acceleration` are (N, 2). Each row is a first-order
    velocity lag toward its command, with acceleration and speed caps
    enforced every step; one agent's plant is the one-row case."""

    def __init__(self, tau: float, v_max: float, a_max: float, positions):
        self.tau = tau
        self.v_max = v_max
        self.a_max = a_max
        self.position = np.array(positions, dtype=float).reshape(-1, 2)
        self.velocity = np.zeros_like(self.position)
        self.acceleration = np.zeros_like(self.position)

    def advance(self, commands: np.ndarray, dt: float) -> None:
        """Step every row toward its command (N, 2); each cap rescales only
        the rows that exceed it."""
        decay = math.exp(-dt / self.tau)
        v_new = commands + (self.velocity - commands) * decay
        accel = (v_new - self.velocity) / dt
        a_mag = lengths(accel)
        over = a_mag > self.a_max
        accel[over] = accel[over] * (self.a_max / a_mag[over])[:, None]
        v_new[over] = self.velocity[over] + accel[over] * dt
        speed = lengths(v_new)
        over = speed > self.v_max
        v_new[over] = v_new[over] * (self.v_max / speed[over])[:, None]
        accel[over] = (v_new[over] - self.velocity[over]) / dt
        self.position = self.position + v_new * dt
        self.velocity = v_new
        self.acceleration = accel
        assert np.all(lengths(self.velocity) <= self.v_max + 1e-9)
        assert np.all(lengths(self.acceleration) <= self.a_max + 1e-9)


class WaypointTarget:
    """Constant-speed piecewise-linear path that holds its last point. One
    point is a static target."""

    def __init__(self, points, speed: float):
        self.points = [np.asarray(p, dtype=float) for p in points]
        self.speed = speed
        legs = [
            float(np.linalg.norm(b - a))
            for a, b in zip(self.points, self.points[1:])
        ]
        self.cumulative = np.concatenate([[0.0], np.cumsum(legs)])

    def position(self, t: float) -> np.ndarray:
        s = self.speed * t
        if s >= self.cumulative[-1]:
            return self.points[-1].copy()
        leg = int(np.searchsorted(self.cumulative, s, side="right") - 1)
        frac = (s - self.cumulative[leg]) / (
            self.cumulative[leg + 1] - self.cumulative[leg]
        )
        a, b = self.points[leg], self.points[leg + 1]
        return a + frac * (b - a)


def make_trajectory(config: ScenarioConfig) -> WaypointTarget:
    target = config.target
    points = [target.position] if target.kind == "static" else target.waypoints
    return WaypointTarget(points, target.speed)


@contextmanager
def _fault(agent_id: int, stage: str):
    """Report any error raised inside as a SimulationFault of one agent: the
    owner of the offending row when a swarm-wide filter raised it (see
    `kalman.owned_rows`), else `agent_id`."""
    try:
        yield
    except Exception as exc:
        agent_id = getattr(exc, "owner", agent_id)
        raise SimulationFault(f"agent {agent_id} stage {stage}: {exc}") from exc


class Simulation:
    """One scenario instance; owns the world state and the tick loop.

    The world state is held in rows, row i for agent i: the swarm's `plant`,
    its `fusion`, which holds the fused position and velocity that the
    tick's estimators, controller and broadcast read, `heading` (N,), and
    `command_velocity` (N, 2), the commanded velocity of the last tick,
    which the self-state filter and the plant take. Each agent keeps
    its own random streams and VIO emulator. The swarm's track bank,
    self-state filter, controller and velocity estimator hold every agent's
    filters and control state in their rows. `config` is the scenario as
    flown: a missing `response_model` is the plant's own
    (`ResponseModel.of_plant`), as is the self-state filter's lag."""

    def __init__(self, config: ScenarioConfig):
        if config.response_model is None:
            config = replace(config, response_model=ResponseModel.of_plant(
                config.dt, config.plant.tau))
        self.config = config
        self.trajectory = make_trajectory(config)
        positions = np.array(initial_positions(config), dtype=float)
        n = config.n_agents
        # Every agent spawns its streams in this order: perception, IMU,
        # target, comm, VIO.
        streams = [
            [np.random.default_rng(s) for s in seeds.spawn(5)]
            for seeds in np.random.SeedSequence(config.seed).spawn(n)
        ]
        self.rng_perception, self.rng_imu, self.rng_target, rng_comm, rng_vio = (
            list(column) for column in zip(*streams))
        plant = config.plant
        self.plant = AgentPlant(plant.tau, plant.v_max, plant.a_max, positions)
        self.fusion = OdometryFusion(positions)
        self.vio = [VioEmulator(config.sensors.vio, rng) for rng in rng_vio]
        self.heading = bearings(self.trajectory.position(0.0) - positions)
        self.command_velocity = np.zeros((n, 2))
        filters, sensors = config.filters, config.sensors
        self.bank = TrackBank(
            TrackParams(
                range_sigma_rel=sensors.range_sigma_rel,
                bearing_sigma=sensors.bearing_sigma,
                vel_sigma=(filters.vel_sigma_comm if config.comm
                           else filters.vel_sigma_inferred),
            ),
            config.dt,
            n,
        )
        self.self_filter = SelfStateFilter(
            plant.tau,
            # Assumed measurement noise keeps a floor so noiseless configs
            # still give the filter a valid covariance.
            max(sensors.imu_accel_sigma, 1e-3),
            config.dt,
            positions,
        )
        self.channel = CommChannel(sensors.comm, rng_comm)
        self.controller = FlockingController(config.gains, n)
        self.estimator = VelocityEstimator(
            config.gains, config.response_model, sensors.max_range,
            sensors.fov, n,
        )
        self.tick_index = 0

    def _stage(self, agent_id: int, target_position: np.ndarray
               ) -> tuple[VioSample, np.ndarray, np.ndarray]:
        """One agent's sense stage after the swarm's sightings, drawn from
        its own streams: its VIO sample, IMU acceleration and target
        sighting."""
        config = self.config
        position = self.plant.position[agent_id]
        acceleration = self.plant.acceleration[agent_id]
        with _fault(agent_id, "sense"):
            vio_sample = self.vio[agent_id].sample(
                position, self.plant.velocity[agent_id], config.dt
            )
            imu_accel = acceleration + self.rng_imu[agent_id].normal(
                0.0, config.sensors.imu_accel_sigma, size=2
            )
            target_rel = (target_position - position) + self.rng_target[
                agent_id].normal(0.0, config.sensors.target_sigma, size=2)
        return vio_sample, imu_accel, target_rel

    def _estimate(self, sightings: Sightings, vio_samples, imu_accels) -> None:
        """The tracker, self-state and fusion phases: they update the swarm's
        bank, self-state filter and fusion."""
        bank = self.bank
        with _fault(0, "tracker"):
            bank.step()
            offsets = bank.apply_tick(sightings, None, self.fusion.position,
                                      self.heading)
        with _fault(0, "self-state"):
            fixes, fixed = position_fix(bank.state, bank.tracks, sightings,
                                        offsets)
            own_states = self.self_filter.step(self.command_velocity, fixes,
                                               fixed, np.array(imu_accels))
        with _fault(0, "fusion"):
            self.fusion.advance(vio_samples, own_states, self.config.dt)

    def _ingest_velocities(self, target_rel: np.ndarray) -> list[dict] | None:
        """The velocity-ingest phase: the bank takes the velocities every
        agent's inbox delivers, or with comm off the velocities inferred for
        every track in one replay of the bank's table. Returns each agent's
        logged estimates (None with comm on)."""
        bank = self.bank
        logs = None
        if self.config.comm:
            velocities = self.channel.deliver(self.tick_index)
        else:
            # One replay serves every agent, so a fault here is every
            # agent's; it is reported against the first, whose stage the
            # serial tick failed in.
            with _fault(0, "velocity-ingest"):
                estimates = self.estimator.update(
                    bank.state, bank.tracks, self.fusion.position, target_rel,
                    self.controller.psi,
                )
            e, j = np.nonzero(bank.tracks)
            velocities = Velocities(e, j, estimates[e, j])
            logs = _by_observer(len(bank.tracks), e, j,
                                velocities.velocity.tolist())
        with _fault(0, "velocity-ingest"):
            bank.apply_tick(None, velocities, self.fusion.position, self.heading)
        return logs

    def _steer(self, command: FlockingCommand, target_rel: np.ndarray) -> None:
        """The heading phase and the finiteness checks. A fault names the
        first bad agent in id order, its command before its fused
        position."""
        self.command_velocity = command.velocity
        if self.config.sensors.heading_mode == "goal":
            self.heading = bearings(target_rel)
        else:
            moving = lengths(command.velocity) > 0.2
            self.heading = np.where(moving, bearings(command.velocity),
                                    self.heading)
        labels = ("command", "fused")
        finite = np.stack([np.isfinite(command.velocity).all(axis=1),
                           np.isfinite(self.fusion.position).all(axis=1)], axis=1)
        if not finite.all():
            agent, label = np.argwhere(~finite)[0].tolist()
            raise SimulationFault(
                f"agent {agent} stage heading: non-finite {labels[label]}"
            )

    def _agent_records(self, command: FlockingCommand, estimates_logs) -> dict:
        """Every agent's part of the tick record, keyed by str(id), each
        field a row of the swarm's arrays."""
        fusion = self.fusion
        columns = {
            "p": self.plant.position,
            "v": self.plant.velocity,
            "est_p": fusion.position,
            "est_v": fusion.velocity,
            "own_p": self.self_filter.state[:, :2],
            "own_int": self.self_filter.integral_position,
            "vio_w": fusion.vio_weight,
            "vio_w_target": fusion.weight_target,
            "cmd": command.velocity,
            "cmd_pos": command.position_term,
            "cmd_vel": command.velocity_term,
            "cmd_ff": command.feedforward,
            "heading": self.heading,
        }
        rows = {key: value.tolist() for key, value in columns.items()}
        tracks = _track_logs(self.bank)
        agents = {}
        for i, neighbors in enumerate(self.controller.neighbors):
            record = {key: values[i] for key, values in rows.items()}
            record["neighbors"] = neighbors
            record["tracks"] = tracks[i]
            if estimates_logs is not None:
                record["vel_est"] = estimates_logs[i]
            agents[str(i)] = record
        return agents

    def tick(self) -> dict:
        """Advance the world one step; returns the tick record."""
        config = self.config
        plant = self.plant
        t = self.tick_index * config.dt
        rel, dist = pairwise(plant.position)
        target_position = self.trajectory.position(t)
        collisions = detect_collisions(dist, config.safety_radius)
        # The swarm's sightings come from one call; a fault in it names the
        # observer of the offending row.
        with _fault(0, "sense"):
            sightings = observe(rel, dist, self.heading, config.sensors,
                                self.rng_perception, stamp=t)
        vio_samples, imu_accels, target_rels = zip(*[
            self._stage(i, target_position) for i in range(config.n_agents)
        ])
        target_rel = np.array(target_rels)
        self._estimate(sightings, vio_samples, imu_accels)
        estimates_logs = self._ingest_velocities(target_rel)
        # One call serves every agent, so as in velocity-ingest a fault is
        # reported against the first.
        with _fault(0, "controller"):
            command = self.controller.update(
                self.bank.state, self.bank.tracks, self.fusion.position,
                target_rel, config.dt,
            )
        self._steer(command, target_rel)
        record = {
            "record": "tick",
            "k": self.tick_index,
            "t": float(t),
            "target": target_position.tolist(),
            "collisions": [list(pair) for pair in collisions],
            "agents": self._agent_records(command, estimates_logs),
        }

        # After every stage: the broadcast and plant integration.
        if config.comm:
            self.channel.send(self.tick_index, self.fusion.velocity)
        plant.advance(self.command_velocity, config.dt)
        finite = np.isfinite(plant.position).all(axis=1)
        if not finite.all():
            raise SimulationFault(
                f"agent {int(np.argmin(finite))} stage plant: non-finite position"
            )
        self.tick_index += 1
        return record


def _by_observer(n: int, e: np.ndarray, j: np.ndarray, values: list
                 ) -> list[dict]:
    """Per observer of n, its entries {str(id): value} of the rows (e, j)."""
    rows = [{} for _ in range(n)]
    for a, b, value in zip(e.tolist(), j.tolist(), values):
        rows[a][str(b)] = value
    return rows


def _track_logs(bank: TrackBank) -> list[dict]:
    """Each agent's row of the bank's table, as its tick record's `tracks`."""
    e, j = np.nonzero(bank.tracks)
    live = bank.state[e, j]
    return _by_observer(len(bank.tracks), e, j, [
        {"p": p, "v": v, "stale": stale}
        for p, v, stale in zip(live[:, :2].tolist(), live[:, 2:4].tolist(),
                               bank.staleness[e, j].tolist())
    ])


def run_scenario(
    config: ScenarioConfig,
    log_path: str | Path | None = None,
) -> RunArtifacts:
    """Execute duration/dt ticks and return records plus the metrics summary."""
    sim = Simulation(config)
    n_ticks = int(round(config.duration / config.dt))
    header = {
        "record": "header",
        "format_version": LOG_FORMAT_VERSION,
        "config": scenario_to_dict(sim.config),
    }
    records = [header]
    for _ in range(n_ticks):
        records.append(sim.tick())
    # Final collision check on the post-advance world, logged so that a
    # replay counts it too.
    _, final_dist = pairwise(sim.plant.position)
    final = detect_collisions(final_dist, config.safety_radius)
    records.append({"record": "final", "collisions": [list(p) for p in final]})
    summary = metrics_mod.summarize(records)
    records.append(summary_record(summary))
    if log_path is not None:
        write_log(records, log_path)
    return RunArtifacts(records=records, summary=summary, config=sim.config)


def summary_record(summary) -> dict:
    return {"record": "summary", **summary.as_dict()}


def write_log(records: list[dict], path: str | Path) -> None:
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
            handle.write("\n")


def read_log(path: str | Path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]
