"""Deterministic tick loop: plant dynamics, target trajectories, scenario
orchestration, collision detection, and ground-truth bookkeeping.

Every tick advances all agents synchronously on the previous tick's ground
truth. The tick works out the swarm's pairwise geometry once
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
3. self-state: per agent, `ego_estimation.position_fix` on the agent's row
   of that table and its rows of the sightings and offsets; then one
   `SelfStateFilter.step` of the swarm's self-state filter;
4. fusion: per agent, `OdometryFusion.advance`;
5. velocity-ingest: with comm on, one `CommChannel.deliver` of the swarm's
   channel gives every agent's inbox as one `tracking.Velocities`; with
   comm off, one call of the swarm's `velocity_inference.VelocityEstimator`
   replays the flocking law for every entry of the table, in one
   `velocity_inference.estimate_velocities` and one
   `flocking.flocking_command`; then one `TrackBank.apply_tick` takes those
   velocities;
6. controller: one call of the swarm's `flocking.FlockingController` on
   the table, with one `flocking.desired_offset`, each agent's command one
   row of its result;
7. per agent: heading, the finiteness checks and the tick record, whose
   `tracks` lists the agent's row of the table;
then the broadcast (with comm on, one `CommChannel.send`, which queues one
keep mask over every (receiver, sender) pair) and plant integration.

Agent order cannot change the result. Within a tick an agent reads only
the previous tick's ground truth and its own rows of the swarm's
sightings, filters, controller and estimator, its random streams and its
inbox, and nothing another agent writes before the broadcast; the stacked
filters and law round each row exactly as the row alone. A fault in a
swarm-wide call names the agent that owns the offending row. All
randomness flows from per-(agent, sensor) generator streams spawned off
the scenario seed.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import metrics as metrics_mod
from .config import ScenarioConfig, initial_positions, scenario_to_dict
from .ego_estimation import (
    FocalParams,
    FusionState,
    OdometryFusion,
    SelfStateFilter,
    VioSample,
    position_fix,
)
from .flocking import FlockingCommand, FlockingController
from .geometry import pairwise
from .sensors import CommChannel, VioEmulator, observe
from .tracking import Sightings, TrackBank, TrackParams, Velocities
from .velocity_inference import VelocityEstimator

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


class StaticTarget:
    def __init__(self, position):
        self._position = np.asarray(position, dtype=float)

    def position(self, t: float) -> np.ndarray:
        return self._position.copy()


class WaypointTarget:
    """Constant-speed piecewise-linear path; holds the last point, or loops."""

    def __init__(self, points, speed: float, loop: bool = False):
        self.points = [np.asarray(p, dtype=float) for p in points]
        self.speed = speed
        self.loop = loop
        legs = [
            float(np.linalg.norm(b - a))
            for a, b in zip(self.points, self.points[1:])
        ]
        if self.loop:
            legs.append(float(np.linalg.norm(self.points[0] - self.points[-1])))
        self.cumulative = np.concatenate([[0.0], np.cumsum(legs)])

    def position(self, t: float) -> np.ndarray:
        total = self.cumulative[-1]
        if total == 0.0:
            return self.points[0].copy()
        s = self.speed * t
        if self.loop:
            s = s % total
        elif s >= total:
            return self.points[-1].copy()
        leg = int(np.searchsorted(self.cumulative, s, side="right") - 1)
        leg = min(leg, len(self.cumulative) - 2)
        frac = (s - self.cumulative[leg]) / (
            self.cumulative[leg + 1] - self.cumulative[leg]
        )
        a = self.points[leg]
        b = self.points[(leg + 1) % len(self.points)]
        return a + frac * (b - a)


def make_trajectory(config: ScenarioConfig):
    target = config.target
    if target.kind == "static":
        return StaticTarget(target.position)
    return WaypointTarget(target.waypoints, target.speed, target.loop)


class Agent:
    """Per-agent simulation state: plant, sensors and fusion, with private
    RNG streams. The swarm's track bank, self-state filter, controller and
    velocity estimator hold the agent's filters and control state in their
    rows."""

    def __init__(self, agent_id: int, config: ScenarioConfig, position,
                 seed_seq: np.random.SeedSequence, goal_rel: np.ndarray):
        self.id = agent_id
        sensors = config.sensors
        streams = seed_seq.spawn(5)
        self.rng_perception = np.random.default_rng(streams[0])
        self.rng_imu = np.random.default_rng(streams[1])
        self.rng_target = np.random.default_rng(streams[2])
        self.rng_comm = np.random.default_rng(streams[3])
        self.plant = AgentPlant(
            config.plant.tau, config.plant.v_max, config.plant.a_max, position
        )
        self.fusion = OdometryFusion(position, weight=1.0,
                                     rate=config.filters.fusion_rate)
        self.vio = VioEmulator(sensors.vio, position,
                               np.random.default_rng(streams[4]))
        self.heading = math.atan2(goal_rel[1], goal_rel[0])
        self.fused_position = np.asarray(position, dtype=float).copy()
        self.fused_velocity = np.zeros(2)
        # The commanded velocity of the last tick, which the self-state
        # filter and the plant take.
        self.command_velocity = np.zeros(2)


class Sensed(NamedTuple):
    """What one agent's sense stage hands the later phases of its tick: the
    ground truth it started from, its VIO sample, IMU acceleration and
    target sighting."""

    truth_pos: np.ndarray
    truth_vel: np.ndarray
    vio_sample: VioSample
    imu_accel: np.ndarray
    target_rel: np.ndarray


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
    """One scenario instance; owns the world state and the tick loop."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.trajectory = make_trajectory(config)
        positions = initial_positions(config)
        root = np.random.SeedSequence(config.seed)
        agent_seeds = root.spawn(config.n_agents)
        goal0 = self.trajectory.position(0.0)
        self.agents = [
            Agent(i, config, positions[i], agent_seeds[i], goal0 - positions[i])
            for i in range(config.n_agents)
        ]
        filters, sensors = config.filters, config.sensors
        self.bank = TrackBank(
            TrackParams(
                q_rate=filters.track_q_rate,
                range_sigma_rel=sensors.range_sigma_rel,
                bearing_sigma=sensors.bearing_sigma,
                pos_sigma_floor=filters.track_pos_sigma_floor,
                vel_sigma=(filters.vel_sigma_comm if config.comm
                           else filters.vel_sigma_inferred),
                drop_after=filters.track_drop_after,
            ),
            config.dt,
            config.n_agents,
        )
        self.self_filter = SelfStateFilter(
            FocalParams(
                tau=filters.focal_tau,
                q_rate=filters.focal_q_rate,
                fix_sigma=filters.fix_sigma,
                # Assumed measurement noise keeps a floor so noiseless
                # configs still give the filter a valid covariance.
                accel_sigma=max(sensors.imu_accel_sigma, 1e-3),
            ),
            config.dt,
            positions,
        )
        self.channel = CommChannel(config.sensors.comm,
                                   [a.rng_comm for a in self.agents])
        self.controller = FlockingController(config.gains, config.n_agents)
        self.estimator = VelocityEstimator(
            config.gains, config.response_model, config.sensors.max_range,
            config.sensors.fov, config.n_agents,
        )
        self.tick_index = 0

    def _stage(self, agent: Agent, target_position: np.ndarray) -> Sensed:
        """One agent's sense stage after the swarm's sightings: its VIO
        sample, IMU acceleration and target sighting."""
        config = self.config
        truth_pos = agent.plant.position
        truth_vel = agent.plant.velocity
        with _fault(agent.id, "sense"):
            vio_sample = agent.vio.sample(
                truth_pos, truth_vel, agent.plant.acceleration, config.dt
            )
            imu_accel = agent.plant.acceleration + agent.rng_imu.normal(
                0.0, config.sensors.imu_accel_sigma, size=2
            )
            target_rel = (target_position - truth_pos) + agent.rng_target.normal(
                0.0, config.sensors.target_sigma, size=2
            )
        return Sensed(truth_pos, truth_vel, vio_sample, imu_accel, target_rel)

    def _estimate(self, sightings: Sightings, sensed: list[Sensed]
                  ) -> tuple[np.ndarray, list[FusionState]]:
        """The tracker, self-state and fusion phases. Returns every agent's
        self-state and its fusion result."""
        agents = self.agents
        bank = self.bank
        with _fault(agents[0].id, "tracker"):
            bank.step()
            offsets = bank.apply_tick(
                sightings, None,
                [a.fused_position for a in agents], [a.heading for a in agents],
            )
        # Sightings are ordered by observer: agent a's are rows
        # bounds[a]:bounds[a + 1].
        bounds = np.searchsorted(sightings.observer,
                                 np.arange(len(agents) + 1)).tolist()
        fixes = []
        for agent in agents:
            rows = slice(bounds[agent.id], bounds[agent.id + 1])
            with _fault(agent.id, "self-state"):
                fixes.append(position_fix(bank.state[agent.id],
                                          bank.tracks[agent.id],
                                          sightings.ids[rows], offsets[rows]))
        with _fault(agents[0].id, "self-state"):
            own_states = self.self_filter.step(
                [a.command_velocity for a in agents], fixes,
                [s.imu_accel for s in sensed],
            )
        fused = []
        for agent, s, own_state in zip(agents, sensed, own_states):
            with _fault(agent.id, "fusion"):
                fused.append(agent.fusion.advance(s.vio_sample, own_state,
                                                  self.config.dt))
                agent.fused_position = fused[-1].position
                agent.fused_velocity = fused[-1].velocity
        return own_states, fused

    def _ingest_velocities(self, sensed: list[Sensed]) -> list[dict | None]:
        """The velocity-ingest phase: the bank takes the velocities every
        agent's inbox delivers, or with comm off the velocities inferred for
        every track in one replay of the bank's table. Returns each agent's
        logged estimates (None with comm on)."""
        config = self.config
        agents = self.agents
        bank = self.bank
        if config.comm:
            velocities = self.channel.deliver(self.tick_index)
            logs = [None] * len(agents)
        else:
            # One replay serves every agent, so a fault here is every
            # agent's; it is reported against the first, whose stage the
            # serial tick failed in.
            with _fault(agents[0].id, "velocity-ingest"):
                estimates = self.estimator.update(
                    bank.state, bank.tracks,
                    [a.fused_position for a in agents],
                    [s.target_rel for s in sensed],
                    self.controller.psi,
                )
            e, j = np.nonzero(bank.tracks)
            velocities = Velocities(e, j, estimates[e, j])
            logs = _by_observer(len(agents), e, j,
                                velocities.velocity.tolist())
        with _fault(agents[0].id, "velocity-ingest"):
            bank.apply_tick(None, velocities, [a.fused_position for a in agents],
                            [a.heading for a in agents])
        return logs

    def _fragment(self, agent: Agent, sensed: Sensed, own_state: np.ndarray,
                  fused: FusionState, command: FlockingCommand,
                  tracks: dict, estimates_log: dict | None) -> dict:
        """The heading stage, the finiteness checks and the agent's part of
        the tick record."""
        with _fault(agent.id, "heading"):
            agent.command_velocity = command.velocity
            if self.config.sensors.heading_mode == "goal":
                agent.heading = math.atan2(sensed.target_rel[1],
                                           sensed.target_rel[0])
            elif float(np.linalg.norm(command.velocity)) > 0.2:
                agent.heading = math.atan2(
                    command.velocity[1], command.velocity[0]
                )
        for label, value in (("command", command.velocity),
                             ("fused", agent.fused_position)):
            if not np.all(np.isfinite(value)):
                raise SimulationFault(
                    f"agent {agent.id} stage heading: non-finite {label}"
                )
        return {
            "p": _vec(sensed.truth_pos),
            "v": _vec(sensed.truth_vel),
            "est_p": _vec(fused.position),
            "est_v": _vec(fused.velocity),
            "own_p": _vec(own_state[:2]),
            "own_int": _vec(self.self_filter.integral_position[agent.id]),
            "vio_w": float(fused.vio_weight),
            "vio_w_target": float(fused.weight_target),
            "cmd": _vec(command.velocity),
            "cmd_pos": _vec(command.position_term),
            "cmd_vel": _vec(command.velocity_term),
            "cmd_ff": _vec(command.feedforward),
            "heading": float(agent.heading),
            "neighbors": self.controller.neighbors[agent.id],
            "tracks": tracks,
            **({"vel_est": estimates_log} if estimates_log is not None else {}),
        }

    def tick(self) -> dict:
        """Advance the world one step; returns the tick record."""
        config = self.config
        agents = self.agents
        t = self.tick_index * config.dt
        rel, dist = pairwise([a.plant.position for a in agents])
        target_position = self.trajectory.position(t)
        collisions = detect_collisions(dist, config.safety_radius)
        # The swarm's sightings come from one call; a fault in it names the
        # observer of the offending row.
        with _fault(agents[0].id, "sense"):
            sightings = observe(rel, dist, [a.heading for a in agents],
                                config.sensors,
                                [a.rng_perception for a in agents], stamp=t)
        sensed = [self._stage(a, target_position) for a in agents]
        own_states, fused = self._estimate(sightings, sensed)
        estimates_logs = self._ingest_velocities(sensed)
        # One call serves every agent, so as in velocity-ingest a fault is
        # reported against the first.
        with _fault(agents[0].id, "controller"):
            command = self.controller.update(
                self.bank.state, self.bank.tracks,
                [a.fused_position for a in agents],
                [s.target_rel for s in sensed], config.dt,
            )
        fragments = [
            self._fragment(agent, s, own, f, command.row(agent.id), tracks, log)
            for agent, s, own, f, tracks, log in zip(
                agents, sensed, own_states, fused, _track_logs(self.bank),
                estimates_logs)
        ]

        # After every stage: the broadcast and plant integration in id order.
        if config.comm:
            self.channel.send(self.tick_index,
                              [a.fused_velocity for a in agents])
        for agent in agents:
            agent.plant.advance(agent.command_velocity, config.dt)
            if not np.all(np.isfinite(agent.plant.position)):
                raise SimulationFault(
                    f"agent {agent.id} stage plant: non-finite position"
                )

        record = {
            "record": "tick",
            "k": self.tick_index,
            "t": float(t),
            "target": _vec(target_position),
            "collisions": [list(pair) for pair in collisions],
            "agents": {str(a.id): frag for a, frag in zip(agents, fragments)},
        }
        self.tick_index += 1
        return record


def _vec(value) -> list[float]:
    return np.asarray(value, dtype=float).tolist()


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
        "config": scenario_to_dict(config),
    }
    records = [header]
    for _ in range(n_ticks):
        records.append(sim.tick())
    # Final collision check on the post-advance world.
    _, final_dist = pairwise([a.plant.position for a in sim.agents])
    final = detect_collisions(final_dist, config.safety_radius)
    summary = metrics_mod.summarize(records, final_collisions=final)
    records.append(summary_record(summary))
    if log_path is not None:
        write_log(records, log_path)
    return RunArtifacts(records=records, summary=summary, config=config)


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
