import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fastflock import ego_estimation, engine, flocking, kalman, velocity_inference
from fastflock.config import load_scenario, scenario_from_dict
from fastflock.flocking import FlockingCommand
from fastflock.engine import (
    AgentPlant,
    Simulation,
    SimulationFault,
    WaypointTarget,
    detect_collisions,
    read_log,
    run_scenario,
    write_log,
)
from fastflock.geometry import pairwise
from fastflock.tracking import TrackBank

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_scenario(**overrides):
    data = {
        "name": "small",
        "seed": 5,
        "dt": 0.05,
        "duration": 5.0,
        "n_agents": 3,
        "comm": True,
        "layout": {"kind": "ring", "spacing": 13.0},
        "gains": {"kp": 0.8, "kv": 0.5, "cruise_speed": 5.0, "d_min": 15.0,
                  "d_max": 40.0, "spacing": 13.0},
        "target": {"kind": "static", "position": [120.0, 0.0]},
        "response_model": {"a": 0.9048374180359595, "b": 0.09516258196404048},
    }
    data.update(overrides)
    return scenario_from_dict(data)


class TestAgentPlant:
    def test_first_order_lag_analytic(self):
        tau, dt = 0.3, 0.05
        plant = AgentPlant(tau=tau, v_max=8.0, a_max=400.0, positions=[[0.0, 0.0]])
        cmd = np.array([[1.0, 0.0]])
        for k in range(1, 120):
            plant.advance(cmd, dt)
            expected = 1.0 - math.exp(-k * dt / tau)
            assert abs(plant.velocity[0, 0] - expected) < 1e-9

    def test_acceleration_cap(self):
        plant = AgentPlant(tau=0.1, v_max=50.0, a_max=4.0, positions=[[0.0, 0.0]])
        plant.advance(np.array([[40.0, 0.0]]), 0.05)
        assert np.linalg.norm(plant.acceleration[0]) <= 4.0 + 1e-9

    def test_speed_cap(self):
        plant = AgentPlant(tau=0.2, v_max=8.0, a_max=1000.0, positions=[[0.0, 0.0]])
        for _ in range(200):
            plant.advance(np.array([[50.0, 0.0]]), 0.05)
        assert np.linalg.norm(plant.velocity[0]) <= 8.0 + 1e-9


class TestTrajectories:
    def test_static(self):
        target = WaypointTarget([[3.0, 4.0]], speed=0.0)
        assert np.allclose(target.position(0.0), [3.0, 4.0])
        assert np.allclose(target.position(100.0), [3.0, 4.0])

    def test_waypoints_interpolation(self):
        target = WaypointTarget([[0.0, 0.0], [10.0, 0.0], [10.0, 5.0]], speed=2.0)
        assert np.allclose(target.position(0.0), [0.0, 0.0])
        assert np.allclose(target.position(2.5), [5.0, 0.0])
        assert np.allclose(target.position(5.0), [10.0, 0.0])
        assert np.allclose(target.position(6.0), [10.0, 2.0])
        assert np.allclose(target.position(100.0), [10.0, 5.0])  # holds the end


def brute_force_collisions(points, radius):
    return [
        (i, j)
        for i in range(len(points))
        for j in range(i + 1, len(points))
        if np.linalg.norm(points[i] - points[j]) < radius
    ]


class TestDetectCollisions:
    def test_all_separated(self):
        _, dist = pairwise(np.array([[0.0, 0.0], [5.0, 0.0]]))
        assert detect_collisions(dist, 2.0) == []

    def test_coincident_pair(self):
        _, dist = pairwise(np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]]))
        assert detect_collisions(dist, 2.0) == [(0, 1)]

    @pytest.mark.parametrize("points", [
        # Coincident agents, including three on one spot.
        [[0.0, 0.0], [7.0, 1.0], [0.0, 0.0], [7.0, 1.0], [0.0, 0.0]],
        # Pairs exactly at the radius (3-4-5 triangles): not collisions.
        [[0.0, 0.0], [3.0, 4.0], [-3.0, -4.0], [3.0, 4.0 - 1e-9], [6.0, 8.0]],
    ])
    def test_matches_brute_force(self, points):
        points = np.array(points)
        _, dist = pairwise(points)
        pairs = detect_collisions(dist, 5.0)
        assert pairs == brute_force_collisions(points, 5.0)
        assert pairs
        assert all(type(i) is int and type(j) is int for i, j in pairs)

    def test_tick_record_with_collision_serializes(self):
        sim = Simulation(small_scenario())
        sim.plant.position[2] = sim.plant.position[0]
        record = sim.tick()
        assert record["collisions"] == [[0, 2]]
        json.dumps(record)


class TestTickRecord:
    @pytest.mark.parametrize("comm", [True, False])
    def test_fused_fields_are_the_fusions_rows(self, comm):
        # The fusion is the one holder of the fused state: every record's
        # est_p, est_v, vio_w and vio_w_target are its rows after the tick.
        sim = Simulation(small_scenario(comm=comm))
        for _ in range(3):
            record = sim.tick()
            fusion = sim.fusion
            for i, fragment in record["agents"].items():
                row = int(i)
                assert fragment["est_p"] == fusion.position[row].tolist()
                assert fragment["est_v"] == fusion.velocity[row].tolist()
                assert fragment["vio_w"] == fusion.vio_weight[row]
                assert fragment["vio_w_target"] == fusion.weight_target[row]


class TestDeterminism:
    def test_identical_logs_for_identical_seed(self, tmp_path):
        config = small_scenario()
        a = run_scenario(config, log_path=tmp_path / "a.jsonl")
        b = run_scenario(config, log_path=tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        run_scenario(small_scenario(), log_path=tmp_path / "a.jsonl")
        run_scenario(small_scenario(seed=6), log_path=tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "b.jsonl").read_bytes()

    def test_no_comm_run_differs_from_comm(self, tmp_path):
        run_scenario(small_scenario(), log_path=tmp_path / "a.jsonl")
        run_scenario(small_scenario(comm=False), log_path=tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "b.jsonl").read_bytes()


class TestComm:
    def test_comm_off_channels_deliver_nothing(self):
        delivered = {}
        for comm in (True, False):
            sim = Simulation(small_scenario(comm=comm))
            for _ in range(3):
                sim.tick()
            inbox = sim.channel.deliver(sim.tick_index)
            delivered[comm] = np.bincount(inbox.observer,
                                          minlength=sim.config.n_agents).tolist()
        assert all(delivered[True])
        assert not any(delivered[False])

    def test_latency_zero_flies_as_latency_one(self):
        # The tick delivers before it broadcasts, so a message sent at tick
        # k is first delivered at tick k + max(latency, 1).
        ticks = {}
        for latency in (0, 1, 2):
            art = run_scenario(small_scenario(
                duration=2.0, sensors={"comm": {"latency_ticks": latency}}))
            ticks[latency] = [r for r in art.records if r["record"] == "tick"]
        assert ticks[0] == ticks[1]
        assert ticks[1] != ticks[2]


class TestClosedLoop:
    def test_hover_equilibrium_static(self):
        config = load_scenario(CONFIG_DIR / "hover.yaml")
        art = run_scenario(config)
        ticks = [r for r in art.records if r.get("record") == "tick"]
        start = {a: np.asarray(ticks[0]["agents"][a]["p"]) for a in ticks[0]["agents"]}
        end = {a: np.asarray(ticks[-1]["agents"][a]["p"]) for a in ticks[-1]["agents"]}
        center_shift = np.linalg.norm(
            np.mean(list(end.values()), axis=0) - np.mean(list(start.values()), axis=0)
        )
        assert center_shift < 1.0
        for a in start:
            assert np.linalg.norm(end[a] - start[a]) < 1.0

    def test_triangle_formation_holds_under_perfect_sensing(self):
        config = load_scenario(CONFIG_DIR / "hover.yaml")
        config = dataclasses.replace(config, duration=30.0)
        config.layout.spacing = 13.0  # triangle side = desired spacing
        config.target.position = (250.0, 0.0)  # cruise instead of hover
        art = run_scenario(config)
        ticks = [r for r in art.records if r.get("record") == "tick"]
        spacing = config.gains.spacing
        for r in ticks:
            pos = [np.asarray(r["agents"][a]["p"]) for a in sorted(r["agents"])]
            for i in range(3):
                for j in range(i + 1, 3):
                    gap = np.linalg.norm(pos[i] - pos[j])
                    assert 0.9 * spacing <= gap <= 1.1 * spacing

    def test_hover_command_settles_small(self):
        # Target inside d_min, formation at equilibrium: command magnitude
        # under 0.1 m/s after the transient.
        config = load_scenario(CONFIG_DIR / "hover.yaml")
        art = run_scenario(config)
        ticks = [r for r in art.records if r.get("record") == "tick"]
        for r in ticks[len(ticks) // 2:]:
            for a in r["agents"]:
                assert np.linalg.norm(r["agents"][a]["cmd"]) < 0.1

    def test_single_agent_pure_feedforward(self):
        config = small_scenario(
            n_agents=1, layout={"kind": "explicit", "positions": [[0.0, 0.0]]}
        )
        art = run_scenario(config)
        ticks = [r for r in art.records if r.get("record") == "tick"]
        for r in ticks:
            fragment = r["agents"]["0"]
            assert fragment["cmd"] == fragment["cmd_ff"]
            assert fragment["neighbors"] == []

    def test_intruder_following_tracks_without_collision(self):
        config = load_scenario(CONFIG_DIR / "intruder_following.yaml")
        config = dataclasses.replace(config, duration=40.0)
        art = run_scenario(config)
        assert art.summary.collisions == 0
        ticks = [r for r in art.records if r.get("record") == "tick"]
        last = ticks[-1]
        center = np.mean(
            [last["agents"][a]["p"] for a in last["agents"]], axis=0
        )
        gap = np.linalg.norm(np.asarray(last["target"]) - center)
        assert gap < config.gains.d_max  # swarm stays on the target


class TestFaults:
    def test_nan_poisoning_names_agent_and_stage(self):
        sim = Simulation(small_scenario())
        sim.tick()
        sim.fusion.position[1] = [np.nan, 0.0]
        with pytest.raises(SimulationFault, match="agent 1"):
            for _ in range(10):
                sim.tick()

    @pytest.mark.parametrize("bad_command, bad_fused, expected", [
        ([3], [2], "agent 2 stage heading: non-finite fused"),
        ([1, 4], [1], "agent 1 stage heading: non-finite command"),
        ([], [4], "agent 4 stage heading: non-finite fused"),
        ([0], [], "agent 0 stage heading: non-finite command"),
    ])
    def test_finiteness_checks_name_the_first_bad_agent(
            self, bad_command, bad_fused, expected):
        # The checks run once over the swarm: the first bad agent in id
        # order, and within one agent its command before its fused position.
        sim = Simulation(small_scenario(n_agents=5))
        sim.tick()
        fuse = sim.fusion.advance

        def poisoned_fusion(*args):
            fuse(*args)
            sim.fusion.position[bad_fused] = np.nan

        def poisoned_command(*args):
            zeros = np.zeros((5, 2))
            velocity = zeros.copy()
            velocity[bad_command] = np.nan
            return FlockingCommand(velocity, zeros, zeros, zeros, zeros)

        sim.fusion.advance = poisoned_fusion
        sim.controller.update = poisoned_command
        with pytest.raises(SimulationFault, match=f"^{expected}$"):
            sim.tick()

    def test_swarm_filter_faults_name_the_owning_agent(self):
        # The swarm's bank and self-state filter run every agent's rows in
        # one call; a fault names the agent holding the bad row, not agent 0.
        sim = Simulation(small_scenario(n_agents=5))
        for _ in range(3):
            sim.tick()
        sim.bank.cov[3, np.flatnonzero(sim.bank.tracks[3])[0], 0, 0] = np.nan
        with pytest.raises(SimulationFault, match=r"^agent 3 stage tracker"):
            sim.tick()
        sim = Simulation(small_scenario(n_agents=5))
        sim.tick()
        sim.self_filter.cov[3, 2, 2] = np.nan
        with pytest.raises(SimulationFault, match=r"^agent 3 stage self-state"):
            sim.tick()


class TestSwarmFilters:
    @pytest.mark.parametrize("n_agents", [6, 24])
    def test_kalman_calls_per_tick_do_not_grow_with_n(self, n_agents,
                                                      monkeypatch):
        # Every tick: one predict of all tracks, one position and one
        # velocity correction, one self-state predict, one fix and one
        # acceleration correction, however many agents fly.
        calls = {"predict": 0, "correct": 0}

        def counting(kind, fn):
            def wrapped(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(kalman, "predict_stack",
                            counting("predict", kalman.predict_stack))
        monkeypatch.setattr(kalman, "correct_stack",
                            counting("correct", kalman.correct_stack))
        sim = Simulation(small_scenario(
            n_agents=n_agents, layout={"kind": "grid", "spacing": 13.0}))
        for _ in range(3):
            sim.tick()
        for _ in range(3):
            calls.update(predict=0, correct=0)
            sim.tick()
            assert calls == {"predict": 2, "correct": 4}

    @pytest.mark.parametrize("n_agents", [6, 24])
    def test_law_calls_per_tick(self, n_agents, monkeypatch):
        # perfbench's layer metrics count these calls by name. With comm
        # off, one replay of the law serves every track and the controller
        # evaluates the offsets once more; with comm on, the controller's
        # offsets are the law's only evaluation.
        names = [(velocity_inference, "estimate_velocities"),
                 (flocking, "flocking_command"), (flocking, "desired_offset")]
        calls = {name: 0 for _, name in names}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for owner, name in names:
            original = getattr(owner, name)
            for module in (flocking, velocity_inference):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        expected = {
            False: {"estimate_velocities": 1, "flocking_command": 1,
                    "desired_offset": 2},
            True: {"estimate_velocities": 0, "flocking_command": 0,
                   "desired_offset": 1},
        }
        for comm, per_tick in expected.items():
            sim = Simulation(small_scenario(
                n_agents=n_agents, comm=comm,
                layout={"kind": "grid", "spacing": 13.0}))
            for _ in range(3):
                sim.tick()
            for _ in range(3):
                calls.update(dict.fromkeys(calls, 0))
                sim.tick()
                assert calls == per_tick

    @pytest.mark.parametrize("n_agents", [6, 24])
    def test_world_state_calls_per_tick(self, n_agents, monkeypatch):
        # perfbench times the plant, the fusion and the position fix per
        # call and counts agent-ticks by `_stage` calls: the plant and the
        # fusion advance once per tick, one position fix serves the swarm,
        # and the sense stage runs once per agent.
        calls = {"plant": 0, "fusion": 0, "position_fix": 0, "stage": 0}

        def counting(kind, fn):
            def wrapped(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(engine.AgentPlant, "advance",
                            counting("plant", engine.AgentPlant.advance))
        monkeypatch.setattr(ego_estimation.OdometryFusion, "advance",
                            counting("fusion",
                                     ego_estimation.OdometryFusion.advance))
        monkeypatch.setattr(engine, "position_fix",
                            counting("position_fix", engine.position_fix))
        monkeypatch.setattr(Simulation, "_stage",
                            counting("stage", Simulation._stage))
        sim = Simulation(small_scenario(
            n_agents=n_agents, layout={"kind": "grid", "spacing": 13.0}))
        for _ in range(3):
            calls.update(dict.fromkeys(calls, 0))
            sim.tick()
            assert calls == {"plant": 1, "fusion": 1, "position_fix": 1,
                             "stage": n_agents}

    @pytest.mark.parametrize("latency", [0, 1, 2, 3])
    def test_inputs_never_repeat_a_pair(self, latency, monkeypatch):
        # The bank rejects an (observer, id) pair that repeats within a
        # tick: sensing sees each agent once, and an inbox holds at most one
        # report per sender, whatever the latency and drops.
        counts = []
        original = TrackBank.apply_tick

        def recording(bank, sightings, velocities, *args):
            for inputs in (sightings, velocities):
                if inputs is not None:
                    counts.extend(np.bincount(inputs.observer).tolist())
                    pairs = list(zip(inputs.observer.tolist(),
                                     inputs.ids.tolist()))
                    assert len(set(pairs)) == len(pairs)
            return original(bank, sightings, velocities, *args)

        monkeypatch.setattr(TrackBank, "apply_tick", recording)
        run_scenario(small_scenario(
            n_agents=5, duration=3.0,
            sensors={"comm": {"latency_ticks": latency, "drop_prob": 0.3}}))
        assert max(counts) >= 3


class TestLogRoundTrip:
    def test_write_read_preserves_records(self, tmp_path):
        config = small_scenario(duration=1.0)
        art = run_scenario(config, log_path=tmp_path / "log.jsonl")
        loaded = read_log(tmp_path / "log.jsonl")
        assert loaded == json.loads(
            json.dumps(art.records)
        )  # same content modulo JSON round trip

    def test_header_first_summary_last(self, tmp_path):
        config = small_scenario(duration=1.0)
        art = run_scenario(config)
        assert art.records[0]["record"] == "header"
        assert art.records[0]["format_version"] == 1
        assert art.records[-1]["record"] == "summary"


class TestResponseModel:
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")),
                             ids=lambda path: path.stem)
    def test_shipped_configs_fly_the_plant_response(self, path):
        config = load_scenario(path)
        assert config.response_model is None
        expected = velocity_inference.ResponseModel.of_plant(
            config.dt, config.plant.tau)
        flight = dataclasses.replace(config, comm=False,
                                     duration=2 * config.dt)
        sim = Simulation(flight)
        assert sim.estimator.model == expected
        # The self-state filter flies the same lag.
        assert sim.self_filter.model.a[2, 2] == expected.a
        assert sim.self_filter.model.b[2, 0] == expected.b
        art = run_scenario(flight)
        assert art.config.response_model == expected
        assert art.records[0]["config"]["response_model"] == {
            "a": expected.a, "b": expected.b}

    def test_an_explicit_model_is_flown_and_logged(self):
        config = small_scenario(comm=False, duration=0.1,
                                response_model={"a": 0.5, "b": 0.25})
        model = velocity_inference.ResponseModel(a=0.5, b=0.25)
        assert Simulation(config).estimator.model == model
        flown = run_scenario(config).records
        assert flown[0]["config"]["response_model"] == {"a": 0.5, "b": 0.25}
        # The estimates are not those of the plant's own model.
        derived = run_scenario(small_scenario(comm=False, duration=0.1)).records

        def estimates(records):
            return [fragment["vel_est"] for r in records
                    if r["record"] == "tick"
                    for fragment in r["agents"].values()]

        assert estimates(flown) != estimates(derived)
        assert all(estimates(flown))
