import copy
import math

import numpy as np
import pytest

from fastflock.config import scenario_from_dict
from fastflock.engine import read_log, run_scenario, write_log
from fastflock.metrics import (
    compute_cvr,
    neighbor_distance_stats,
    run_ablation,
    summarize,
    tick_records,
)


def synthetic_log(agent_paths, neighbors, dt=0.1, cruise=5.0):
    """Minimal log: agent_paths maps id -> list of positions; neighbors maps
    id -> neighbor id list (constant over the run)."""
    n_ticks = len(next(iter(agent_paths.values())))
    header = {
        "record": "header",
        "format_version": 1,
        "config": {"dt": dt, "gains": {"cruise_speed": cruise}},
    }
    records = [header]
    for k in range(n_ticks):
        agents = {}
        for aid, path in agent_paths.items():
            pos = list(path[k])
            agents[str(aid)] = {
                "p": pos,
                "v": [0.0, 0.0],
                "est_p": pos,
                "est_v": [0.0, 0.0],
                "own_p": pos,
                "own_int": pos,
                "vio_w": 1.0,
                "vio_w_target": 1.0,
                "neighbors": neighbors.get(aid, []),
            }
        records.append(
            {
                "record": "tick",
                "k": k,
                "t": k * dt,
                "target": [0.0, 0.0],
                "collisions": [],
                "agents": agents,
            }
        )
    return records


class TestComputeCvr:
    def test_static_swarm_zero(self):
        center = np.zeros((50, 2))
        cvr = compute_cvr(center, 0.1, 5.0)
        assert np.allclose(cvr, 0.0)

    def test_full_speed_one(self):
        t = np.arange(100) * 0.1
        center = np.stack([5.0 * t, np.zeros_like(t)], axis=1)
        cvr = compute_cvr(center, 0.1, 5.0)
        assert np.allclose(cvr, 1.0)

    def test_half_speed(self):
        t = np.arange(100) * 0.1
        center = np.stack([2.5 * t, np.zeros_like(t)], axis=1)
        cvr = compute_cvr(center, 0.1, 5.0)
        assert np.allclose(cvr, 0.5)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        center = np.cumsum(rng.normal(0, 0.2, size=(200, 2)), axis=0)
        base = compute_cvr(center, 0.1, 5.0)
        angle = 1.1
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)],
             [math.sin(angle), math.cos(angle)]]
        )
        moved = center @ rot.T + np.array([300.0, -40.0])
        assert np.allclose(compute_cvr(moved, 0.1, 5.0), base, atol=1e-9)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            compute_cvr(np.zeros((1, 2)), 0.1, 5.0)


class TestNeighborDistanceStats:
    def test_fixed_pair(self):
        paths = {
            0: [(0.0, 0.0)] * 20,
            1: [(13.0, 0.0)] * 20,
        }
        records = synthetic_log(paths, {0: [1], 1: [0]})
        mean, std, count = neighbor_distance_stats(tick_records(records))
        assert mean == pytest.approx(13.0)
        assert std == pytest.approx(0.0)
        assert count == 20

    def test_alternating_distances_population_std(self):
        paths = {
            0: [(0.0, 0.0)] * 20,
            1: [(12.0, 0.0), (14.0, 0.0)] * 10,
        }
        records = synthetic_log(paths, {0: [1]})
        mean, std, _ = neighbor_distance_stats(tick_records(records))
        assert mean == pytest.approx(13.0)
        assert std == pytest.approx(1.0)

    def test_pairs_deduplicated(self):
        # Mutual selection counts the pair once per tick.
        paths = {0: [(0.0, 0.0)] * 5, 1: [(10.0, 0.0)] * 5}
        records = synthetic_log(paths, {0: [1], 1: [0]})
        _, _, count = neighbor_distance_stats(tick_records(records))
        assert count == 5

    def test_no_pairs_signalled(self):
        paths = {0: [(0.0, 0.0)] * 5}
        records = synthetic_log(paths, {0: []})
        assert neighbor_distance_stats(tick_records(records)) is None


def small_scenario(**overrides):
    data = {
        "seed": 9,
        "dt": 0.05,
        "duration": 4.0,
        "n_agents": 3,
        "layout": {"kind": "ring", "spacing": 13.0},
        "gains": {"kp": 0.8, "kv": 0.5, "cruise_speed": 5.0, "d_min": 15.0,
                  "d_max": 40.0, "spacing": 13.0},
        "target": {"kind": "static", "position": [120.0, 0.0]},
        "response_model": {"a": 0.9048374180359595, "b": 0.09516258196404048},
    }
    data.update(overrides)
    return scenario_from_dict(data)


class TestSummarize:
    def test_recomputation_from_records_matches_live(self):
        art = run_scenario(small_scenario())
        again = summarize([r for r in art.records if r["record"] != "summary"])
        assert again.as_dict() == art.summary.as_dict()

    def test_replay_equals_live_beyond_ten_agents(self, tmp_path):
        # The log sorts keys as strings ("10" before "2"); the replayed
        # summary must still fold agents, pairs and estimates in id order.
        art = run_scenario(small_scenario(n_agents=12, duration=1.0, comm=False))
        write_log(art.records, tmp_path / "log.jsonl")
        replayed = summarize(read_log(tmp_path / "log.jsonl"))
        assert art.summary.collisions == 0
        assert replayed.as_dict() == art.summary.as_dict()

    def test_velocity_estimate_rmse_only_without_comm(self):
        with_comm = run_scenario(small_scenario()).summary
        without = run_scenario(small_scenario(comm=False)).summary
        assert with_comm.velocity_estimate_rmse is None
        assert without.velocity_estimate_rmse is not None


class TestAblation:
    def test_paired_structure_and_comm_run_matches_plain(self, tmp_path):
        config = small_scenario()
        result = run_ablation(config)
        plain = run_scenario(config).summary
        assert result.comm.as_dict() == plain.as_dict()
        assert result.no_comm.as_dict() != plain.as_dict()
        assert isinstance(result.distance_std_delta, float)

    def test_distance_std_delta_none_without_neighbors(self):
        result = run_ablation(small_scenario(n_agents=1, duration=1.0))
        assert result.comm.neighbor_distance_std is None
        assert result.distance_std_delta is None
