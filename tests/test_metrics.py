import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fastflock.config import scenario_from_dict
from fastflock.engine import read_log, run_scenario, write_log
from fastflock.metrics import (
    compute_cvr,
    export_plot_data,
    neighbor_distance_stats,
    summarize,
    tick_records,
)

from . import metrics_oracle as oracle


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

    def test_replay_counts_the_post_advance_collision(self, tmp_path):
        # Two agents that close in on each other: the first logged
        # collision is at tick k, so a flight of k ticks collides only in
        # the check after its last advance, which the final record holds.
        overrides = {"n_agents": 2, "safety_radius": 25.0,
                     "layout": {"kind": "explicit",
                                "positions": [[0.0, 0.0], [30.0, 0.0]]}}
        longer = run_scenario(small_scenario(duration=30.0, **overrides))
        k = next(r["k"] for r in tick_records(longer.records)
                 if r["collisions"])
        art = run_scenario(small_scenario(duration=k * 0.05, **overrides),
                           log_path=tmp_path / "log.jsonl")
        replayed = summarize(read_log(tmp_path / "log.jsonl"))
        assert replayed.as_dict() == art.summary.as_dict()
        assert not any(r["collisions"] for r in tick_records(art.records))
        assert art.records[-2] == {"record": "final", "collisions": [[0, 1]]}
        assert art.summary.collisions == 1

    def test_velocity_estimate_rmse_only_without_comm(self):
        with_comm = run_scenario(small_scenario()).summary
        without = run_scenario(small_scenario(comm=False)).summary
        assert with_comm.velocity_estimate_rmse is None
        assert without.velocity_estimate_rmse is not None


@functools.cache
def twelve_agent_no_comm_flight() -> list[dict]:
    """The live records of a 12-agent no-comm flight, flown once; callers
    share them and must not modify them."""
    return run_scenario(small_scenario(n_agents=12, duration=1.0,
                                       comm=False)).records


def replayed_no_comm_flight(tmp_path):
    # The log sorts keys as strings ("10" before "2").
    write_log(twelve_agent_no_comm_flight(), tmp_path / "log.jsonl")
    return read_log(tmp_path / "log.jsonl")


def random_log(tmp_path):
    # Every field random, over 5 agents and 300 ticks; agent 0 selects, and
    # estimates the velocity of, agent 1 and an absent agent 7.
    rng = np.random.default_rng(5)
    paths = {aid: (np.cumsum(rng.normal(0.0, 0.7, size=(300, 2)), axis=0)
                   + rng.uniform(-30.0, 30.0, size=2)).tolist()
             for aid in range(5)}
    records = synthetic_log(paths, {0: [1, 7], 2: [3, 4]})
    for record in tick_records(records):
        agents = record["agents"]
        for fragment in agents.values():
            for key in ("v", "est_v"):
                fragment[key] = rng.normal(0.0, 2.0, size=2).tolist()
            for key in ("est_p", "own_p", "own_int"):
                fragment[key] = rng.normal(fragment["p"], 0.5).tolist()
            fragment["vio_w"], fragment["vio_w_target"] = (
                rng.uniform(size=2).tolist())
        agents["0"]["vel_est"] = {"7": [1.0, 2.0],
                                  "1": rng.normal(0.0, 2.0, size=2).tolist()}
    return records


def rounding_log(tmp_path):
    # Two still agents. Their gap, and agent 0's position-estimate error,
    # are vectors whose length summed along an axis rounds differently from
    # np.linalg.norm of the one vector (about 8 % of vectors do).
    rng = np.random.default_rng(0)
    hard = [v for v in rng.uniform(-50.0, 50.0, size=(200, 2)).tolist()
            if np.linalg.norm(v) != np.linalg.norm([v], axis=-1)[0]]
    gap, error = (hard + [[3.0, 4.0]] * 2)[:2]
    records = synthetic_log({0: [(0.0, 0.0)] * 2, 1: [gap] * 2}, {0: [1]})
    for record in tick_records(records):
        record["agents"]["0"]["est_p"] = error
    return records


FLIGHTS = {
    "comm": lambda tmp_path: run_scenario(small_scenario()).records,
    "no-comm": lambda tmp_path: run_scenario(
        small_scenario(comm=False)).records,
    "replayed-12-no-comm": replayed_no_comm_flight,
    "single-agent": lambda tmp_path: run_scenario(
        small_scenario(n_agents=1, duration=1.0)).records,
    "random-fields": random_log,
    "rounding": rounding_log,
}


@pytest.mark.parametrize("flight", FLIGHTS)
def test_columns_match_per_agent_oracle(flight, tmp_path):
    """The columnar metrics equal the per-agent ones they replaced, bit for
    bit: summaries as JSON text, plot data byte for byte."""
    body = [r for r in FLIGHTS[flight](tmp_path) if r["record"] != "summary"]
    summary = summarize(body)
    assert json.dumps(summary.as_dict(), sort_keys=True) == json.dumps(
        oracle.summarize(body).as_dict(), sort_keys=True)
    ticks = tick_records(body)
    assert neighbor_distance_stats(ticks) == oracle.neighbor_distance_stats(
        ticks)
    written = export_plot_data(body, summary, tmp_path / "columns")
    expected = oracle.export_plot_data(body, summary, tmp_path / "oracle")
    if flight == "replayed-12-no-comm":
        # The oracle writes the estimates in each record's key order, which
        # the replayed log has sorted as strings; the export writes them in
        # id order, as the live records hold them.
        live = oracle.export_plot_data(twelve_agent_no_comm_flight(), summary,
                                       tmp_path / "oracle-live")
        expected[-1] = live[-1]
    assert [Path(p).name for p in written] == [Path(p).name for p in expected]
    for path, reference in zip(written, expected):
        assert Path(path).read_bytes() == Path(reference).read_bytes(), path


def test_replayed_flight_exports_the_live_plot_data(tmp_path):
    """Beyond ten agents the log sorts ids as strings; every exported file
    of the replayed flight still equals the live flight's, byte for byte."""
    live = twelve_agent_no_comm_flight()
    replayed = replayed_no_comm_flight(tmp_path)
    written = export_plot_data(live, summarize(live), tmp_path / "live")
    again = export_plot_data(replayed, summarize(replayed),
                             tmp_path / "replayed")
    assert [Path(p).name for p in written] == [Path(p).name for p in again]
    assert Path(written[-1]).name == "velocity_estimates.csv"
    for path, reference in zip(again, written):
        assert Path(path).read_bytes() == Path(reference).read_bytes(), path
