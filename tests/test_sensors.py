import math
from typing import NamedTuple

import numpy as np
import pytest

from fastflock.ego_estimation import slew_weight
from fastflock.geometry import pairwise, rotation, wrap_angle
from fastflock.sensors import (
    STARVE_SPEED,
    CommChannel,
    CommConfig,
    SensorConfig,
    VioConfig,
    VioEmulator,
    observe,
)


def noiseless_config(**overrides):
    base = dict(
        bearing_sigma=0.0,
        range_sigma_rel=0.0,
        dropout_prob=0.0,
    )
    base.update(overrides)
    return SensorConfig(**base)


POSITIONS = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 20.0], [-30.0, 0.0]])
REL, DIST = pairwise(POSITIONS)


class Seen(NamedTuple):
    observed_id: int
    bearing: float
    distance: float


def seen_by_first(rel, dist, heading, config, rng):
    """Agent 0's rows of the swarm's sightings, with agent 0 at `heading`
    drawing from `rng`."""
    n = len(dist)
    rngs = [rng] + [np.random.default_rng(1000 + k) for k in range(1, n)]
    seen = observe(rel, dist, [heading] + [0.0] * (n - 1), config, rngs, 0.0)
    mine = seen.observer == 0
    return [Seen(*row) for row in zip(seen.ids[mine].tolist(),
                                      seen.bearing[mine].tolist(),
                                      seen.distance[mine].tolist())]


class TestObserve:
    def test_agent_behind_is_in_blind_spot(self):
        config = noiseless_config()
        rng = np.random.default_rng(0)
        seen = seen_by_first(REL, DIST, 0.0, config, rng)
        ids = [o.observed_id for o in seen]
        assert 3 not in ids  # bearing pi relative to heading 0: blind spot
        assert set(ids) == {1, 2}

    def test_noiseless_exact_geometry(self):
        config = noiseless_config()
        rng = np.random.default_rng(0)
        seen = {
            o.observed_id: o
            for o in seen_by_first(REL, DIST, 0.0, config, rng)
        }
        assert seen[1].distance == pytest.approx(10.0)
        assert seen[1].bearing == pytest.approx(0.0)
        assert seen[2].distance == pytest.approx(20.0)
        assert seen[2].bearing == pytest.approx(math.pi / 2)

    def test_max_range_enforced(self):
        config = noiseless_config(max_range=15.0)
        rng = np.random.default_rng(0)
        seen = seen_by_first(REL, DIST, 0.0, config, rng)
        assert [o.observed_id for o in seen] == [1]

    def test_same_seed_same_tick_identical(self):
        config = SensorConfig()
        a = seen_by_first(REL, DIST, 0.3, config, np.random.default_rng(42))
        b = seen_by_first(REL, DIST, 0.3, config, np.random.default_rng(42))
        assert len(a) == len(b)
        for oa, ob in zip(a, b):
            assert oa == ob

    def test_rotation_invariance_of_observation_set(self):
        config = noiseless_config()
        alpha = 1.234
        turned_rel, turned_dist = pairwise(POSITIONS @ rotation(alpha).T)
        base = seen_by_first(REL, DIST, 0.5, config,
                       np.random.default_rng(0))
        moved = seen_by_first(turned_rel, turned_dist, 0.5 + alpha, config,
                        np.random.default_rng(0))
        assert [o.observed_id for o in base] == [o.observed_id for o in moved]
        for oa, ob in zip(base, moved):
            assert oa.distance == pytest.approx(ob.distance, abs=1e-9)
            assert wrap_angle(oa.bearing - ob.bearing) == pytest.approx(0.0, abs=1e-9)

    def test_heading_shifts_blind_spot(self):
        config = noiseless_config()
        rng = np.random.default_rng(0)
        seen = seen_by_first(REL, DIST, math.pi, config, rng)
        ids = {o.observed_id for o in seen}
        assert 1 not in ids  # now directly behind
        assert 3 in ids

    def test_draw_error_names_the_observer(self):
        # Agent 0 sees no one within 15 m, so agent 1 makes the first draw,
        # which a negative sigma makes raise.
        config = noiseless_config(max_range=15.0, bearing_sigma=-1.0)
        rngs = [np.random.default_rng(k) for k in range(4)]
        points = POSITIONS + np.array([[-50.0, 0.0], [0.0, 0.0], [0.0, -10.0],
                                       [0.0, 0.0]])
        rel, dist = pairwise(points)
        with pytest.raises(ValueError) as info:
            observe(rel, dist, [0.0] * 4, config, rngs, 0.0)
        assert info.value.owner == 1


class TestVioEmulator:
    def test_noiseless_pose_equals_truth(self):
        config = VioConfig(pos_sigma=0.0, vel_sigma=0.0, drift_rate=0.0,
                           count_sigma=0.0)
        emu = VioEmulator(config, np.random.default_rng(1))
        sample = emu.sample(np.array([5.0, 6.0]), np.array([1.0, 0.0]), dt=0.1)
        assert np.allclose(sample.position, [5.0, 6.0])
        assert np.allclose(sample.velocity, [1.0, 0.0])

    def test_hover_keeps_high_weight_target(self):
        config = VioConfig()
        emu = VioEmulator(config, np.random.default_rng(2))
        targets = []
        for _ in range(400):
            sample = emu.sample(np.zeros(2), np.zeros(2), dt=0.05)
            targets.append(sample.quality)
        assert np.mean(targets[100:]) > 0.8

    def test_starvation_speed_kills_features(self):
        config = VioConfig(count_sigma=0.0)
        emu = VioEmulator(config, np.random.default_rng(3))
        vel = np.array([STARVE_SPEED + 1.0, 0.0])
        for _ in range(100):
            sample = emu.sample(np.zeros(2), vel, dt=0.05)
        # The pools are fitted to the feature count.
        assert len(emu._stable) + len(emu._transient) == 0
        assert sample.quality == 0.0

    def test_cruise_dip_and_recovery(self):
        # Hover -> 5 m/s cruise -> hover: the slewed weight dips below 0.9
        # during the cruise and recovers afterwards, staying inside [0.3, 0.9]
        # at its lowest point.
        config = VioConfig()
        emu = VioEmulator(config, np.random.default_rng(4))
        dt = 0.05
        weight, rate = 1.0, 0.2
        trace = []
        profile = [(0.0, 200), (5.0, 800), (0.0, 400)]
        for speed, ticks in profile:
            vel = np.array([speed, 0.0])
            for _ in range(ticks):
                sample = emu.sample(np.zeros(2), vel, dt=dt)
                weight = slew_weight(weight, sample.quality, rate, dt)
                trace.append(weight)
        low = min(trace)
        assert 0.3 <= low <= 0.9
        assert trace[-1] > low + 0.2  # recovered after deceleration
        assert min(trace[:200]) > 0.9  # hover segment unaffected

    def test_determinism_given_seed(self):
        config = VioConfig()
        runs = []
        for _ in range(2):
            emu = VioEmulator(config, np.random.default_rng(7))
            out = []
            for k in range(50):
                speed = 4.0 if k > 20 else 0.0
                sample = emu.sample(np.zeros(2), np.array([speed, 0.0]),
                                    dt=0.05)
                out.append((sample.quality, tuple(sample.position)))
            runs.append(out)
        assert runs[0] == runs[1]


class TestCommChannel:
    def test_zero_latency_same_tick(self):
        chan = CommChannel(CommConfig(latency_ticks=0, drop_prob=0.0),
                           [np.random.default_rng(0), np.random.default_rng(1)])
        chan.send(5, [np.zeros(2), np.array([1.0, 2.0])])
        out = chan.deliver(5)
        assert len(out) == 2
        assert out.observer[0] == 0 and out.ids[0] == 1
        assert out.velocity[0].tolist() == [1.0, 2.0]

    def test_latency_delays_delivery(self):
        chan = CommChannel(CommConfig(latency_ticks=2, drop_prob=0.0),
                           [np.random.default_rng(0), np.random.default_rng(1)])
        chan.send(5, [np.zeros(2), np.array([1.0, 2.0])])
        assert len(chan.deliver(5)) == 0
        assert len(chan.deliver(6)) == 0
        assert len(chan.deliver(7)) == 2

    def test_full_drop_equals_disabled(self):
        chan = CommChannel(CommConfig(drop_prob=1.0),
                           [np.random.default_rng(0), np.random.default_rng(1)])
        for tick in range(10):
            chan.send(tick, [np.zeros(2), np.zeros(2)])
        assert all(len(chan.deliver(t)) == 0 for t in range(10))
