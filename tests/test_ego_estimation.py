import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastflock.config import PlantConfig
from fastflock.ego_estimation import (
    FIX_SIGMA,
    FUSION_RATE,
    OdometryFusion,
    SelfStateFilter,
    VioSample,
    focal_model,
    position_fix,
    slew_weight,
)
from fastflock.sensors import (
    MAX_FEATURES,
    NOMINAL_TRACK_AGE,
    SensorConfig,
    vio_quality,
)
from fastflock.tracking import Sightings, world_offsets

from .kalman_oracle import oracle_correct, oracle_predict
from .tracking_oracle import TrackView, table


def self_filter(dt, positions, tau=PlantConfig().tau):
    """The self-state filter as a default scenario builds it, with the lag
    `tau`."""
    return SelfStateFilter(tau, SensorConfig().imu_accel_sigma, dt, positions)


def vio(count, age):
    """The quality score of `count` features, each `age` seconds old."""
    return vio_quality(count, np.full(count, float(age)))


def track(agent_id, x, y):
    return TrackView(agent_id, np.array([x, y]), np.zeros(2))


def fix_from(views, observations, heading):
    """`position_fix` on the one-row track table holding `views`, from
    observer 0's sightings `observations` with heading `heading`: the fix,
    or None when there is none."""
    states, tracks = table([views], width=10)
    sightings = Sightings.from_rows([(0, *o, 0.0) for o in observations])
    fixes, fixed = position_fix(states, tracks, sightings,
                                world_offsets(sightings, [heading]))
    return fixes[0] if fixed[0] else None


def masked(fixes):
    """A list of fixes, None for none, as `SelfStateFilter.step` takes them:
    the fixes (N, 2), zero where there is none, and the mask (N,) of the
    rows that have one."""
    fixed = np.array([fix is not None for fix in fixes])
    return np.array([np.zeros(2) if fix is None else fix for fix in fixes],
                    dtype=float).reshape(-1, 2), fixed


def obs(observed_id, bearing, distance):
    return observed_id, bearing, distance


class TestFocalModel:
    def test_velocity_decay_entries(self):
        dt, tau = 0.1, 0.3
        model = focal_model(dt, tau, np.zeros(6))
        e_d = math.exp(-dt / tau)
        assert model.a[2, 2] == pytest.approx(e_d)
        assert model.b[2, 0] == pytest.approx(1.0 - e_d)
        assert model.b[0, 0] == 0.0  # input only drives velocity rows

    def test_first_order_velocity_lag(self):
        dt, tau = 0.05, 0.3
        filt = self_filter(dt, np.zeros((1, 2)), tau)
        cmd = np.array([1.0, 0.0])
        for k in range(1, 200):
            [state] = filt.step([cmd], np.zeros((1, 2)), [False], None)
            expected_err = math.exp(-k * dt / tau)
            assert abs(state[2] - 1.0) < expected_err + 1e-9

    def test_all_zero_fixpoint(self):
        dt = 0.1
        filt = self_filter(dt, np.zeros((1, 2)))
        for _ in range(50):
            [state] = filt.step([np.zeros(2)], np.zeros((1, 2)), [True],
                                np.zeros((1, 2)))
        assert np.allclose(state, 0.0, atol=1e-12)

    def test_matches_oracle_recursion(self):
        rng = np.random.default_rng(21)
        dt = 0.1
        filt = self_filter(dt, np.array([[1.0, -1.0]]), 0.3)
        model = filt.model
        ox = filt.state[0].copy()
        op = filt.cov[0].copy()
        h_pos = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])
        h_acc = np.array([[0, 0, 0, 0, 1.0, 0], [0, 0, 0, 0, 0, 1.0]])
        for _ in range(100):
            cmd = rng.standard_normal(2)
            fix = rng.standard_normal(2) if rng.random() < 0.7 else None
            acc = rng.standard_normal(2) if rng.random() < 0.7 else None
            [state] = filt.step([cmd], *masked([fix]),
                                None if acc is None else acc[None])
            ox, op = oracle_predict(ox, op, model.a, model.q, b=model.b, u=cmd)
            if fix is not None:
                ox, op = oracle_correct(
                    ox, op, fix, h_pos, FIX_SIGMA**2 * np.eye(2)
                )
            if acc is not None:
                ox, op = oracle_correct(
                    ox, op, acc, h_acc, filt.accel_sigma**2 * np.eye(2)
                )
            assert np.max(np.abs(state - ox)) < 1e-10
            assert np.max(np.abs(filt.cov[0] - op)) < 1e-10

    def test_swarm_rows_equal_per_agent_filters_and_oracle(self):
        # Four agents, each tick a random mix of rows with and without a
        # fix (and one tick where no row has one): every row of the swarm
        # filter equals a one-agent filter fed the same inputs, bit for bit,
        # and the textbook recursion to 1e-10.
        rng = np.random.default_rng(44)
        dt, n = 0.05, 4
        starts = rng.normal(0.0, 10.0, size=(n, 2))
        swarm = self_filter(dt, starts, 0.3)
        singles = [self_filter(dt, starts[e:e + 1], 0.3) for e in range(n)]
        model = swarm.model
        oracle = [(swarm.state[e].copy(), swarm.cov[e].copy()) for e in range(n)]
        h_pos = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])
        h_acc = np.array([[0, 0, 0, 0, 1.0, 0], [0, 0, 0, 0, 0, 1.0]])
        for k in range(40):
            commands = rng.standard_normal((n, 2))
            fixes = [None if k == 7 or rng.random() < 0.4
                     else starts[e] + rng.standard_normal(2) for e in range(n)]
            accels = rng.standard_normal((n, 2))
            states = swarm.step(commands, *masked(fixes), accels)
            for e, single in enumerate(singles):
                [row] = single.step([commands[e]], *masked([fixes[e]]),
                                    accels[e:e + 1])
                assert np.array_equal(states[e], row)
                assert np.array_equal(swarm.cov[e], single.cov[0])
                assert np.array_equal(swarm.integral_position[e],
                                      single.integral_position[0])
                ox, op = oracle_predict(*oracle[e], model.a, model.q,
                                        b=model.b, u=commands[e])
                if fixes[e] is not None:
                    ox, op = oracle_correct(ox, op, fixes[e], h_pos,
                                            FIX_SIGMA**2 * np.eye(2))
                ox, op = oracle_correct(ox, op, accels[e], h_acc,
                                        swarm.accel_sigma**2 * np.eye(2))
                oracle[e] = (ox, op)
                assert np.max(np.abs(states[e] - ox)) < 1e-10
                assert np.max(np.abs(swarm.cov[e] - op)) < 1e-10

    def test_velocity_integral_tracks_velocity_only(self):
        dt = 0.1
        filt = self_filter(dt, np.zeros((1, 2)), 0.3)
        total = np.zeros(2)
        for _ in range(30):
            [state] = filt.step([np.array([1.0, 0.0])], np.zeros((1, 2)),
                                [False], None)
            total = total + state[2:4] * dt
        assert np.allclose(filt.integral_position[0], total)


class TestPositionFix:
    def test_single_consistent_neighbor(self):
        fix = fix_from([track(1, 10.0, 0.0)], [obs(1, 0.0, 10.0)], 0.0)
        assert np.allclose(fix, [0.0, 0.0], atol=1e-12)

    def test_mean_of_candidates(self):
        views = [track(1, 10.0, 0.0), track(2, 12.0, 0.0)]
        observations = [obs(1, 0.0, 10.0), obs(2, 0.0, 10.0)]
        fix = fix_from(views, observations, 0.0)
        assert np.allclose(fix, [1.0, 0.0], atol=1e-12)

    def test_heading_rotation_applied(self):
        fix = fix_from([track(1, 0.0, 10.0)], [obs(1, 0.0, 10.0)], math.pi / 2)
        assert np.allclose(fix, [0.0, 0.0], atol=1e-12)

    def test_no_qualifying_neighbor(self):
        assert fix_from([track(1, 10.0, 0.0)], [obs(2, 0.0, 5.0)], 0.0) is None
        assert fix_from([], [obs(1, 0.0, 5.0)], 0.0) is None

    def test_swarm_fixes_equal_each_agents_mean(self):
        # Twelve observers, each tracking a random subset of the others and
        # sighting most of them in a random order; one tracks no one. Each
        # fix equals np.mean of the observer's candidates in sighting
        # order, bit for bit, up to eleven candidates.
        rng = np.random.default_rng(8)
        n = 12
        states = rng.normal(0.0, 20.0, size=(n, n, 6))
        tracks = rng.random((n, n)) < 0.7
        tracks[0] = True
        tracks[3] = False
        rows = [(e, j, float(rng.uniform(-3.0, 3.0)),
                 float(rng.uniform(1.0, 30.0)), 0.0)
                for e in range(n) for j in rng.permutation(n).tolist()
                if j != e and (e == 0 or rng.random() < 0.8)]
        sightings = Sightings.from_rows(rows)
        offsets = world_offsets(sightings, rng.uniform(-3.0, 3.0, n))
        fixes, fixed = position_fix(states, tracks, sightings, offsets)
        for e in range(n):
            mine = sightings.observer == e
            seen = tracks[e, sightings.ids[mine]]
            assert fixed[e] == seen.any()
            if seen.any():
                expected = np.mean(states[e, sightings.ids[mine][seen], :2]
                                   - offsets[mine][seen], axis=0)
                assert fixes[e].tobytes() == expected.tobytes()
        assert not fixed[3] and fixed[0]

    def test_fix_error_bounded_under_noise(self):
        # 200 ticks, 3 neighbors, 1 m observation noise: fix RMS below 1 m.
        rng = np.random.default_rng(17)
        truth = np.array([3.0, -2.0])
        neighbors = {1: np.array([15.0, 0.0]), 2: np.array([0.0, 15.0]),
                     3: np.array([-12.0, -5.0])}
        errors = []
        for _ in range(200):
            views, observations = [], []
            for nid, pos in neighbors.items():
                views.append(TrackView(nid, pos + rng.normal(0, 0.3, 2),
                                       np.zeros(2)))
                rel = pos - truth + rng.normal(0, 1.0, 2)
                observations.append(
                    obs(nid, math.atan2(rel[1], rel[0]), float(np.linalg.norm(rel)))
                )
            fix = fix_from(views, observations, 0.0)
            errors.append(np.linalg.norm(fix - truth) ** 2)
        assert math.sqrt(np.mean(errors)) < 1.0


class TestVioWeightTarget:
    def test_full_feature_set(self):
        assert vio(MAX_FEATURES, NOMINAL_TRACK_AGE) == pytest.approx(1.0)

    def test_no_features(self):
        assert vio(0, NOMINAL_TRACK_AGE) == 0.0

    def test_half_features(self):
        assert vio(MAX_FEATURES // 2, NOMINAL_TRACK_AGE) == pytest.approx(0.25)

    def test_clamped_to_unit_interval(self):
        assert vio(MAX_FEATURES, 25 * NOMINAL_TRACK_AGE) == 1.0


class TestSlewWeight:
    def test_at_target_unchanged(self):
        assert slew_weight(0.5, 0.5, 0.2, 0.1) == 0.5

    def test_one_step_down(self):
        assert slew_weight(0.8, 0.5, 1.0, 0.1) == pytest.approx(0.7)

    def test_no_overshoot(self):
        assert slew_weight(0.55, 0.5, 1.0, 0.1) == 0.5

    def test_one_step_up(self):
        assert slew_weight(0.2, 0.9, 1.0, 0.1) == pytest.approx(0.3)

    # An array call per step: a slow rate over a short step takes tens of
    # thousands of steps, which outlasts hypothesis's default deadline.
    @settings(deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.01, 2.0),
        st.floats(0.001, 0.5),
    )
    def test_stays_in_unit_interval_and_converges(self, lam, target, rate, dt):
        # +1 tick of slack: summing rate*dt can round just short of the gap.
        steps = math.ceil(abs(lam - target) / (rate * dt)) + 1
        value = lam
        for _ in range(steps):
            value = slew_weight(value, target, rate, dt)
            assert 0.0 <= value <= 1.0
        assert value == target


def fuse_row(fusion, vio_position, vio_velocity, own_position, own_velocity,
             weight):
    """One-row `fusion.advance` on one agent's vectors (2,), from a sample
    whose quality score is `weight`, over a step long enough for the weight
    to reach it; returns the fusion's row of position and velocity."""
    sample = VioSample(
        position=np.asarray(vio_position, dtype=float),
        velocity=np.asarray(vio_velocity, dtype=float),
        quality=weight,
    )
    own = np.concatenate([own_position, own_velocity, np.zeros(2)])[None]
    fusion.advance([sample], own, dt=1.0 / FUSION_RATE)
    assert fusion.vio_weight[0] == fusion.weight_target[0] == weight
    return fusion.position[0], fusion.velocity[0]


def fusion_at(start=(0.0, 0.0)):
    """A one-agent fusion at `start`."""
    return OdometryFusion([start])


class TestFusion:
    def test_starts_at_rest_at_the_start_positions(self):
        starts = np.array([[1.0, 2.0], [-3.0, 4.0]])
        fusion = OdometryFusion(starts)
        assert np.array_equal(fusion.position, starts)
        assert np.array_equal(fusion.velocity, np.zeros((2, 2)))
        assert np.array_equal(fusion.vio_weight, [1.0, 1.0])

    def test_full_vio_weight_follows_vio_deltas(self):
        fusion = fusion_at()
        rng = np.random.default_rng(1)
        vio_pos = np.zeros(2)
        own_pos = np.zeros(2)
        for _ in range(20):
            vio_pos = vio_pos + rng.standard_normal(2)
            own_pos = own_pos + rng.standard_normal(2)
            position, velocity = fuse_row(fusion, vio_pos, np.ones(2),
                                          own_pos, np.zeros(2), 1.0)
        assert np.allclose(position, vio_pos)
        assert np.allclose(velocity, [1.0, 1.0])

    def test_zero_vio_weight_follows_own_deltas(self):
        fusion = fusion_at()
        rng = np.random.default_rng(2)
        vio_pos = np.zeros(2)
        own_pos = np.zeros(2)
        for _ in range(20):
            vio_pos = vio_pos + rng.standard_normal(2)
            own_pos = own_pos + rng.standard_normal(2)
            position, velocity = fuse_row(fusion, vio_pos, np.zeros(2),
                                          own_pos, np.full(2, 3.0), 0.0)
        assert np.allclose(position, own_pos)
        assert np.allclose(velocity, [3.0, 3.0])

    def test_midpoint_blend(self):
        fusion = fusion_at()
        fuse_row(fusion, np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), 0.5)
        position, _ = fuse_row(fusion, np.array([1.0, 0.0]), np.zeros(2),
                               np.array([0.0, 1.0]), np.zeros(2), 0.5)
        assert np.allclose(position, [0.5, 0.5])

    def test_identical_streams_pass_through(self):
        rng = np.random.default_rng(3)
        start = np.array([5.0, -1.0])
        fusion = fusion_at(start)
        pos = start.copy()
        for k in range(30):
            pos = pos + rng.standard_normal(2)
            vel = rng.standard_normal(2)
            position, velocity = fuse_row(fusion, pos, vel, pos, vel,
                                          float(rng.uniform(0, 1)))
            assert np.allclose(position, pos, atol=1e-9)
            assert np.allclose(velocity, vel, rtol=0, atol=1e-12)

    def test_translation_equivariance(self):
        shift = np.array([100.0, -50.0])
        rng = np.random.default_rng(4)
        f1, f2 = fusion_at(), fusion_at()
        vio_pos, own_pos = np.zeros(2), np.zeros(2)
        for _ in range(15):
            vio_pos = vio_pos + rng.standard_normal(2)
            own_pos = own_pos + rng.standard_normal(2)
            lam = float(rng.uniform(0, 1))
            p1, _ = fuse_row(f1, vio_pos, np.zeros(2), own_pos, np.zeros(2), lam)
            p2, _ = fuse_row(f2, vio_pos + shift, np.zeros(2), own_pos + shift,
                             np.zeros(2), lam)
        assert np.allclose(p2 - p1, shift, atol=1e-9)
