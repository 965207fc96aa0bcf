import math

import numpy as np
import pytest

from fastflock.flocking import FOCAL_MEMBER_ID, ControllerGains
from fastflock.velocity_inference import (
    ResponseModel,
    VelocityEstimator,
    estimate_velocities,
)

from .neighborhoods import replay_view
from .tracking_oracle import TrackView, table

GAINS = ControllerGains(
    kp=1.0, kv=0.5, cruise_speed=5.0, d_min=15.0, d_max=40.0, spacing=13.0
)
SENSOR_RANGE = 50.0
FOV = math.radians(320.0)


def view(agent_id, x, y, vx=0.0, vy=0.0):
    return TrackView(agent_id, np.array([x, y]), np.array([vx, vy]))


def view_of(views, target, *args, **kwargs):
    """The replayed neighbourhood of `target` on the one-row track table of
    `views`."""
    states, tracks = table([views], width=10)
    return replay_view(states[0], tracks[0], target.agent_id, *args, **kwargs)


def estimates_of(views, own_position, target_rel, psi, gains, model,
                 sensor_range, fov, previous):
    """`estimate_velocities` on the one-row track table of `views`, with
    the previous estimates given by id; returns (id, estimate) pairs by
    ascending id."""
    states, tracks = table([views], width=10)
    prev = states[0, :, 2:4].copy()
    for agent_id, estimate in previous.items():
        prev[agent_id] = estimate
    out = estimate_velocities(states, tracks, [own_position], [target_rel],
                              [psi], gains, model, sensor_range, fov,
                              prev[None])[0]
    return [(j, out[j]) for j in np.flatnonzero(tracks[0]).tolist()]


def update(est, views):
    """One estimator tick of one agent at the origin that tracks `views`."""
    states, tracks = table([views], width=3)
    return est.update(states, tracks, [np.zeros(2)], [np.array([50.0, 0.0])],
                      [0.0])


def test_plant_response_is_the_shipped_model():
    # The zero-order-hold discretisation of a first-order lag with
    # tau = 0.5 s at dt = 0.05 s, bit for bit.
    model = ResponseModel.of_plant(0.05, 0.5)
    assert model == ResponseModel(a=0.9048374180359595, b=0.09516258196404048)
    assert model.a == math.exp(-0.1) and model.b == 1.0 - model.a


class TestEstimateView:
    def test_lone_neighbor_sees_only_focal(self):
        views = [view(1, 13.0, 0.0)]
        members = view_of(
            views, views[0], np.zeros(2), 0.0,
            SENSOR_RANGE, FOV, 4, in_focal_neighborhood=True,
        )
        assert len(members) == 1
        assert members[0].distance == pytest.approx(13.0)
        assert members[0].bearing == pytest.approx(math.pi)

    def test_focal_agent_tagged(self):
        views = [view(1, 13.0, 0.0), view(2, 20.0, 5.0)]
        members = view_of(
            views, views[0], np.zeros(2), 0.0,
            SENSOR_RANGE, FOV, 4, in_focal_neighborhood=True,
        )
        assert [m.agent_id for m in members] == [2, FOCAL_MEMBER_ID]
        assert members[-1].distance == pytest.approx(13.0)

    def test_equilateral_views_contain_both_others(self):
        side = 13.0
        views = [view(1, side, 0.0), view(2, side / 2, side * math.sqrt(3) / 2)]
        for target, other_id in ((views[0], 2), (views[1], 1)):
            members = view_of(
                views, target, np.zeros(2), 0.0,
                SENSOR_RANGE, FOV, 4, in_focal_neighborhood=True,
            )
            ids = {m.agent_id for m in members}
            assert other_id in ids  # the other tracked agent
            assert len(members) == 2  # plus the focal agent

    def test_out_of_range_agent_excluded(self):
        views = [view(1, 13.0, 0.0), view(2, 13.0 + SENSOR_RANGE + 5.0, 0.0)]
        members = view_of(
            views, views[0], np.zeros(2), 0.0,
            SENSOR_RANGE, FOV, 4, in_focal_neighborhood=False,
        )
        assert [m.agent_id for m in members] == []

    def test_blind_spot_by_estimated_heading(self):
        # Neighbor 1 moves east, so its estimated blind spot faces west;
        # agent 2 due west of it is excluded, but sits in the view again
        # when 1 moves west.
        views_east = [view(1, 20.0, 0.0, vx=2.0), view(2, 0.0, 0.0)]
        members = view_of(
            views_east, views_east[0], np.array([100.0, 100.0]), 0.0,
            SENSOR_RANGE, FOV, 4, in_focal_neighborhood=False,
        )
        assert [m.agent_id for m in members] == []
        views_west = [view(1, 20.0, 0.0, vx=-2.0), view(2, 0.0, 0.0)]
        members = view_of(
            views_west, views_west[0], np.array([100.0, 100.0]), 0.0,
            SENSOR_RANGE, FOV, 4, in_focal_neighborhood=False,
        )
        assert [m.agent_id for m in members] == [2]

    def test_overestimation_uses_focal_knowledge_only(self):
        # The focal agent has no occlusion model: whatever it tracks and
        # passes the range/field-of-view test is assumed visible to the
        # neighbor, even if the neighbor could not actually see it.
        views = [view(1, 20.0, 0.0, vx=-1.0), view(2, -5.0, 0.0)]
        members = view_of(
            views, views[0], np.zeros(2), 0.0,
            SENSOR_RANGE, FOV, 4, in_focal_neighborhood=False,
        )
        assert 2 in {m.agent_id for m in members}


class TestEstimateVelocities:
    def test_empty_surroundings(self):
        model = ResponseModel(a=0.8, b=0.2)
        out = estimates_of(
            [], np.zeros(2), np.array([100.0, 0.0]), 0.0,
            GAINS, model, SENSOR_RANGE, FOV, {},
        )
        assert out == []

    def test_geometric_convergence_at_equilibrium(self):
        model = ResponseModel(a=0.8, b=0.2)
        views = [view(1, GAINS.spacing, 0.0)]
        target = np.array([100.0, 0.0])
        prev = {1: np.zeros(2)}
        expected_err = GAINS.cruise_speed
        for _ in range(25):
            out = estimates_of(
                views, np.zeros(2), target, 0.0,
                GAINS, model, SENSOR_RANGE, FOV, prev,
            )
            (agent_id, estimate), = out
            assert agent_id == 1
            err = abs(estimate[0] - GAINS.cruise_speed)
            expected_err *= model.a
            assert err == pytest.approx(expected_err, rel=1e-9)
            assert abs(estimate[1]) < 1e-12
            prev = {1: estimate}

    def test_monotone_convergence_per_component(self):
        model = ResponseModel(a=0.7, b=0.3)
        views = [view(1, GAINS.spacing, 0.0)]
        target = np.array([100.0, 0.0])
        prev = {1: np.array([9.0, -4.0])}
        last = prev[1]
        for _ in range(30):
            out = estimates_of(
                views, np.zeros(2), target, 0.0,
                GAINS, model, SENSOR_RANGE, FOV, prev,
            )
            estimate = out[0][1]
            for axis in range(2):
                lo = min(last[axis], GAINS.cruise_speed if axis == 0 else 0.0)
                hi = max(last[axis], GAINS.cruise_speed if axis == 0 else 0.0)
                assert lo - 1e-12 <= estimate[axis] <= hi + 1e-12
            prev = {1: estimate}
            last = estimate

    def test_pure_function_bitwise_repeatable(self):
        model = ResponseModel(a=0.85, b=0.15)
        rng = np.random.default_rng(2)
        views = [
            view(i, *rng.uniform(-30, 30, size=2), *rng.uniform(-2, 2, size=2))
            for i in range(1, 5)
        ]
        prev = {i: rng.uniform(-1, 1, size=2) for i in range(1, 5)}
        args = (
            views, np.zeros(2), np.array([60.0, 10.0]),
            0.3, GAINS, model, SENSOR_RANGE, FOV, dict(prev),
        )
        first = estimates_of(*args)
        second = estimates_of(*args)
        assert [i for i, _ in first] == [i for i, _ in second]
        for (_, a), (_, b) in zip(first, second):
            assert np.array_equal(a, b)

    def test_output_ordered_by_id(self):
        model = ResponseModel(a=0.8, b=0.2)
        views = [view(5, 10.0, 0.0), view(2, 0.0, 10.0), view(9, -10.0, 0.0)]
        out = estimates_of(
            views, np.zeros(2), np.array([80.0, 0.0]), 0.0,
            GAINS, model, SENSOR_RANGE, FOV, {},
        )
        assert [i for i, _ in out] == [2, 5, 9]

    def test_each_replay_computes_heading_once(self, monkeypatch):
        from fastflock import flocking, velocity_inference

        # The replay calls the controller's own heading function, once for
        # all of its neighbourhoods.
        assert (velocity_inference.neighborhood_heading
                is flocking.neighborhood_heading)
        model = ResponseModel(a=0.8, b=0.2)
        views = [view(5, 10.0, 0.0, vx=1.0), view(2, 0.0, 10.0),
                 view(9, -10.0, 0.0)]
        args = (views, np.zeros(2), np.array([80.0, 0.0]), 0.0,
                GAINS, model, SENSOR_RANGE, FOV, {})
        expected = estimates_of(*args)
        rows = []
        original = flocking.neighborhood_heading

        def counting(hoods, *a, **kw):
            rows.append(len(hoods.count))
            return original(hoods, *a, **kw)

        monkeypatch.setattr(velocity_inference, "neighborhood_heading",
                            counting)
        out = estimates_of(*args)
        assert rows == [len(views)]
        for (i, a), (j, b) in zip(out, expected):
            assert i == j and np.array_equal(a, b)


class TestVelocityEstimator:
    def test_state_initialized_from_track_velocity(self):
        model = ResponseModel(a=1.0 - 1e-12, b=1e-12)  # hold previous value
        est = VelocityEstimator(GAINS, model, SENSOR_RANGE, FOV, 1)
        out = update(est, [view(1, 20.0, 0.0, vx=3.0, vy=1.0)])
        assert np.allclose(out[0, 1], [3.0, 1.0], atol=1e-6)

    def test_dropped_tracks_pruned(self):
        model = ResponseModel(a=0.8, b=0.2)
        est = VelocityEstimator(GAINS, model, SENSOR_RANGE, FOV, 1)
        update(est, [view(1, 20.0, 0.0)])
        assert est.estimated[0].tolist() == [False, True, False]
        update(est, [view(2, 10.0, 0.0)])
        assert est.estimated[0].tolist() == [False, False, True]
