import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastflock.flocking import (
    PAIR_ANGLE,
    ControllerGains,
    FlockingCommand,
    FlockingController,
    _blend_weights,
    _group_heading,
    _with_target,
    desired_offset,
    flocking_command,
    group_velocity,
    neighborhood_heading,
    select_neighbors,
)
from fastflock.geometry import heading_vectors, rotation, wrap_angle

from .flocking_oracle import NeighborInfo
from .neighborhoods import members, stack
from .tracking_oracle import TrackView, table

GAINS = ControllerGains(
    kp=1.0, kv=0.5, cruise_speed=5.0, d_min=15.0, d_max=40.0, spacing=13.0
)


def member(bearing, distance, agent_id=1):
    return NeighborInfo(agent_id=agent_id, bearing=bearing, distance=distance)


def view(agent_id, x, y):
    return TrackView(agent_id, np.array([x, y]), np.zeros(2))


def nearest_of(views, own_position, max_neighbors):
    """`select_neighbors` on the one-row track table holding `views`."""
    states, tracks = table([views], width=10)
    return members(select_neighbors(states, tracks, [own_position],
                                    max_neighbors))[0]


def group_heading(center, goal, previous):
    """`_group_heading` of one row."""
    return float(_group_heading(center[None], goal[None],
                                np.array([previous]))[0])


def heading(row, goal, previous):
    """`neighborhood_heading` of one neighbourhood."""
    return float(neighborhood_heading(stack([row]), goal[None],
                                      np.array([previous]))[0])


def blend_weights(bearings, psi, scale=math.pi / 4):
    """`_blend_weights` of one row of members at `bearings`."""
    bearing = np.array([bearings], dtype=float)
    return _blend_weights(bearing, np.array([psi]), np.ones(bearing.shape, bool),
                          np.array([bearing.shape[1]]), scale)[0]


def offset(row, psi):
    """`desired_offset` of one neighbourhood."""
    return desired_offset(stack([row]), np.array([psi]), GAINS)[0]


def command(row, psi, target_rel, offset_rate=None):
    """`flocking_command` of one neighbourhood, as its row of the stack."""
    rate = None if offset_rate is None else offset_rate[None]
    stacked = flocking_command(stack([row]), np.array([psi]), target_rel[None],
                               GAINS, rate)
    return FlockingCommand(*(getattr(stacked, f.name)[0]
                             for f in dataclasses.fields(stacked)))


def update(ctrl, views, own_position, target):
    """One controller tick of one agent that tracks `views`."""
    states, tracks = table([views], width=10)
    return ctrl.update(states, tracks, [own_position], [target], 0.1)


class TestSelectNeighbors:
    def test_all_selected_when_few(self):
        views = [view(1, 10, 0), view(2, 0, 10)]
        chosen = nearest_of(views, np.zeros(2), max_neighbors=3)
        assert [m.agent_id for m in chosen] == [1, 2]

    def test_nearest_win(self):
        views = [view(i, 5.0 + i, 0.0) for i in range(5)]  # distances 5..9
        chosen = nearest_of(views, np.zeros(2), max_neighbors=3)
        assert [m.agent_id for m in chosen] == [0, 1, 2]

    def test_ties_broken_by_id(self):
        views = [view(7, 10, 0), view(3, 0, 10), view(5, -10, 0)]
        chosen = nearest_of(views, np.zeros(2), max_neighbors=2)
        assert [m.agent_id for m in chosen] == [3, 5]


class TestGroupHeading:
    def test_east(self):
        assert group_heading(np.zeros(2), np.array([1.0, 0.0]), 0.5) == 0.0

    def test_north(self):
        assert group_heading(np.zeros(2), np.array([0.0, 5.0]), 0.0) == pytest.approx(
            math.pi / 2
        )

    def test_west(self):
        psi = group_heading(np.array([1.0, 1.0]), np.array([0.0, 1.0]), 0.0)
        assert psi == pytest.approx(math.pi)

    def test_coincident_holds_previous(self):
        assert group_heading(np.ones(2), np.ones(2) + 1e-12, 0.77) == 0.77


class TestNeighborhoodHeading:
    def test_no_members_heads_from_origin(self):
        psi = heading([], np.array([0.0, -5.0]), 0.3)
        assert psi == pytest.approx(-math.pi / 2)

    def test_heads_from_members_center(self):
        # Center (5, 5); the goal (5, 20) lies due north of it.
        row = [member(0.0, 10.0), member(math.pi / 2, 10.0, agent_id=2)]
        psi = heading(row, np.array([5.0, 20.0]), 0.0)
        assert psi == pytest.approx(math.pi / 2)

    def test_goal_on_center_holds_previous(self):
        row = [member(0.0, 10.0), member(math.pi, 10.0, agent_id=2)]
        assert heading(row, np.zeros(2), -1.1) == -1.1


class TestWeights:
    def test_single_neighbor(self):
        assert blend_weights([0.3], 0.0) == pytest.approx([1.0])

    def test_symmetric_pair(self):
        w = blend_weights([0.4, -0.4], 0.0)
        assert np.allclose(w, [0.5, 0.5])

    def test_ahead_beats_behind(self):
        w = blend_weights([0.0, math.pi], 0.0)
        assert w[0] > w[1]

    @given(
        st.lists(
            st.floats(-math.pi, math.pi, allow_nan=False), min_size=1, max_size=8
        ),
        st.floats(-math.pi, math.pi, allow_nan=False),
    )
    def test_sum_to_one_and_monotone(self, bearings, psi):
        w = blend_weights(bearings, psi)
        assert abs(sum(w) - 1.0) < 1e-12
        theta = [abs(wrap_angle(b - psi)) for b in bearings]
        for i in range(len(w)):
            for j in range(len(w)):
                if theta[i] > theta[j] + 1e-9:  # distinguishable at float res
                    assert w[i] < w[j]


class TestGroupVelocity:
    def test_zero_inside_lower_limit(self):
        v = group_velocity(np.array([GAINS.d_min, 0.0]), 0.0, GAINS)
        assert np.allclose(v, 0.0)

    def test_ramp_midpoint(self):
        r = (GAINS.d_min + GAINS.d_max) / 2
        v = group_velocity(np.array([r, 0.0]), 0.0, GAINS)
        assert np.linalg.norm(v) == pytest.approx(GAINS.cruise_speed / 2)

    def test_full_speed_beyond_upper_limit(self):
        v = group_velocity(np.array([GAINS.d_max + 1.0, 0.0]), 0.0, GAINS)
        assert np.linalg.norm(v) == pytest.approx(GAINS.cruise_speed)

    def test_direction_along_heading(self):
        psi = 2.0
        v = group_velocity(np.array([50.0, 0.0]), psi, GAINS)
        assert np.allclose(v, GAINS.cruise_speed * heading_vectors(psi))

    def test_continuity_at_breakpoints(self):
        eps = 1e-12
        for r0 in (GAINS.d_min, GAINS.d_max):
            below = group_velocity(np.array([r0 - eps, 0.0]), 0.0, GAINS)
            at = group_velocity(np.array([r0, 0.0]), 0.0, GAINS)
            above = group_velocity(np.array([r0 + eps, 0.0]), 0.0, GAINS)
            assert np.linalg.norm(below - at) < 1e-9
            assert np.linalg.norm(above - at) < 1e-9


class TestDesiredOffset:
    def test_single_neighbor_at_spacing_is_equilibrium(self):
        r = offset([member(0.7, GAINS.spacing)], 0.0)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_single_neighbor_too_far_pulls_along_sight_line(self):
        r = offset([member(0.0, GAINS.spacing + 2.0)], 0.0)
        assert np.allclose(r, [2.0, 0.0], atol=1e-12)

    def test_symmetric_pair_at_apex_is_equilibrium(self):
        # Two neighbors symmetric about the heading, both at spacing, with a
        # bearing separation below the pairing threshold: the focal agent
        # already sits at the triangle apex.
        beta = PAIR_ANGLE / 2 - 0.05
        row = [member(beta, GAINS.spacing, 1), member(-beta, GAINS.spacing, 2)]
        r = offset(row, 0.0)
        assert np.linalg.norm(r) < 1e-9

    def test_pair_apex_on_focal_side(self):
        # Mutually close pair ahead: the commanded offset is the triangle
        # apex on the focal agent's side of the pair line, never the mirror
        # slot beyond it.
        row = [member(0.2, 14.0, 1), member(-0.2, 14.0, 2)]
        r = offset(row, 0.0)
        mid_x = 14.0 * math.cos(0.2)
        half_gap = 14.0 * math.sin(0.2)
        apex_x = mid_x - math.sqrt(GAINS.spacing**2 - half_gap**2)
        assert np.allclose(r, [apex_x, 0.0], atol=1e-9)

    def test_far_members_exert_no_pull(self):
        r = offset([member(0.0, GAINS.attract_range + 5.0)], 0.0)
        assert np.allclose(r, 0.0)

    def test_far_pair_not_paired(self):
        # Same bearings but beyond the attraction range: no triangle rule.
        row = [
            member(0.2, 2.0 * GAINS.spacing, 1),
            member(-0.2, 2.0 * GAINS.spacing, 2),
        ]
        assert np.allclose(offset(row, 0.0), 0.0)

    def test_empty_neighborhood(self):
        assert np.allclose(offset([], 0.0), 0.0)


class TestFlockingCommand:
    def test_pure_feedforward(self):
        cmd = command([], 0.0, np.array([100.0, 0.0]))
        assert np.array_equal(
            cmd.velocity, group_velocity(np.array([100.0, 0.0]), 0.0, GAINS)
        )
        assert np.allclose(cmd.position_term, 0.0)
        assert np.allclose(cmd.velocity_term, 0.0)

    def test_position_feedback_substitution(self):
        # Single neighbor 2 m beyond spacing at bearing 0, kp = 1, the
        # target on the agent (zero feedforward, and not a member): the
        # command is exactly (2, 0).
        cmd = command([member(0.0, GAINS.spacing + 2.0)], 0.0, np.zeros(2))
        assert np.allclose(cmd.velocity, [2.0, 0.0], atol=1e-12)
        assert np.allclose(cmd.position_term, [2.0, 0.0], atol=1e-12)

    def test_decomposition_sums_to_velocity(self):
        cmd = command(
            [member(0.3, 20.0), member(-1.0, 9.0, agent_id=2)],
            0.2,
            np.array([30.0, 5.0]),
            offset_rate=np.array([0.5, -0.2]),
        )
        total = cmd.position_term + cmd.velocity_term + cmd.feedforward
        assert np.allclose(cmd.velocity, total, atol=1e-12)

    def test_output_clamped(self):
        cmd = command([member(0.0, 100.0)], 0.0, np.array([100.0, 0.0]))
        assert np.linalg.norm(cmd.velocity) <= GAINS.v_max + 1e-12
        total = cmd.position_term + cmd.velocity_term + cmd.feedforward
        assert np.allclose(cmd.velocity, total, atol=1e-12)

    def test_target_joins_neighborhood_inside_d_min(self):
        # Target inside d_min and closer than spacing: the command pushes
        # away from it even though feedforward is zero.
        cmd = command([], 0.0, np.array([5.0, 0.0]))
        assert np.allclose(cmd.feedforward, 0.0)
        assert cmd.velocity[0] < -1.0

    @settings(max_examples=200)
    @given(st.data())
    def test_rotation_equivariance(self, data):
        # Bearings rounded so distinctions survive the +alpha float rounding.
        angle = st.floats(-math.pi, math.pi).map(lambda x: round(x, 6))
        rng_members = data.draw(
            st.lists(
                st.tuples(angle, st.floats(1.0, 60.0)),
                min_size=0,
                max_size=5,
            )
        )
        psi = data.draw(angle)
        alpha = data.draw(angle)
        target = np.array(
            [data.draw(st.floats(-80.0, 80.0)), data.draw(st.floats(-80.0, 80.0))]
        )
        rate = np.array(
            [data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(-2.0, 2.0))]
        )
        row = [
            member(b, d, agent_id=i) for i, (b, d) in enumerate(rng_members)
        ]
        rot = rotation(alpha)
        row_rot = [
            NeighborInfo(m.agent_id, wrap_angle(m.bearing + alpha), m.distance)
            for m in row
        ]
        base = command(row, psi, target, offset_rate=rate)
        turned = command(
            row_rot,
            wrap_angle(psi + alpha),
            rot @ target,
            offset_rate=rot @ rate,
        )
        assert np.allclose(turned.velocity, rot @ base.velocity, atol=1e-9)


def test_controller_rate_filtering_starts_at_zero():
    ctrl = FlockingController(GAINS, 1)
    views = [view(1, GAINS.spacing + 4.0, 0.0)]
    cmd = update(ctrl, views, np.zeros(2), np.array([100.0, 0.0]))
    assert np.allclose(cmd.velocity_term, 0.0)
    cmd2 = update(ctrl, views, np.zeros(2), np.array([100.0, 0.0]))
    assert np.allclose(cmd2.velocity_term, 0.0, atol=1e-9)  # offset unchanged


def test_controller_holds_heading_when_goal_on_center():
    ctrl = FlockingController(GAINS, 1)
    update(ctrl, [], np.zeros(2), np.array([50.0, 0.0]))
    assert ctrl.psi[0] == 0.0
    update(ctrl, [], np.zeros(2), np.zeros(2))
    assert ctrl.psi[0] == 0.0


def test_controller_evaluates_offset_once_and_matches_stateless_law(monkeypatch):
    from fastflock import flocking

    calls = []
    original = flocking.desired_offset

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(flocking, "desired_offset", counting)
    ctrl = FlockingController(GAINS, 1)
    views = [view(1, 10.0, 4.0), view(2, 9.0, -6.0), view(3, -12.0, 1.0)]
    target = np.array([60.0, 10.0])
    for step in range(3):
        calls.clear()
        own = np.array([0.5 * step, 0.0])
        cmd = update(ctrl, views, own, target)
        assert len(calls) == 1
        neighbors = nearest_of(views, own, GAINS.max_neighbors)
        assert [m.agent_id for m in neighbors] == ctrl.neighbors[0]
        hoods = _with_target(stack([neighbors]), target[None], GAINS)
        expected = original(hoods, ctrl.psi, GAINS)[0]
        reference = command(neighbors, ctrl.psi[0], target,
                            offset_rate=ctrl._rate[0])
        assert np.array_equal(cmd.offset[0], expected)
        assert np.array_equal(cmd.velocity[0], reference.velocity)


def test_controller_computes_heading_once_per_tick(monkeypatch):
    from fastflock import flocking

    calls = []
    original = flocking.neighborhood_heading

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(flocking, "neighborhood_heading", counting)
    ctrl = FlockingController(GAINS, 1)
    views = [view(1, 10.0, 4.0), view(2, 9.0, -6.0), view(3, -12.0, 1.0)]
    for target in (np.array([60.0, 10.0]), np.array([-30.0, 5.0])):
        calls.clear()
        update(ctrl, views, np.zeros(2), target)
        assert len(calls) == 1
