"""The stacked flocking law against the scalar law it replaced.

`flocking_oracle` is a verbatim copy of the scalar law and its replay. Every
comparison here is bit for bit, sign of zero included, because the logs of
the shipped configs depend on the stacked law rounding exactly as the
scalar one did.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fastflock.flocking import (
    PAIR_ANGLE,
    ControllerGains,
    FlockingController,
    desired_offset,
    flocking_command,
    neighborhood_heading,
)
from fastflock.velocity_inference import ResponseModel, estimate_velocities

from . import flocking_oracle as oracle
from .flocking_oracle import NeighborInfo
from .neighborhoods import replay_view, stack
from .tracking_oracle import TrackView, table

# max_neighbors >= 7, so that a row can hold eight or more members once the
# focal agent and the target join it.
GAINS = ControllerGains(kp=0.8, kv=0.5, cruise_speed=5.0, d_min=15.0,
                        d_max=40.0, spacing=13.0, max_neighbors=7)
MODEL = ResponseModel(a=0.9048374180359595, b=0.09516258196404048)
SENSOR_RANGE = 50.0
FOV = 5.585053606381854
EXAMPLES = settings(max_examples=100, deadline=None)

angles = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 6, -math.pi / 6,
                     math.pi / 3, 0.5 * math.pi]),
)
distances = st.one_of(
    st.floats(0.1, 60.0),
    # Near spacing, where pairs form; inside the separation override.
    st.floats(GAINS.spacing - GAINS.pair_band - 0.5,
              GAINS.spacing + GAINS.pair_band + 0.5),
    st.floats(0.1, GAINS.repulse_range),
    # Repeats give distance ties.
    st.sampled_from([GAINS.spacing, GAINS.crowd_range, GAINS.repulse_range,
                     GAINS.attract_range, 10.0]),
)
members = st.lists(st.tuples(angles, distances), max_size=9)
targets = st.one_of(
    st.tuples(angles, st.floats(0.0, GAINS.d_min)),  # inside d_min
    st.tuples(angles, st.floats(0.0, 80.0)),
)
rates = st.one_of(st.none(), st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def polar(bearing, distance):
    return np.array([distance * math.cos(bearing), distance * math.sin(bearing)])


def rows_of(drawn):
    """The drawn neighbourhoods as member lists, ids from 1."""
    return [[NeighborInfo(i + 1, b, d) for i, (b, d) in enumerate(row)]
            for row in drawn]


@EXAMPLES
@given(st.lists(st.tuples(members, angles, targets), min_size=1, max_size=6))
def test_heading_and_offset_match_scalar_law(cases):
    rows = rows_of([row for row, _, _ in cases])
    hoods = stack(rows)
    psi = np.array([p for _, p, _ in cases])
    goals = [polar(*t) for _, _, t in cases]
    headings = neighborhood_heading(hoods, np.array(goals), psi)
    offsets = desired_offset(hoods, psi, GAINS)
    for e, row in enumerate(rows):
        assert same_bits(headings[e],
                         oracle.neighborhood_heading(row, goals[e], psi[e]))
        assert same_bits(offsets[e], oracle.desired_offset(row, psi[e], GAINS))


@EXAMPLES
@given(st.lists(st.tuples(members, angles, targets, rates), min_size=1,
                max_size=6))
def test_command_matches_scalar_law(cases):
    rows = rows_of([row for row, *_ in cases])
    psi = np.array([p for _, p, _, _ in cases])
    goals = [polar(*t) for _, _, t, _ in cases]
    given_rates = [None if r is None else np.array(r) for *_, r in cases]
    rate = np.array([np.zeros(2) if r is None else r for r in given_rates])
    command = flocking_command(stack(rows), psi, np.array(goals), GAINS, rate)
    for e, row in enumerate(rows):
        expected = oracle.flocking_command(row, psi[e], goals[e], GAINS,
                                           offset_rate=given_rates[e])
        for field in ("velocity", "position_term", "velocity_term",
                      "feedforward", "offset"):
            assert same_bits(getattr(command, field)[e],
                             getattr(expected, field)), field


def world(draw, agent_id, own):
    """Tracks around `own`, ids agent_id * 10 + k: some mirrored, which ties
    their distances."""
    tracks = []
    for k, (b, d) in enumerate(draw(st.lists(st.tuples(angles, distances),
                                             max_size=9))):
        rel = polar(b, d)
        if draw(st.booleans()) and tracks:
            rel = tracks[-1].position - own
            rel = np.array([-rel[0], rel[1]])
        velocity = draw(st.sampled_from([(0.0, 0.0), (0.05, 0.0), (2.0, -1.0),
                                         (-3.0, 0.5)]))
        tracks.append(TrackView(agent_id * 10 + k, own + rel,
                                np.array(velocity)))
    return draw(st.permutations(tracks))


@st.composite
def swarms(draw):
    """Each agent's own position, tracks, noisy target and previous psi."""
    agents = []
    for a in range(draw(st.integers(1, 4))):
        own = np.array([draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))])
        agents.append((own, world(draw, a, own), polar(*draw(targets)),
                       draw(angles)))
    return agents


@EXAMPLES
@given(swarms(), st.floats(0.0, 2.0))
def test_controllers_match_scalar_controller(agents, drift):
    ours = FlockingController(GAINS, len(agents))
    theirs = [oracle.FlockingController(GAINS) for _ in agents]
    for step in range(3):
        shift = np.array([drift * step, -0.5 * drift * step])
        owns = [own + shift for own, *_ in agents]
        states, tracks = table([views for _, views, _, _ in agents])
        commands = ours.update(states, tracks, owns,
                               [t for *_, t, _ in agents], 0.05)
        for e, (_, views, target, _) in enumerate(agents):
            expected = theirs[e].update(views, owns[e], target, 0.05)
            assert same_bits(ours.psi[e], theirs[e].psi)
            assert ours.neighbors[e] == [m.agent_id for m in theirs[e].members]
            for field in ("velocity", "position_term", "velocity_term",
                          "feedforward", "offset"):
                assert same_bits(getattr(commands, field)[e],
                                 getattr(expected, field)), field


@EXAMPLES
@given(swarms())
def test_replay_matches_scalar_replay(agents):
    previous = [{v.agent_id: np.array([0.3, -0.2]) for v in views[::2]}
                for _, views, _, _ in agents]
    states, tracks = table([views for _, views, _, _ in agents])
    prev_table = states[..., 2:4].copy()
    for a, prev in enumerate(previous):
        for agent_id, estimate in prev.items():
            prev_table[a, agent_id] = estimate
    out = estimate_velocities(
        states, tracks, [own for own, *_ in agents],
        [t for *_, t, _ in agents], [psi for *_, psi in agents], GAINS, MODEL,
        SENSOR_RANGE, FOV, prev_table,
    )
    for a, ((own, views, target, psi), prev) in enumerate(zip(agents, previous)):
        expected = oracle.estimate_velocities(views, own, target, psi, GAINS,
                                              MODEL, SENSOR_RANGE, FOV, prev)
        assert np.flatnonzero(tracks[a]).tolist() == [i for i, _ in expected]
        for i, b in expected:
            assert same_bits(out[a, i], b)
        for v in views:
            for in_focal in (True, False):
                view_args = (own, psi, SENSOR_RANGE, FOV, GAINS.max_neighbors,
                             in_focal)
                assert (replay_view(states[a], tracks[a], v.agent_id,
                                    *view_args)
                        == oracle.estimate_view(views, v, *view_args))


def test_rows_of_eight_or_more_members_sum_like_one_row():
    # Rows of every length up to nine members (seven neighbours, the focal
    # agent and the target) in one stack: numpy sums eight or more terms
    # pairwise, so a short row padded to the stack's width would round
    # differently from the same row alone.
    rng = np.random.default_rng(7)
    rows = [
        [NeighborInfo(i, b, d) for i, (b, d) in enumerate(zip(
            rng.uniform(-math.pi, math.pi, n), rng.uniform(5.0, 25.0, n)))]
        for n in rng.integers(0, 10, size=300)
    ]
    psi = rng.uniform(-math.pi, math.pi, len(rows))
    offsets = desired_offset(stack(rows), psi, GAINS)
    for e, row in enumerate(rows):
        assert same_bits(offsets[e], oracle.desired_offset(row, psi[e], GAINS))


def test_triangle_apexes_round_like_scalar_law():
    # Pairs at about one spacing, close in bearing: each row takes the
    # triangle rule, whose apex height squares with Python's pow. numpy's
    # x**2 is x*x, which differs from pow for about one square in a
    # thousand, so this needs thousands of apexes.
    rng = np.random.default_rng(11)
    rows = []
    for _ in range(4000):
        first = rng.uniform(-math.pi, math.pi)
        second = first + rng.uniform(-PAIR_ANGLE, PAIR_ANGLE)
        rows.append([NeighborInfo(1, first, rng.uniform(11.0, 15.0)),
                     NeighborInfo(2, second, rng.uniform(11.0, 15.0))])
    psi = rng.uniform(-math.pi, math.pi, len(rows))
    offsets = desired_offset(stack(rows), psi, GAINS)
    for e, row in enumerate(rows):
        assert same_bits(offsets[e], oracle.desired_offset(row, psi[e], GAINS))
