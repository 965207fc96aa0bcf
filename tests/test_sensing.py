"""The swarm-wide sensing and broadcast against the per-agent code they
replaced.

`sensing_oracle` is a verbatim copy of the per-agent `observe` and the
per-receiver `CommChannel`. Every comparison here is bit for bit, and each
generator's state after the call must match, which pins how many numbers
each agent draws and in what order: the logs of the shipped configs depend
on both.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fastflock.geometry import pairwise
from fastflock.sensors import CommChannel, CommConfig, SensorConfig, observe

from . import sensing_oracle as oracle

EXAMPLES = settings(max_examples=100, deadline=None)
PROBS = st.sampled_from([0.0, 0.3, 1.0])

angles = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([0.0, math.pi, -math.pi, math.pi / 2, 3.0]),
)


@st.composite
def swarms(draw):
    """Positions (N, 2) of up to seven agents, with coincident and nearly
    coincident agents and agents exactly `max_range` apart or dead astern,
    and the range they were built for."""
    max_range = draw(st.sampled_from([15.0, 50.0]))
    points = [(draw(st.integers(-40, 40)) * 1.0, draw(st.integers(-40, 40)) * 1.0)]
    for _ in range(draw(st.integers(0, 6))):
        x, y = points[draw(st.integers(0, len(points) - 1))]
        kind = draw(st.sampled_from(["free", "same", "near", "east", "west",
                                     "north", "345"]))
        if kind == "free":
            points.append((draw(st.floats(-70.0, 70.0)), draw(st.floats(-70.0, 70.0))))
        elif kind == "same":
            points.append((x, y))
        elif kind == "near":
            points.append((x + 5e-10, y))
        elif kind == "east":
            points.append((x + max_range, y))
        elif kind == "west":
            # Dead astern of an agent heading 0: body bearing exactly pi.
            points.append((x - draw(st.integers(1, 20)), y))
        elif kind == "north":
            points.append((x, y - max_range))
        else:
            points.append((x + 3 * max_range / 5, y + 4 * max_range / 5))
    return np.array(points), max_range


def generators(seed, n):
    return [np.random.default_rng([seed, i]) for i in range(n)]


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@EXAMPLES
@given(swarm=swarms(), data=st.data(),
       fov=st.sampled_from([2 * math.pi, math.radians(320.0), 1.0, 0.01]),
       dropout=PROBS, seed=st.integers(0, 2**32 - 1))
def test_observe_matches_per_agent_oracle(swarm, data, fov, dropout, seed):
    points, max_range = swarm
    n = len(points)
    headings = data.draw(st.lists(angles, min_size=n, max_size=n))
    config = SensorConfig(bearing_sigma=math.radians(1.0), range_sigma_rel=0.1,
                          dropout_prob=dropout, max_range=max_range, fov=fov)
    rel, dist = pairwise(points)
    ours, theirs = generators(seed, n), generators(seed, n)
    seen = observe(rel, dist, headings, config, ours, stamp=0.25)
    total = 0
    for i in range(n):
        ref = oracle.observe(rel[i], dist[i], i, headings[i], config, theirs[i],
                             0.25)
        mine = seen.observer == i
        assert seen.ids[mine].tolist() == [o.observed_id for o in ref]
        assert bits(seen.bearing[mine]) == bits([o.bearing for o in ref])
        assert bits(seen.distance[mine]) == bits([o.distance for o in ref])
        assert bits(seen.stamp[mine]) == bits([o.stamp for o in ref])
        assert ours[i].bit_generator.state == theirs[i].bit_generator.state
        total += len(ref)
    assert len(seen) == total
    assert seen.observer.tolist() == sorted(seen.observer.tolist())


@EXAMPLES
@given(n=st.integers(1, 6), latency=st.integers(0, 3), drop=PROBS,
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_broadcast_matches_per_receiver_oracle(n, latency, drop, seed, data):
    # Each tick delivers, then broadcasts, as the engine does; skipped
    # deliveries let several broadcasts fall due at once.
    config = CommConfig(latency_ticks=latency, drop_prob=drop)
    ours, theirs = generators(seed, n), generators(seed, n)
    channel = CommChannel(config, ours)
    inboxes = [oracle.CommChannel(config, rng) for rng in theirs]
    for tick in range(data.draw(st.integers(1, 8))):
        if data.draw(st.booleans()):
            delivered = channel.deliver(tick)
            expected = [inbox.deliver(tick) for inbox in inboxes]
            assert len(delivered) == len(delivered.ids) == sum(map(len, expected))
            assert delivered.observer.tolist() == sorted(delivered.observer.tolist())
            for r, items in enumerate(expected):
                mine = delivered.observer == r
                assert delivered.ids[mine].tolist() == [s for s, _ in items]
                assert bits(delivered.velocity[mine].ravel()) == bits(
                    [x for _, v in items for x in v])
        velocities = np.array(data.draw(st.lists(
            st.tuples(st.floats(-9.0, 9.0), st.floats(-9.0, 9.0)),
            min_size=n, max_size=n)))
        channel.send(tick, velocities)
        for r, inbox in enumerate(inboxes):
            senders = [s for s in range(n) if s != r]
            inbox.send(tick, senders, [velocities[s] for s in senders])
    for rng, ref in zip(ours, theirs):
        assert rng.bit_generator.state == ref.bit_generator.state
