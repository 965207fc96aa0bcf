"""The swarm's plant and odometry fusion against the one-agent code they
replaced.

`engine_oracle` is a verbatim copy of the one-agent `AgentPlant` and
`OdometryFusion`. Every row of the swarm's result must equal the oracle run
on that row alone, bit for bit, after every step: the logs of the shipped
configs depend on it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastflock.ego_estimation import FUSION_RATE, OdometryFusion, VioSample
from fastflock.engine import AgentPlant

from . import engine_oracle as oracle

EXAMPLES = settings(max_examples=100, deadline=None)

vectors = st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@EXAMPLES
@pytest.mark.parametrize("caps", ["none", "a_max", "v_max", "both"])
@given(n=st.integers(1, 6), tau=st.floats(0.05, 1.0),
       dt=st.sampled_from([0.01, 0.05, 0.1]), data=st.data())
def test_plant_rows_match_one_agent_oracle(caps, n, tau, dt, data):
    positions = np.array(data.draw(st.lists(vectors, min_size=n, max_size=n)))
    steps = [np.array(data.draw(st.lists(vectors, min_size=n, max_size=n)))
             for _ in range(data.draw(st.integers(1, 6)))]
    # From rest, the first step asks every row for an acceleration of at
    # least `ask` and a speed of at least `ask * dt`. Caps below those make
    # every row hit them on the first step: with both, the acceleration cap
    # leaves a speed of a_max * dt, which the speed cap halves.
    steps[0][np.linalg.norm(steps[0], axis=1) < 0.1] = (1.0, 0.0)
    ask = float(np.min(np.linalg.norm(steps[0], axis=1))) * (
        1.0 - math.exp(-dt / tau)) / dt
    a_max = ask / 2 if caps in ("a_max", "both") else 1e9
    v_max = {"none": 1e9, "a_max": 1e9, "v_max": ask * dt / 2,
             "both": a_max * dt / 2}[caps]
    swarm = AgentPlant(tau, v_max, a_max, positions)
    rows = [oracle.AgentPlant(tau, v_max, a_max, p) for p in positions]
    for commands in steps:
        swarm.advance(commands, dt)
        for row, command in zip(rows, commands):
            row.advance(command, dt)
        for field in ("position", "velocity", "acceleration"):
            assert bits(getattr(swarm, field)) == bits(
                [getattr(row, field) for row in rows])
    first = oracle.AgentPlant(tau, v_max, a_max, positions[0])
    first.advance(steps[0][0], dt)
    if caps != "none":
        capped = v_max if caps != "a_max" else a_max * dt
        assert np.linalg.norm(first.velocity) == pytest.approx(capped)


@st.composite
def vio_samples(draw):
    """A VIO sample whose quality score covers 0, 1 and values between."""
    return VioSample(
        position=np.array(draw(vectors)),
        velocity=np.array(draw(vectors)),
        quality=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
    )


@EXAMPLES
@given(n=st.integers(1, 6), dt=st.floats(0.0005, 25.0), data=st.data())
def test_fusion_rows_match_one_agent_oracle(n, dt, data):
    # The first step is the first sample, which anchors the position; a
    # long step lets the weight leave 1 on that step.
    swarm = OdometryFusion(np.zeros((n, 2)))
    rows = [oracle.OdometryFusion(np.zeros(2), weight=1.0, rate=FUSION_RATE)
            for _ in range(n)]
    for _ in range(data.draw(st.integers(1, 5))):
        samples = [data.draw(vio_samples()) for _ in range(n)]
        own_states = np.array(data.draw(st.lists(
            st.lists(st.floats(-30.0, 30.0), min_size=6, max_size=6),
            min_size=n, max_size=n)))
        swarm.advance(samples, own_states, dt)
        expected = [row.advance(sample, own, dt)
                    for row, sample, own in zip(rows, samples, own_states)]
        for field in ("position", "velocity", "vio_weight", "weight_target"):
            assert bits(getattr(swarm, field)) == bits(
                [getattr(e, field) for e in expected])
