"""The scalar flocking law and its comm-less replay, kept as a reference for
the stacked law in `fastflock.flocking` and `fastflock.velocity_inference`.

A verbatim copy of the code those modules ran before the law was stacked:
one neighbourhood at a time, built from `NeighborInfo` tuples, with scalar
loops for the weights, the pairing and the triangle apex. The stacked law
must round exactly as this does, so the tests compare them with
`np.array_equal`. Gains are duck-typed (any object with the fields of
`ControllerGains`) and views need only `agent_id`, `position` and
`velocity`. Do not import fastflock here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

TARGET_MEMBER_ID = -1
FOCAL_MEMBER_ID = -2
PAIR_ANGLE = math.pi / 3
TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(angle, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


def heading_vector(angle: float) -> np.ndarray:
    """Unit vector pointing along `angle`."""
    return np.array([math.cos(angle), math.sin(angle)])


class NeighborInfo(NamedTuple):
    """One neighborhood member: bearing and distance of its offset from the
    agent whose neighborhood it belongs to."""

    agent_id: int
    bearing: float
    distance: float


@dataclass
class FlockingCommand:
    """Commanded lateral velocity and its decomposition; the three terms
    always sum to `velocity` (a magnitude clamp scales all of them)."""

    velocity: np.ndarray
    position_term: np.ndarray
    velocity_term: np.ndarray
    feedforward: np.ndarray
    offset: np.ndarray


def _member(agent_id: int, rel: np.ndarray) -> NeighborInfo:
    """The member at offset `rel` from the agent whose neighborhood it is."""
    return NeighborInfo(agent_id, math.atan2(rel[1], rel[0]),
                        float(np.linalg.norm(rel)))


def _nearest(members: Sequence[NeighborInfo], k: int) -> list[NeighborInfo]:
    """The k nearest members, ties broken by ascending id."""
    return sorted(members, key=lambda m: (m.distance, m.agent_id))[:k]


def select_neighbors(
    views, own_position: np.ndarray, max_neighbors: int
) -> list[NeighborInfo]:
    """The agent's neighborhood: its nearest `max_neighbors` tracks by
    distance from `own_position`, ties broken by ascending id."""
    return _nearest(
        [_member(v.agent_id, v.position - own_position) for v in views],
        max_neighbors,
    )


def group_heading(
    center: np.ndarray, goal: np.ndarray, previous: float
) -> float:
    """Angle of the line from the neighborhood center to the goal; holds the
    previous value when the goal sits on the center."""
    d = np.asarray(goal, dtype=float) - np.asarray(center, dtype=float)
    if np.linalg.norm(d) < 1e-9:
        return previous
    return math.atan2(d[1], d[0])


def neighborhood_heading(
    members: Sequence[NeighborInfo], goal: np.ndarray | None, previous: float
) -> float:
    """Group heading from the members' center (the origin when there are
    none) to `goal`; `previous` when there is no goal."""
    if goal is None:
        return previous
    offsets = [m.distance * heading_vector(m.bearing) for m in members]
    center = np.mean(offsets, axis=0) if offsets else np.zeros(2)
    return group_heading(center, goal, previous)


def blend_weights(
    bearings: Sequence[float], psi: float, scale: float = math.pi / 4
) -> np.ndarray:
    """Softmax weights over bearing misalignment with the group heading.

    Sums to one; strictly decreasing in |wrap(bearing - psi)|.
    """
    theta = np.array([abs(wrap_angle(b - psi)) for b in bearings])
    w = np.exp(-theta / scale)
    return w / w.sum()


def group_velocity(
    target_rel: np.ndarray, psi: float, gains
) -> np.ndarray:
    """Feedforward along the group heading, ramped on distance-to-target."""
    r = float(np.linalg.norm(target_rel))
    if r <= gains.d_min:
        speed = 0.0
    elif r > gains.d_max:
        speed = gains.cruise_speed
    else:
        speed = gains.cruise_speed * (r - gains.d_min) / (gains.d_max - gains.d_min)
    return speed * heading_vector(psi)


def _pair_members(
    members: Sequence[NeighborInfo],
    positions: Sequence[np.ndarray],
    gains,
) -> dict[int, int]:
    """Greedy pairing of members that are mutually close and close in
    bearing, nearest separations first; each member joins at most one pair.
    A crowded neighborhood (anyone inside crowd_range) disables pairing."""
    if any(m.distance < gains.crowd_range for m in members):
        return {}
    separations = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if (
                abs(members[i].distance - gains.spacing) > gains.pair_band
                or abs(members[j].distance - gains.spacing) > gains.pair_band
            ):
                continue
            if (
                float(np.linalg.norm(positions[i] - positions[j]))
                > gains.attract_range
            ):
                continue
            sep = abs(wrap_angle(members[i].bearing - members[j].bearing))
            if sep < PAIR_ANGLE:
                separations.append((sep, i, j))
    separations.sort()
    paired: dict[int, int] = {}
    for _, i, j in separations:
        if i not in paired and j not in paired:
            paired[i] = j
            paired[j] = i
    return paired


def _triangle_apex(
    p_i: np.ndarray, p_j: np.ndarray, spacing: float, psi: float
) -> np.ndarray:
    """Apex of the triangle with side `spacing` over the pair, on the focal
    agent's side (the nearer of the two mirror candidates, so the commanded
    slot never drags the agent through the pair)."""
    mid = (p_i + p_j) / 2.0
    u = p_j - p_i
    length = float(np.linalg.norm(u))
    height = math.sqrt(max(spacing**2 - (length / 2.0) ** 2, 0.0))
    normal = np.array([-u[1], u[0]]) / length
    a = mid + height * normal
    b = mid - height * normal
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    tol = 1e-6 * (1.0 + height + float(np.linalg.norm(mid)))
    if norm_a < norm_b - tol:
        return a
    if norm_b < norm_a - tol:
        return b
    # Equidistant (focal on the pair line): prefer the side trailing the
    # group heading, then the left of the directed pair line. Both
    # tie-breaks are rotation-invariant, unlike coordinate comparisons.
    diff = float((a - b) @ heading_vector(psi))
    if diff < -tol:
        return a
    if diff > tol:
        return b
    return a


def desired_offset(
    members: Sequence[NeighborInfo], psi: float, gains
) -> np.ndarray:
    """Weighted formation offset: per isolated neighbor inside the
    attraction range, pull to `spacing` along the line of sight; per
    mutually-close pair, pull to the triangle apex on the focal agent's
    side. Members beyond the attraction range contribute nothing."""
    if not members:
        return np.zeros(2)
    positions = [m.distance * heading_vector(m.bearing) for m in members]
    paired = _pair_members(members, positions, gains)
    offsets = []
    for i, m in enumerate(members):
        j = paired.get(i)
        if j is not None and np.linalg.norm(positions[j] - positions[i]) > 1e-9:
            offsets.append(
                _triangle_apex(positions[i], positions[j], gains.spacing, psi)
            )
        elif m.distance <= gains.attract_range:
            offsets.append(
                heading_vector(m.bearing) * (m.distance - gains.spacing)
            )
        else:
            offsets.append(np.zeros(2))
    weights = blend_weights([m.bearing for m in members], psi, gains.bearing_scale)
    total = np.einsum("i,ij->j", weights, np.array(offsets))
    # Separation override: unweighted, so a close agent repels even from a
    # bearing the blend weights would otherwise ignore.
    for m in members:
        if m.distance < gains.repulse_range:
            total = total + heading_vector(m.bearing) * (
                m.distance - gains.repulse_range
            )
    return total


def _with_target(
    members: Sequence[NeighborInfo],
    target_rel: np.ndarray | None,
    gains,
) -> list[NeighborInfo]:
    """Append the target as a formation member once it is inside d_min, so
    the approach stops at `spacing` instead of running it over."""
    out = list(members)
    if target_rel is None:
        return out
    r = float(np.linalg.norm(target_rel))
    if 1e-9 < r <= gains.d_min:
        out.append(_member(TARGET_MEMBER_ID, target_rel))
    return out


def flocking_command(
    members: Sequence[NeighborInfo],
    psi: float,
    target_rel: np.ndarray | None,
    gains,
    offset_rate: np.ndarray | None = None,
) -> FlockingCommand:
    """Evaluate the control law for one tick (stateless)."""
    offset = desired_offset(_with_target(members, target_rel, gains), psi, gains)
    return _command_from_offset(offset, psi, target_rel, gains, offset_rate)


def _command_from_offset(
    offset: np.ndarray,
    psi: float,
    target_rel: np.ndarray | None,
    gains,
    offset_rate: np.ndarray | None,
) -> FlockingCommand:
    """The control law once the formation offset is known."""
    rate = np.zeros(2) if offset_rate is None else np.asarray(offset_rate, float)
    if target_rel is None:
        feedforward = np.zeros(2)
    else:
        feedforward = group_velocity(target_rel, psi, gains)
    position_term = gains.kp * offset
    velocity_term = gains.kv * rate
    raw = position_term + velocity_term + feedforward
    speed = float(np.linalg.norm(raw))
    scale = 1.0 if speed <= gains.v_max else gains.v_max / speed
    return FlockingCommand(
        velocity=raw * scale,
        position_term=position_term * scale,
        velocity_term=velocity_term * scale,
        feedforward=feedforward * scale,
        offset=offset,
    )


class FlockingController:
    """Stateful wrapper: retains the previous offset and group heading and
    low-pass filters the offset rate across ticks."""

    def __init__(self, gains, rate_cutoff_hz: float = 2.0):
        self.gains = gains
        self.rate_cutoff_hz = rate_cutoff_hz
        self.psi = 0.0
        self.members: list[NeighborInfo] = []
        self._prev_offset: np.ndarray | None = None
        self._rate = np.zeros(2)

    def update(
        self,
        views,
        own_position: np.ndarray,
        target_rel: np.ndarray | None,
        dt: float,
    ) -> FlockingCommand:
        members = select_neighbors(views, own_position, self.gains.max_neighbors)
        self.members = members
        self.psi = neighborhood_heading(members, target_rel, self.psi)
        offset = desired_offset(
            _with_target(members, target_rel, self.gains), self.psi, self.gains
        )
        if self._prev_offset is not None:
            raw_rate = (offset - self._prev_offset) / dt
            alpha = dt / (dt + 1.0 / (2.0 * math.pi * self.rate_cutoff_hz))
            self._rate = self._rate + alpha * (raw_rate - self._rate)
        self._prev_offset = offset
        return _command_from_offset(
            offset, self.psi, target_rel, self.gains, self._rate
        )


def estimate_view(
    views,
    target,
    own_position: np.ndarray,
    psi: float,
    sensor_range: float,
    fov: float,
    max_neighbors: int,
    in_focal_neighborhood: bool,
) -> list[NeighborInfo]:
    """The neighborhood the focal agent believes the tracked neighbor
    `target`, one of `views`, can see.

    Built purely from the focal agent's own tracks, with the members made
    as the flocking law makes them but measured from `target`: the nearest
    `max_neighbors` other tracked agents within sensor range and inside the
    field of view around the neighbor's estimated heading (its tracked
    velocity direction, falling back to the group heading). The focal agent
    is then appended as `FOCAL_MEMBER_ID` when the neighbor is in its own
    neighborhood. Known to overestimate: occlusions and the neighbor's
    actual sensor state are invisible from here.
    """
    speed = float(np.linalg.norm(target.velocity))
    heading = (
        math.atan2(target.velocity[1], target.velocity[0]) if speed > 0.1 else psi
    )
    visible = [
        m
        for m in (_member(v.agent_id, v.position - target.position)
                  for v in views if v.agent_id != target.agent_id)
        if 1e-9 <= m.distance <= sensor_range
        and abs(wrap_angle(m.bearing - heading)) <= fov / 2.0
    ]
    members = _nearest(visible, max_neighbors)
    if in_focal_neighborhood:
        focal = _member(
            FOCAL_MEMBER_ID, np.asarray(own_position, float) - target.position
        )
        if focal.distance > 1e-9:
            members.append(focal)
    return members


def estimate_velocities(
    views,
    own_position: np.ndarray,
    target_rel: np.ndarray | None,
    psi: float,
    gains,
    model,
    sensor_range: float,
    fov: float,
    previous: dict[int, np.ndarray],
) -> list[tuple[int, np.ndarray]]:
    """One tick of neighbor-velocity estimation, ordered by ascending id.

    Pure function of its inputs: previous estimates are read from
    `previous` (missing ids fall back to the track velocity) and the
    updated values are returned, not written back.
    """
    own_position = np.asarray(own_position, dtype=float)
    focal_ids = {
        m.agent_id
        for m in select_neighbors(views, own_position, gains.max_neighbors)
    }
    out = []
    for v in sorted(views, key=lambda t: t.agent_id):
        members = estimate_view(
            views, v, own_position, psi, sensor_range, fov, gains.max_neighbors,
            in_focal_neighborhood=v.agent_id in focal_ids,
        )
        if target_rel is None:
            neighbor_target = None
        else:
            neighbor_target = own_position + np.asarray(target_rel, float) - v.position
        neighbor_psi = neighborhood_heading(members, neighbor_target, psi)
        desired = flocking_command(members, neighbor_psi, neighbor_target, gains)
        prev = previous.get(v.agent_id, v.velocity)
        estimate = model.a * np.asarray(prev, float) + model.b * desired.velocity
        out.append((v.agent_id, estimate))
    return out
