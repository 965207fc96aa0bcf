"""State-feedback flocking control with group-velocity feedforward.

The commanded lateral velocity is kp * r + kv * r_dot + v_ff, where r is the
offset from the current position to the position the formation rules ask for,
r_dot its filtered rate, and v_ff a feedforward along the group heading that
ramps down as the target gets close. Bearings further from the group heading
are de-weighted, which damps oscillations fed back from trailing agents.

The law runs on stacks. `Neighborhoods` holds E neighbourhoods as (E, W)
arrays of member ids, bearings and distances, and `neighborhood_heading`,
`desired_offset` and `flocking_command` evaluate all of them in one pass:
every agent's command in one call of `FlockingController.update`, the
swarm's controller, and velocity inference's replay of every tracked
neighbour in another. Every neighbourhood heads for a target. The controller
reads the track bank's table as it stands: `states` (E, N, 6) and the mask
`tracks` (E, N), agent e tracking agent j where tracks[e, j] holds; the
column is the id, so `select_neighbors` gathers candidates in ascending id
without sorting.

A stack rounds each row exactly as the row alone rounds:
- lengths and dot products are stacked 1x2 @ 2x1 products
  (`geometry.dots`);
- `math.atan2`, `math.remainder` and the apex height's `pow` run per
  element: `np.arctan2` differs in the last bit, and numpy's `x**2` is
  `x*x`; `math.cos` and `math.sin` also run per element, as the scalar law
  ran them;
- a row's padding holds zeros, which leave a sum over members unchanged,
  since numpy adds those terms one after another from +0.0; the one
  exception is the sum of the blend weights along their contiguous axis,
  which numpy adds pairwise from eight terms on, so it runs on the rows of
  each member count together;
- greedy pairing and the separation override run in member order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import bearings, dots, heading_vectors, lengths, wrap_angles

TARGET_MEMBER_ID = -1
# Cutoff of the controller's low-pass filter on the offset rate.
RATE_CUTOFF_HZ = 2.0
# Velocity inference's replay tags the focal agent with this id when it sits
# in the replayed neighbour's neighbourhood.
FOCAL_MEMBER_ID = -2
# Two neighbours whose bearings lie closer than this are a triangle pair.
PAIR_ANGLE = math.pi / 3


@dataclass
class ControllerGains:
    """Gains and formation geometry for the flocking law.

    kp [1/s] and kv [-] are the position/velocity feedback gains;
    cruise_speed is the maximum group speed; d_min/d_max bound the
    feedforward ramp on distance-to-target; spacing is the desired
    inter-agent distance; bearing_scale is the angular width of the
    members' blend weights. Derived: the speed cap v_max = 1.2 cruise_speed,
    and the ranges attract_range, pair_band, repulse_range, crowd_range =
    1.5, 0.35, 0.55, 0.8 spacing.
    """

    kp: float
    kv: float
    cruise_speed: float
    d_min: float
    d_max: float
    spacing: float
    bearing_scale: float = math.pi / 4
    max_neighbors: int = 4

    @property
    def v_max(self) -> float:
        return 1.2 * self.cruise_speed

    @property
    def attract_range(self) -> float:
        # Members beyond this range exert no spacing pull: they are not
        # formation-adjacent, and pulling toward them collapses chains
        # of agents to well below the desired spacing.
        return 1.5 * self.spacing

    @property
    def pair_band(self) -> float:
        # The triangle rule only refines a near-triangle (both members
        # already about one spacing away); slot-assigning distant pairs
        # sends several agents into the same apex.
        return 0.35 * self.spacing

    @property
    def repulse_range(self) -> float:
        # Separation override: inside this range repulsion applies at
        # full strength regardless of the bearing weights.
        return 0.55 * self.spacing

    @property
    def crowd_range(self) -> float:
        # With any member closer than this the triangle rule disengages;
        # an apex pull must never fight the separation override.
        return 0.8 * self.spacing


@dataclass
class FlockingCommand:
    """Commanded lateral velocity and its decomposition; the three terms
    always sum to `velocity` (a magnitude clamp scales all of them). A stack
    of commands holds (E, 2) arrays."""

    velocity: np.ndarray
    position_term: np.ndarray
    velocity_term: np.ndarray
    feedforward: np.ndarray
    offset: np.ndarray


class Neighborhoods(NamedTuple):
    """E neighbourhoods, left-aligned in (E, W) arrays: row e holds
    count[e] members, each with its id, the bearing and distance of its
    offset from the agent whose neighbourhood it is, and the unit vector
    (E, W, 2) of that bearing. Entries past count[e] hold distance 0."""

    ids: np.ndarray
    bearing: np.ndarray
    distance: np.ndarray
    unit: np.ndarray
    count: np.ndarray

    @property
    def valid(self) -> np.ndarray:
        """(E, W) mask of the entries that hold members."""
        return np.arange(self.ids.shape[1]) < self.count[:, None]


def _row_sums(values: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Sums of the first count[e] entries of each row of `values` (E, W),
    each associated as numpy associates a sum of count[e] terms alone. It
    sums eight or more terms pairwise, so a padded row would associate
    differently: the rows of each count are summed together instead."""
    out = np.zeros(len(count))
    for m in set(count.tolist()):
        rows = count == m
        out[rows] = values[rows, :m].sum(axis=1)
    return out


def nearest(rows: np.ndarray, ids: np.ndarray, bearing: np.ndarray,
            distance: np.ndarray, n_rows: int, k: int) -> Neighborhoods:
    """`n_rows` neighbourhoods of candidate members: candidate c belongs to
    row rows[c], and each row keeps its `k` nearest candidates by distance,
    ties broken by ascending id, nearest first."""
    order = np.lexsort((ids, distance, rows))
    ranked = rows[order]
    rank = np.arange(len(order)) - np.searchsorted(ranked, ranked)
    keep = rank < k
    pick, r, c = order[keep], ranked[keep], rank[keep]
    count = np.bincount(r, minlength=n_rows)
    width = int(count.max(initial=0))
    out_ids = np.zeros((n_rows, width), dtype=int)
    out_bearing = np.zeros((n_rows, width))
    out_distance = np.zeros((n_rows, width))
    unit = np.zeros((n_rows, width, 2))
    out_ids[r, c] = ids[pick]
    out_bearing[r, c] = bearing[pick]
    out_distance[r, c] = distance[pick]
    unit[r, c] = heading_vectors(bearing[pick])
    return Neighborhoods(out_ids, out_bearing, out_distance, unit, count)


def append_member(hoods: Neighborhoods, where: np.ndarray, agent_id: int,
                  rel: np.ndarray) -> Neighborhoods:
    """`hoods` with a member `agent_id` at offset rel[e] appended to each
    row e where `where` holds; `rel` is (E, 2)."""
    rows = np.flatnonzero(where)
    if not len(rows):
        return hoods
    col = hoods.count[rows]
    n_rows, width = hoods.ids.shape
    width = max(width, int(col.max()) + 1)
    ids, bearing, distance, unit = (
        np.zeros((n_rows, width) + a.shape[2:], dtype=a.dtype) for a in hoods[:4]
    )
    for new, old in zip((ids, bearing, distance, unit), hoods[:4]):
        new[:, :old.shape[1]] = old
    ids[rows, col] = agent_id
    bearing[rows, col] = bearings(rel[rows])
    distance[rows, col] = lengths(rel[rows])
    unit[rows, col] = heading_vectors(bearing[rows, col])
    return Neighborhoods(ids, bearing, distance, unit, hoods.count + where)


def select_neighbors(
    states: np.ndarray, tracks: np.ndarray, own_positions: Sequence[np.ndarray],
    max_neighbors: int,
) -> Neighborhoods:
    """Each agent's neighborhood, one row per agent: its nearest
    `max_neighbors` tracks by distance from its own position, ties broken
    by ascending id. Agent e tracks agent j where tracks[e, j] holds, at
    position states[e, j, :2]."""
    rows, ids = np.nonzero(tracks)
    own = np.asarray(own_positions, dtype=float).reshape(-1, 2)
    rel = states[rows, ids, :2] - own[rows]
    return nearest(rows, ids, bearings(rel), lengths(rel), len(tracks),
                   max_neighbors)


def _group_heading(center: np.ndarray, goal: np.ndarray,
                   previous: np.ndarray) -> np.ndarray:
    """Angle of the line from each center (E, 2) to its goal; previous[e]
    where the goal sits on the center."""
    d = goal - center
    turn = ~(lengths(d) < 1e-9)
    psi = np.array(previous, dtype=float)
    psi[turn] = bearings(d[turn])
    return psi


def neighborhood_heading(
    hoods: Neighborhoods, goal: np.ndarray, previous: np.ndarray,
) -> np.ndarray:
    """Group heading of each neighbourhood, from its members' center (the
    origin when there are none) to goal[e], holding previous[e] when the
    goal sits on the center. `goal` is (E, 2); `previous` is (E,)."""
    # numpy sums over members one after another from +0.0, so the zero
    # offsets of the padding change no partial sum; a neighbourhood without
    # members is centred on the origin.
    offsets = hoods.distance[..., None] * hoods.unit
    center = offsets.sum(axis=1) / np.maximum(hoods.count, 1)[:, None]
    return _group_heading(center, goal, previous)


def _blend_weights(bearing: np.ndarray, psi: np.ndarray, valid: np.ndarray,
                   count: np.ndarray, scale: float) -> np.ndarray:
    """Softmax weights (E, W) of each row's members over their bearing
    misalignment with the row's group heading, zero past count[e]: a row's
    weights sum to one and fall strictly with |wrap(bearing - psi)|."""
    theta = np.zeros(bearing.shape)
    theta[valid] = np.abs(wrap_angles((bearing - psi[:, None])[valid]))
    w = np.where(valid, np.exp(-theta / scale), 0.0)
    # A row without members keeps zero weights.
    return w / np.where(count > 0, _row_sums(w, count), 1.0)[:, None]


def group_velocity(
    target_rel: np.ndarray, psi: float, gains: ControllerGains
) -> np.ndarray:
    """Feedforward along the group heading, ramped on distance-to-target;
    target_rel (..., 2) and psi (...)."""
    r = lengths(np.asarray(target_rel, dtype=float))
    speed = np.where(
        r <= gains.d_min, 0.0,
        np.where(r > gains.d_max, gains.cruise_speed,
                 gains.cruise_speed * (r - gains.d_min) / (gains.d_max - gains.d_min)),
    )
    return speed[..., None] * heading_vectors(psi)


def _pair_members(
    bearing: np.ndarray, distance: np.ndarray, positions: np.ndarray,
    valid: np.ndarray, gains: ControllerGains,
) -> np.ndarray:
    """Greedy pairing of members that are mutually close and close in
    bearing, nearest separations first; each member joins at most one pair.
    A crowded neighborhood (anyone inside crowd_range) disables pairing.
    Returns each member's partner index, -1 for none; inputs are (E, W)
    with `valid` marking the members."""
    n_rows, size = distance.shape
    partner = np.full((n_rows, size), -1)
    near = valid & ~(np.abs(distance - gains.spacing) > gains.pair_band)
    near &= ~(valid & (distance < gains.crowd_range)).any(axis=1, keepdims=True)
    e, i, j = np.nonzero(near[:, :, None] & near[:, None, :]
                         & np.triu(np.ones((size, size), dtype=bool), 1))
    if not len(e):
        return partner
    close = ~(lengths(positions[e, i] - positions[e, j]) > gains.attract_range)
    e, i, j = e[close], i[close], j[close]
    sep = np.abs(wrap_angles(bearing[e, i] - bearing[e, j]))
    candidates: dict[int, list] = {}
    for row, s, a, b in zip(e.tolist(), sep.tolist(), i.tolist(), j.tolist()):
        if s < PAIR_ANGLE:
            candidates.setdefault(row, []).append((s, a, b))
    for row, separations in candidates.items():
        mates = partner[row]
        for _, a, b in sorted(separations):
            if mates[a] < 0 and mates[b] < 0:
                mates[a], mates[b] = b, a
    return partner


def _triangle_apex(
    p_i: np.ndarray, p_j: np.ndarray, spacing: float, psi: np.ndarray
) -> np.ndarray:
    """Apex of the triangle with side `spacing` over each pair (P, 2), on
    the focal agent's side (the nearer of the two mirror candidates, so the
    commanded slot never drags the agent through the pair)."""
    mid = (p_i + p_j) / 2.0
    u = p_j - p_i
    length = lengths(u)
    height = np.array([math.sqrt(max(spacing**2 - (x / 2.0) ** 2, 0.0))
                       for x in length.tolist()])
    normal = np.stack([-u[:, 1], u[:, 0]], axis=-1) / length[:, None]
    a = mid + height[:, None] * normal
    b = mid - height[:, None] * normal
    norm_a = lengths(a)
    norm_b = lengths(b)
    tol = 1e-6 * (1.0 + height + lengths(mid))
    # Equidistant (focal on the pair line): prefer the side trailing the
    # group heading, then the left of the directed pair line. Both
    # tie-breaks are rotation-invariant, unlike coordinate comparisons.
    diff = dots(a - b, heading_vectors(psi))
    take_b = ~(norm_a < norm_b - tol) & (
        (norm_b < norm_a - tol) | (~(diff < -tol) & (diff > tol))
    )
    return np.where(take_b[:, None], b, a)


def desired_offset(
    hoods: Neighborhoods, psi: np.ndarray, gains: ControllerGains
) -> np.ndarray:
    """Weighted formation offset (E, 2) of each neighbourhood under group
    heading psi (E,): per isolated neighbor inside the attraction range,
    pull to `spacing` along the line of sight; per mutually-close pair, pull
    to the triangle apex on the focal agent's side. Members beyond the
    attraction range contribute nothing."""
    bearing, distance, unit, valid = (hoods.bearing, hoods.distance, hoods.unit,
                                      hoods.valid)
    positions = distance[..., None] * unit
    offsets = np.where((distance <= gains.attract_range)[..., None],
                       unit * (distance - gains.spacing)[..., None], 0.0)
    partner = _pair_members(bearing, distance, positions, valid, gains)
    e, i = np.nonzero(partner >= 0)
    if len(e):
        p_i, p_j = positions[e, i], positions[e, partner[e, i]]
        apart = lengths(p_j - p_i) > 1e-9
        e, i = e[apart], i[apart]
        offsets[e, i] = _triangle_apex(p_i[apart], p_j[apart], gains.spacing,
                                       psi[e])
    # The padding's zero weights add zero terms, which leave the weighted
    # sum over members (one after another from +0.0) as it is.
    weights = _blend_weights(bearing, psi, valid, hoods.count,
                             gains.bearing_scale)
    total = np.einsum("ei,eij->ej", weights, offsets)
    # Separation override: unweighted, so a close agent repels even from a
    # bearing the blend weights would otherwise ignore.
    repel = valid & (distance < gains.repulse_range)
    for c in np.flatnonzero(repel.any(axis=0)).tolist():
        rows = repel[:, c]
        total[rows] = total[rows] + unit[rows, c] * (
            distance[rows, c, None] - gains.repulse_range
        )
    return total


def _with_target(
    hoods: Neighborhoods, target_rel: np.ndarray, gains: ControllerGains,
) -> Neighborhoods:
    """Append the target as a formation member once it is inside d_min, so
    the approach stops at `spacing` instead of running it over."""
    r = lengths(target_rel)
    return append_member(hoods, (1e-9 < r) & (r <= gains.d_min),
                         TARGET_MEMBER_ID, target_rel)


def flocking_command(
    hoods: Neighborhoods,
    psi: np.ndarray,
    target_rel: np.ndarray,
    gains: ControllerGains,
    offset_rate: np.ndarray | None = None,
) -> FlockingCommand:
    """Evaluate the control law for each of E neighbourhoods (stateless);
    target_rel is (E, 2), and the command's arrays are too. A missing
    offset_rate is zero."""
    offset = desired_offset(_with_target(hoods, target_rel, gains), psi, gains)
    return _command_from_offset(offset, psi, target_rel, gains, offset_rate)


def _command_from_offset(
    offset: np.ndarray,
    psi: np.ndarray,
    target_rel: np.ndarray,
    gains: ControllerGains,
    offset_rate: np.ndarray | None,
) -> FlockingCommand:
    """The control law once the formation offsets (E, 2) are known."""
    rate = np.zeros_like(offset) if offset_rate is None else offset_rate
    feedforward = group_velocity(target_rel, psi, gains)
    position_term = gains.kp * offset
    velocity_term = gains.kv * rate
    raw = position_term + velocity_term + feedforward
    speed = lengths(raw)
    scale = np.ones_like(speed)
    np.divide(gains.v_max, speed, out=scale, where=~(speed <= gains.v_max))
    scale = scale[:, None]
    return FlockingCommand(
        velocity=raw * scale,
        position_term=position_term * scale,
        velocity_term=velocity_term * scale,
        feedforward=feedforward * scale,
        offset=offset,
    )


class FlockingController:
    """The swarm's controller, one row per agent: it carries each agent's
    group heading psi (N,), previous formation offset (N, 2) and low-pass
    filtered offset rate (N, 2) across ticks, and each agent's neighbour ids
    of the last tick."""

    def __init__(self, gains: ControllerGains, n_agents: int):
        self.gains = gains
        self.psi = np.zeros(n_agents)
        self.neighbors: list[list[int]] = [[] for _ in range(n_agents)]
        self._prev_offset: np.ndarray | None = None
        self._rate = np.zeros((n_agents, 2))

    def update(
        self,
        states: np.ndarray,
        tracks: np.ndarray,
        own_positions: Sequence[np.ndarray],
        target_rels: Sequence[np.ndarray],
        dt: float,
    ) -> FlockingCommand:
        """One tick of every agent, with the law evaluated once for all of
        them; agent e sees its row of the track table (`states[e]`, masked
        by `tracks[e]`, indexed by id) from own_positions[e]. Returns the
        stacked commands, row e agent e's."""
        gains = self.gains
        hoods = select_neighbors(states, tracks, own_positions,
                                 gains.max_neighbors)
        target = np.asarray(target_rels, dtype=float).reshape(-1, 2)
        psi = neighborhood_heading(hoods, target, self.psi)
        offset = desired_offset(_with_target(hoods, target, gains), psi, gains)
        if self._prev_offset is not None:
            alpha = dt / (dt + 1.0 / (2.0 * math.pi * RATE_CUTOFF_HZ))
            raw_rate = (offset - self._prev_offset) / dt
            self._rate = self._rate + alpha * (raw_rate - self._rate)
        self.psi = psi
        self.neighbors = [ids[:n] for ids, n in zip(hoods.ids.tolist(),
                                                    hoods.count.tolist())]
        self._prev_offset = offset
        return _command_from_offset(offset, psi, target, gains, self._rate)
