"""Neighbourhood stacks as tests write them down, and read them back.

A member is any (id, bearing, distance) triple. `stack` builds the
`Neighborhoods` holding rows of members, and `members` reads a stack's rows
back as lists of `flocking_oracle.NeighborInfo`, so that tests compare them
with the scalar reference directly. `replay_view` is the replayed
neighbourhood of one tracked neighbour, read from a one-row replay.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from fastflock.flocking import Neighborhoods
from fastflock.geometry import heading_vectors
from fastflock.velocity_inference import _replay_neighborhoods

from .flocking_oracle import NeighborInfo


def stack(rows: Sequence[Sequence[tuple[int, float, float]]]) -> Neighborhoods:
    """The neighbourhoods holding the members of each of `rows`."""
    count = np.array([len(row) for row in rows], dtype=int)
    width = int(count.max(initial=0))
    ids = np.zeros((len(rows), width), dtype=int)
    bearing = np.zeros((len(rows), width))
    distance = np.zeros((len(rows), width))
    for e, row in enumerate(rows):
        for c, m in enumerate(row):
            ids[e, c], bearing[e, c], distance[e, c] = m
    return Neighborhoods(ids, bearing, distance, heading_vectors(bearing), count)


def members(hoods: Neighborhoods) -> list[list[NeighborInfo]]:
    """Each row of `hoods` as a list of members."""
    return [
        [NeighborInfo(*m) for m in zip(ids[:n], bearing[:n], distance[:n])]
        for ids, bearing, distance, n in zip(
            hoods.ids.tolist(), hoods.bearing.tolist(),
            hoods.distance.tolist(), hoods.count.tolist())
    ]


def replay_view(state: np.ndarray, tracks: np.ndarray, target_id: int,
                own_position: np.ndarray, psi: float, sensor_range: float,
                fov: float, max_neighbors: int,
                in_focal_neighborhood: bool) -> list[NeighborInfo]:
    """The neighbourhood the focal agent believes its tracked neighbour
    `target_id` can see, from the focal agent's row of the track table; the
    focal agent is a member when `in_focal_neighborhood` holds."""
    focal = np.zeros((1, len(tracks)), dtype=bool)
    focal[0, target_id] = in_focal_neighborhood
    hoods = _replay_neighborhoods(state[None], tracks[None], [own_position],
                                  [psi], sensor_range, fov, max_neighbors,
                                  focal)
    return members(hoods)[int(np.count_nonzero(tracks[:target_id]))]
