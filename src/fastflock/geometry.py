"""Small planar-geometry helpers shared across the package."""

from __future__ import annotations

import math

import numpy as np

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


def rotation(angle: float) -> np.ndarray:
    """2x2 rotation matrix for `angle`."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def pairwise(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and distances between every pair of planar points.

    Returns rel of shape (N, N, 2) with rel[i, j] = points[j] - points[i],
    and dist of shape (N, N) with dist[i, j] the length of rel[i, j].
    """
    points = np.asarray(points, dtype=float)
    rel = points[None, :, :] - points[:, None, :]
    # A stack of 1x2 @ 2x1 products rounds each length exactly as
    # np.linalg.norm does on one offset; einsum, an explicit sum or
    # math.hypot differ from it in the last bit for some offsets.
    dist = np.sqrt((rel[..., None, :] @ rel[..., :, None])[..., 0, 0])
    return rel, dist
