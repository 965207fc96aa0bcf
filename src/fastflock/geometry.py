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


def rotation(angle: float) -> np.ndarray:
    """2x2 rotation matrix for `angle`."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def heading_vectors(angles) -> np.ndarray:
    """Unit vectors (..., 2) pointing along an angle or an array of angles:
    `math.cos` and `math.sin` run per element, since numpy's own need not
    round the same way on every build."""
    flat = np.asarray(angles, dtype=float)
    values = flat.ravel().tolist()
    n = len(values)
    return np.stack(
        [np.fromiter(map(math.cos, values), float, n),
         np.fromiter(map(math.sin, values), float, n)],
        axis=-1,
    ).reshape(flat.shape + (2,))


def bearings(vectors: np.ndarray) -> np.ndarray:
    """Angles of a stack of planar vectors (..., 2), by `math.atan2` per
    element: `np.arctan2` differs from it in the last bit."""
    vectors = np.asarray(vectors, dtype=float)
    n = vectors[..., 0].size
    return np.fromiter(
        map(math.atan2, vectors[..., 1].ravel().tolist(),
            vectors[..., 0].ravel().tolist()),
        float, n,
    ).reshape(vectors.shape[:-1])


def wrap_angles(angles) -> np.ndarray:
    """`wrap_angle` of each element of an array of angles, bit for bit.

    `math.remainder(x, TWO_PI)` is x itself when |x| <= pi (the quotient
    rounds to 0, ties to even), so only the other elements go through
    `wrap_angle`; of the rest, -pi wraps to pi as it does there."""
    wrapped = np.array(angles, dtype=float)
    far = ~(np.abs(wrapped) <= math.pi)
    if far.any():
        wrapped[far] = list(map(wrap_angle, wrapped[far].tolist()))
    return np.where(wrapped <= -math.pi, wrapped + TWO_PI, wrapped)


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of two stacks of planar vectors (..., 2).

    A stack of 1x2 @ 2x1 products rounds each one exactly as `a @ b` and
    np.linalg.norm do on one pair of vectors; einsum, an explicit sum or
    math.hypot differ from them in the last bit for some vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def lengths(vectors: np.ndarray) -> np.ndarray:
    """Lengths of a stack of planar vectors (..., 2), each rounded exactly
    as np.linalg.norm rounds one (see `dots`)."""
    return np.sqrt(dots(vectors, vectors))


def pairwise(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and distances between every pair of planar points, for one
    set of points (N, 2) or a stack of them (..., N, 2).

    Returns rel of shape (..., N, N, 2) with rel[..., i, j] = points[..., j]
    - points[..., i], and dist of shape (..., N, N) with dist[..., i, j] the
    length of rel[..., i, j].
    """
    points = np.asarray(points, dtype=float)
    rel = points[..., None, :, :] - points[..., :, None, :]
    return rel, lengths(rel)
