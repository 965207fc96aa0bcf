"""Textbook Kalman equations, the reference for the sampled cross-check.

Written from the standard formulas with an explicit inverse and the plain
(I - K H) P covariance update, independent of `fastflock` and its tests.
"""

from __future__ import annotations

import numpy as np

# Agreement required between the program and the textbook equations,
# relative to the size of the entries compared.
REL_TOL = 1e-9


def predict(x, p, a, q, b=None, u=None):
    """x' = A x + B u,  P' = A P A^T + Q."""
    x_new = a @ x if b is None else a @ x + b @ u
    return x_new, a @ p @ a.T + q


def correct(x, p, z, h, r):
    """K = P H^T (H P H^T + R)^-1,  x' = x + K (z - H x),  P' = (I - K H) P."""
    k = p @ h.T @ np.linalg.inv(h @ p @ h.T + r)
    return x + k @ (z - h @ x), (np.eye(len(x)) - k @ h) @ p


def agrees(expected, actual) -> bool:
    """Both (state, covariance) pairs agree entry-wise to REL_TOL of scale."""
    for want, got in zip(expected, actual):
        want = np.asarray(want, dtype=float)
        got = np.asarray(got, dtype=float)
        scale = max(float(np.abs(want).max()), 1.0)
        if want.shape != got.shape or float(np.abs(want - got).max()) > REL_TOL * scale:
            return False
    return True
