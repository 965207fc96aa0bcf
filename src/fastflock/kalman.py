"""Linear Kalman filter engine over 6-dimensional lateral states.

State ordering is fixed as (x, y, vx, vy, ax, ay): position east/north [m],
velocity [m/s], and acceleration [m/s^2] in the horizontal plane. The engine
is a set of pure functions over (state, covariance) pairs, parameterized by
an LkfModel; both the neighbor tracker and the self-state estimator run on it.

The arithmetic works on stacks: `predict_stack` and `correct_stack` update K
independent filters at once, states (K, 6) and covariances (K, 6, 6), which
is how a neighbor bank runs all its tracks in one call (the block form of
independent filters, Grewal & Andrews, *Kalman Filtering: Theory and
Practice*). `predict` and `correct` are the K = 1 case of the same code.

A stack's measurement noise is R = variance * I per row, which is the only R
the bank and the self-state filter build: `correct_stack` takes the (K,)
variances and checks them in one pass. A full 2x2 R goes only through a
Measurement, which `correct` takes. Measurement models are validated once:
the selector matrices H_POS, H_VEL and H_ACC are checked at import and are
read-only, so a Measurement built on one of them only checks its R, in
closed form. Non-finite inputs, a singular innovation covariance and a
non-finite gain are checked on every call; inside a stack the fault names
the first offending row and carries its index, which `owned_rows` maps to
the agent holding the row when one stack spans a swarm.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

STATE_DIM = 6


class NumericalFaultError(RuntimeError):
    """Non-finite filter values or a degenerate innovation covariance; `row`
    is the offending row of the stack."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


@contextmanager
def owned_rows(owners: Sequence[int]):
    """Tag a NumericalFaultError raised inside with `owner`, the entry of
    `owners` for its offending row."""
    try:
        yield
    except NumericalFaultError as exc:
        exc.owner = owners[exc.row]
        raise


def _check_h(h: np.ndarray) -> None:
    for row in h:
        nonzero = row[row != 0.0]
        if nonzero.size != 1 or nonzero[0] != 1.0:
            raise ValueError(
                "each H row must have exactly one nonzero entry equal to 1"
            )


def _check_r(r00: float, r01: float, r10: float, r11: float) -> None:
    """R must be symmetric (to the tolerance of `np.allclose`) and positive
    definite; for a symmetric 2x2 that is r00 > 0 and det > 0."""
    if not (
        abs(r01 - r10) <= 1e-8 + 1e-5 * abs(r10)
        and abs(r10 - r01) <= 1e-8 + 1e-5 * abs(r01)
    ):
        raise ValueError("R must be 2x2 symmetric")
    det = r00 * r11 - r10 * r10
    if not (r00 > 0.0 and det > 0.0 and math.isfinite(det)):
        raise ValueError("R must be positive definite")


def _selector(i: int, j: int) -> np.ndarray:
    h = np.zeros((2, STATE_DIM))
    h[0, i] = h[1, j] = 1.0
    _check_h(h)
    h.setflags(write=False)
    return h


H_POS = _selector(0, 1)
H_VEL = _selector(2, 3)
H_ACC = _selector(4, 5)
_VALIDATED_H = (H_POS, H_VEL, H_ACC)


def _validate_h(h: np.ndarray) -> None:
    if not any(h is known for known in _VALIDATED_H):
        _check_h(h)


def _require_finite(names: Sequence[str], **arrays: np.ndarray) -> None:
    """Arrays are stacks with one row per name; the fault names the first
    row holding a non-finite entry."""
    for label, arr in arrays.items():
        ok = np.isfinite(arr)
        if not ok.all():
            row = int(np.argmin(ok.reshape(len(arr), -1).all(axis=1)))
            raise NumericalFaultError(
                f"{names[row]}: non-finite entries in {label}", row
            )


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + p.swapaxes(-1, -2)) / 2.0


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x row by row for a stack of vectors x (..., n)."""
    return (m @ x[..., None])[..., 0]


@dataclass
class LkfModel:
    """Discrete LTI model: x_k = A x_{k-1} + B u_k + w_k, w_k ~ N(0, Q).

    Args:
        a: 6x6 state matrix.
        b: 6x2 input matrix, or None when the model has no input.
        q: 6x6 diagonal process covariance.
        dt: step duration in seconds.
    """

    a: np.ndarray
    b: np.ndarray | None
    q: np.ndarray
    dt: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        if self.b is not None:
            self.b = np.asarray(self.b, dtype=float)
            if self.b.shape != (STATE_DIM, 2):
                raise ValueError(f"B must be 6x2, got {self.b.shape}")
            if not self.b.any():
                self.b = None
        if self.a.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"A must be 6x6, got {self.a.shape}")
        if self.q.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"Q must be 6x6, got {self.q.shape}")
        if np.any(self.q != np.diag(np.diag(self.q))):
            raise ValueError("Q must be diagonal")
        if np.any(np.diag(self.q) < 0.0):
            raise ValueError("Q diagonal entries must be >= 0")
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")


@dataclass(frozen=True)
class Measurement:
    """A 2-channel measurement z = H x + v, v ~ N(0, R), taken at `stamp`.

    H rows must each select exactly one state component (one entry equal
    to 1, the rest 0); R must be symmetric positive definite. H_POS, H_VEL
    and H_ACC were checked at import and are not checked again. The
    measurement is immutable and holds read-only copies of z and R, so the
    R that `correct` uses is the R checked here. The engine never builds
    one; perfbench's hooks and its Kalman cross-check do, so deleting it
    breaks the traced benchmark run.
    """

    z: np.ndarray
    h: np.ndarray
    r: np.ndarray
    stamp: float = 0.0

    def __post_init__(self):
        z = np.array(self.z, dtype=float)
        h = np.asarray(self.h, dtype=float)
        r = np.array(self.r, dtype=float)
        z.setflags(write=False)
        r.setflags(write=False)
        if z.shape != (2,) or h.shape != (2, STATE_DIM):
            raise ValueError("measurement must be 2-vector with 2x6 H")
        _validate_h(h)
        if r.shape != (2, 2):
            raise ValueError("R must be 2x2 symmetric")
        _check_r(*r.ravel().tolist())
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", r)


def constant_acceleration_model(
    dt: float, q_diag: np.ndarray | list[float]
) -> LkfModel:
    """Decoupled constant-acceleration kinematic model (no input)."""
    a = np.eye(STATE_DIM)
    a[0, 2] = a[1, 3] = a[2, 4] = a[3, 5] = dt
    a[0, 4] = a[1, 5] = dt * dt / 2.0
    return LkfModel(a=a, b=None, q=np.diag(np.asarray(q_diag, dtype=float)), dt=dt)


def predict_stack(
    states: np.ndarray,
    covs: np.ndarray,
    model: LkfModel,
    controls: np.ndarray | None = None,
    names: Sequence[str] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate K independent filters one step through the same model.

    states is (K, 6), covs (K, 6, 6), controls (K, 2) and given exactly
    when the model carries an input matrix; names label the rows in faults.
    """
    states = np.asarray(states, dtype=float)
    covs = np.asarray(covs, dtype=float)
    names = ["lkf"] * len(states) if names is None else names
    _require_finite(names, state=states, cov=covs)
    if (controls is None) != (model.b is None):
        if model.b is None:
            raise ValueError(
                f"{names[0]}: control given but model has no input matrix"
            )
        raise ValueError(
            f"{names[0]}: model has an input matrix but no control given"
        )
    x = _apply(model.a, states)
    if model.b is not None:
        x = x + _apply(model.b, np.asarray(controls, dtype=float))
    p = _symmetrize(model.a @ covs @ model.a.T + model.q)
    return x, p


def _correct_rows(
    states: np.ndarray,
    covs: np.ndarray,
    h: np.ndarray,
    z: np.ndarray,
    r: np.ndarray,
    names: Sequence[str],
) -> tuple[np.ndarray, np.ndarray]:
    _require_finite(names, state=states, cov=covs)
    ph_t = covs @ h.T
    s = h @ ph_t + r
    try:
        # K = P H^T S^-1, computed via a solve on S^T (S is symmetric).
        gain = np.linalg.solve(s, ph_t.swapaxes(-1, -2)).swapaxes(-1, -2)
    except np.linalg.LinAlgError as exc:
        # The solve fails on an exact zero pivot of the same LU that det uses.
        row = int(np.argmax(np.linalg.det(s) == 0.0))
        raise NumericalFaultError(
            f"{names[row]}: singular innovation covariance", row
        ) from exc
    finite = np.isfinite(gain)
    if not finite.all():
        row = int(np.argmin(finite.reshape(len(gain), -1).all(axis=1)))
        raise NumericalFaultError(f"{names[row]}: non-finite Kalman gain", row)
    x = states + _apply(gain, z - _apply(h, states))
    p = _symmetrize(covs - gain @ h @ covs)
    return x, p


def _check_variances(variances: np.ndarray) -> None:
    """R = var * I must be positive definite in every row: the verdict of
    `_check_r(var, 0.0, 0.0, var)` (var > 0 and a determinant var * var that
    is > 0 and finite), over the whole stack at once."""
    with np.errstate(over="ignore"):
        det = variances * variances
    if not np.all((variances > 0.0) & (det > 0.0) & (det < np.inf)):
        raise ValueError("R must be positive definite")


def correct_stack(
    states: np.ndarray,
    covs: np.ndarray,
    h: np.ndarray,
    z: np.ndarray,
    variances: np.ndarray,
    names: Sequence[str] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one measurement to each of K independent filters.

    states is (K, 6), covs (K, 6, 6), h a 2x6 selector shared by all rows,
    z (K, 2), and variances (K,) give each row R = variance * I; names label
    the rows in faults. H is held to the same rules as in a Measurement, and
    each R to its positive-definite rule.
    """
    states = np.asarray(states, dtype=float)
    covs = np.asarray(covs, dtype=float)
    h = np.asarray(h, dtype=float)
    z = np.asarray(z, dtype=float)
    variances = np.asarray(variances, dtype=float)
    k = len(states)
    names = ["lkf"] * k if names is None else names
    if h.shape != (2, STATE_DIM) or z.shape != (k, 2):
        raise ValueError("measurements must be (K, 2) with a 2x6 H")
    _validate_h(h)
    if variances.shape != (k,):
        raise ValueError("variances must be a (K,) stack")
    _check_variances(variances)
    return _correct_rows(states, covs, h, z, variances[:, None, None] * np.eye(2),
                         names)


def predict(
    state: np.ndarray,
    cov: np.ndarray,
    model: LkfModel,
    control: np.ndarray | None = None,
    name: str = "lkf",
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate (state, covariance) one step through the model.

    `control` must be given exactly when the model carries an input matrix.
    The engine never calls this; perfbench's hooks and its Kalman
    cross-check do, so deleting it breaks the traced benchmark run.
    """
    x, p = predict_stack(
        np.asarray(state, dtype=float)[None],
        np.asarray(cov, dtype=float)[None],
        model,
        None if control is None else np.asarray(control, dtype=float)[None],
        (name,),
    )
    return x[0], p[0]


def correct(
    state: np.ndarray,
    cov: np.ndarray,
    meas: Measurement,
    name: str = "lkf",
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one measurement: standard gain update, simple covariance form.

    The engine never calls this; perfbench's hooks and its Kalman
    cross-check do, so deleting it breaks the traced benchmark run.
    """
    x, p = _correct_rows(
        np.asarray(state, dtype=float)[None],
        np.asarray(cov, dtype=float)[None],
        meas.h,
        meas.z[None],
        meas.r[None],
        (name,),
    )
    return x[0], p[0]


def nees(
    state_est: np.ndarray,
    cov: np.ndarray,
    state_true: np.ndarray,
    name: str = "lkf",
) -> float:
    """Normalized estimation error squared e^T P^-1 e; the filter
    consistency statistic used to tune Q and R."""
    e = np.asarray(state_est, dtype=float) - np.asarray(state_true, dtype=float)
    try:
        sol = np.linalg.solve(cov, e)
    except np.linalg.LinAlgError as exc:
        raise NumericalFaultError(f"{name}: singular covariance in NEES") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalFaultError(f"{name}: non-finite NEES solve")
    return float(e @ sol)
