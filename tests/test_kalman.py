import numpy as np
import pytest
from scipy import stats

from fastflock import kalman
from fastflock.kalman import (
    LkfModel,
    Measurement,
    NumericalFaultError,
    constant_acceleration_model,
    correct,
    correct_stack,
    nees,
    predict,
    predict_stack,
)

from .kalman_oracle import oracle_correct, oracle_predict

H_POS = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])
H_VEL = np.array([[0, 0, 1.0, 0, 0, 0], [0, 0, 0, 1.0, 0, 0]])


def random_spd(rng, n=6, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m @ m.T) + 0.1 * np.eye(n)


def test_predict_pure_velocity():
    model = constant_acceleration_model(0.1, np.zeros(6))
    x = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    x2, _ = predict(x, np.eye(6), model)
    assert np.allclose(x2, [0.1, 0.0, 1.0, 0.0, 0.0, 0.0])


def test_predict_acceleration_kinematics():
    model = constant_acceleration_model(0.1, np.zeros(6))
    x = np.array([0.0, 0.0, 0.0, 0.0, 2.0, 0.0])
    x2, _ = predict(x, np.eye(6), model)
    assert np.allclose(x2, [0.01, 0.0, 0.2, 0.0, 2.0, 0.0])


def test_predict_requires_control_iff_input_matrix():
    model = constant_acceleration_model(0.1, np.ones(6))
    with pytest.raises(ValueError):
        predict(np.zeros(6), np.eye(6), model, control=np.array([1.0, 0.0]))
    b = np.zeros((6, 2))
    b[2, 0] = b[3, 1] = 0.5
    model_b = LkfModel(a=model.a, b=b, q=model.q, dt=0.1)
    with pytest.raises(ValueError):
        predict(np.zeros(6), np.eye(6), model_b)


def test_predict_rejects_nonfinite():
    model = constant_acceleration_model(0.1, np.zeros(6))
    bad = np.array([0.0, np.nan, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(NumericalFaultError):
        predict(bad, np.eye(6), model)
    with pytest.raises(NumericalFaultError):
        predict(np.zeros(6), np.full((6, 6), np.inf), model)


def test_correct_zero_noise_measurement_dominates():
    meas = Measurement(
        z=np.array([3.0, 4.0]), h=H_POS, r=1e-12 * np.eye(2), stamp=0.0
    )
    x, p = correct(np.zeros(6), 10.0 * np.eye(6), meas)
    assert np.allclose(x[:2], [3.0, 4.0], atol=1e-6)


def test_measurement_rejects_zero_h_row():
    h = H_POS.copy()
    h[1, :] = 0.0
    with pytest.raises(ValueError):
        Measurement(z=np.zeros(2), h=h, r=np.eye(2), stamp=0.0)


def test_measurement_rejects_non_unit_h_entry():
    h = H_POS.copy()
    h[0, 0] = 2.0
    with pytest.raises(ValueError):
        Measurement(z=np.zeros(2), h=h, r=np.eye(2), stamp=0.0)


def test_correct_singular_innovation_raises():
    meas = Measurement(z=np.zeros(2), h=H_POS, r=1e-9 * np.eye(2), stamp=0.0)
    # A position block of -R in the prior makes S = H P H^T + R exactly zero.
    prior = np.zeros((6, 6))
    prior[:2, :2] = -1e-9 * np.eye(2)
    with pytest.raises(NumericalFaultError):
        correct(np.zeros(6), prior, meas)


def test_measurement_arrays_are_read_only_copies():
    r = 1e-9 * np.eye(2)
    meas = Measurement(z=np.zeros(2), h=H_POS, r=r, stamp=0.0)
    r[:] = 0.0
    assert meas.r[0, 0] == 1e-9
    with pytest.raises(ValueError):
        meas.r[:] = 0.0
    with pytest.raises(ValueError):
        meas.z[0] = 1.0


def test_correct_never_increases_trace():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = random_spd(rng)
        h = H_POS if rng.random() < 0.5 else H_VEL
        meas = Measurement(
            z=rng.standard_normal(2),
            h=h,
            r=np.diag(rng.uniform(0.01, 2.0, size=2)),
            stamp=0.0,
        )
        _, p2 = correct(rng.standard_normal(6), p, meas)
        assert np.trace(p2) <= np.trace(p) + 1e-12


def test_matches_oracle_over_50_steps():
    rng = np.random.default_rng(7)
    model = constant_acceleration_model(0.1, rng.uniform(0.0, 0.5, size=6))
    x = rng.standard_normal(6)
    p = random_spd(rng)
    ox, op = x.copy(), p.copy()
    for _ in range(50):
        x, p = predict(x, p, model)
        ox, op = oracle_predict(ox, op, model.a, model.q)
        h = H_POS if rng.random() < 0.5 else H_VEL
        z = rng.standard_normal(2)
        r = np.diag(rng.uniform(0.05, 1.0, size=2))
        x, p = correct(x, p, Measurement(z=z, h=h, r=r, stamp=0.0))
        ox, op = oracle_correct(ox, op, z, h, r)
        assert np.max(np.abs(x - ox)) < 1e-10
        assert np.max(np.abs(p - op)) < 1e-10


def test_covariance_stays_symmetric_psd():
    rng = np.random.default_rng(11)
    model = constant_acceleration_model(0.05, rng.uniform(0.0, 0.2, size=6))
    x, p = rng.standard_normal(6), random_spd(rng)
    for i in range(10_000):
        x, p = predict(x, p, model)
        if i % 3 == 0:
            h = H_POS if i % 6 == 0 else H_VEL
            meas = Measurement(
                z=rng.standard_normal(2),
                h=h,
                r=np.diag(rng.uniform(0.05, 1.0, size=2)),
                stamp=0.0,
            )
            x, p = correct(x, p, meas)
        assert np.array_equal(p, p.T)
    assert np.linalg.eigvalsh(p).min() >= -1e-9


def test_noiseless_convergence_to_truth():
    # Q = 0, tiny R, measurements from a trajectory generated by the same A.
    dt = 0.1
    model = constant_acceleration_model(dt, np.zeros(6))
    truth = np.array([1.0, -2.0, 0.5, 0.3, 0.05, -0.02])
    x = np.zeros(6)
    p = np.diag([10.0, 10.0, 10.0, 10.0, 1.0, 1.0])
    r = 1e-12 * np.eye(2)
    for _ in range(20):
        truth = model.a @ truth
        x, p = predict(x, p, model)
        x, p = correct(x, p, Measurement(z=truth[:2], h=H_POS, r=r, stamp=0.0))
        x, p = correct(x, p, Measurement(z=truth[2:4], h=H_VEL, r=r, stamp=0.0))
    assert np.max(np.abs(x - truth)) < 1e-6


def test_nees_zero_for_exact_estimate():
    assert nees(np.ones(6), np.eye(6), np.ones(6)) == 0.0


def test_nees_unit_quadratic_form():
    e = np.zeros(6)
    e[0] = 1.0
    assert nees(e, np.eye(6), np.zeros(6)) == pytest.approx(1.0)


def test_nees_singular_covariance_raises():
    with pytest.raises(NumericalFaultError):
        nees(np.ones(6), np.zeros((6, 6)), np.zeros(6))


def test_nees_monte_carlo_consistency():
    # A consistent filter's mean NEES over 1000 runs must sit inside the
    # 95% band of a chi-square with 6 DoF (scaled by the run count).
    rng = np.random.default_rng(42)
    dt = 0.1
    q_diag = np.array([0.0, 0.0, 0.0, 0.0, 0.05, 0.05])
    model = constant_acceleration_model(dt, q_diag)
    r = np.diag([0.5, 0.5])
    n_runs, n_steps = 1000, 40
    p0 = np.diag([4.0, 4.0, 1.0, 1.0, 0.25, 0.25])
    values = np.empty(n_runs)
    for run in range(n_runs):
        truth = rng.multivariate_normal(np.zeros(6), p0)
        x, p = np.zeros(6), p0.copy()
        for _ in range(n_steps):
            truth = model.a @ truth + rng.multivariate_normal(np.zeros(6), model.q)
            x, p = predict(x, p, model)
            z = truth[:2] + rng.multivariate_normal(np.zeros(2), r)
            x, p = correct(x, p, Measurement(z=z, h=H_POS, r=r, stamp=0.0))
        values[run] = nees(x, p, truth)
    dof = 6
    lo = stats.chi2.ppf(0.025, dof * n_runs) / n_runs
    hi = stats.chi2.ppf(0.975, dof * n_runs) / n_runs
    assert lo < values.mean() < hi


def random_stack(rng, k):
    states = rng.standard_normal((k, 6))
    covs = np.array([random_spd(rng) for _ in range(k)])
    return states, covs


@pytest.mark.parametrize("k", [1, 5, 19])
@pytest.mark.parametrize("with_input", [False, True])
def test_predict_stack_matches_oracle_per_row(k, with_input):
    rng = np.random.default_rng(k)
    model = constant_acceleration_model(0.05, rng.uniform(0.0, 0.5, size=6))
    controls = None
    if with_input:
        b = np.zeros((6, 2))
        b[2, 0] = b[3, 1] = 0.3
        model = LkfModel(a=model.a, b=b, q=model.q, dt=model.dt)
        controls = rng.standard_normal((k, 2))
    states, covs = random_stack(rng, k)
    xs, ps = predict_stack(states, covs, model, controls)
    assert xs.shape == (k, 6) and ps.shape == (k, 6, 6)
    for i in range(k):
        u = None if controls is None else controls[i]
        ox, op = oracle_predict(states[i], covs[i], model.a, model.q, b=model.b, u=u)
        assert np.max(np.abs(xs[i] - ox)) < 1e-10
        assert np.max(np.abs(ps[i] - op)) < 1e-10


@pytest.mark.parametrize("k", [1, 5, 19])
@pytest.mark.parametrize("h", [kalman.H_POS, kalman.H_VEL, kalman.H_ACC])
def test_correct_stack_matches_oracle_per_row(k, h):
    rng = np.random.default_rng(100 + k)
    states, covs = random_stack(rng, k)
    z = rng.standard_normal((k, 2))
    variances = rng.uniform(0.05, 2.0, size=k)
    xs, ps = correct_stack(states, covs, h, z, variances)
    for i in range(k):
        ox, op = oracle_correct(states[i], covs[i], z[i], h,
                                variances[i] * np.eye(2))
        assert np.max(np.abs(xs[i] - ox)) < 1e-10
        assert np.max(np.abs(ps[i] - op)) < 1e-10


def test_single_calls_equal_their_stack_rows():
    rng = np.random.default_rng(8)
    model = constant_acceleration_model(0.05, rng.uniform(0.0, 0.5, size=6))
    states, covs = random_stack(rng, 7)
    z = rng.standard_normal((7, 2))
    r = np.array([0.3 * np.eye(2)] * 7)
    xs, ps = predict_stack(states, covs, model)
    cx, cp = correct_stack(xs, ps, kalman.H_VEL, z, np.full(7, 0.3))
    for i in range(7):
        x, p = predict(states[i], covs[i], model)
        assert np.array_equal(x, xs[i]) and np.array_equal(p, ps[i])
        x, p = correct(x, p, Measurement(z=z[i], h=kalman.H_VEL, r=r[i]))
        assert np.array_equal(x, cx[i]) and np.array_equal(p, cp[i])


def test_selector_constants_are_read_only():
    assert np.array_equal(kalman.H_POS, H_POS)
    assert np.array_equal(kalman.H_VEL, H_VEL)
    for h in (kalman.H_POS, kalman.H_VEL, kalman.H_ACC):
        with pytest.raises(ValueError):
            h[0, 0] = 5.0


@pytest.mark.parametrize(
    "r",
    [
        np.array([[1.0, 0.5], [0.0, 1.0]]),  # asymmetric
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # symmetric, indefinite
        np.array([[0.0, 0.0], [0.0, 1.0]]),  # singular
        np.array([[-1.0, 0.0], [0.0, -1.0]]),  # negative definite
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
    ],
)
def test_bad_r_rejected_by_measurement_and_stack(r):
    with pytest.raises(ValueError):
        Measurement(z=np.zeros(2), h=H_POS, r=r)
    with pytest.raises(ValueError):
        Measurement(z=np.zeros(2), h=kalman.H_POS, r=r)
    # A stack's R is variance * I, which is never asymmetric or indefinite
    # and has equal diagonal entries; a diagonal R goes in as its first.
    if r[0, 1] == r[1, 0] == 0.0:
        with pytest.raises(ValueError, match="positive definite"):
            correct_stack(np.zeros((2, 6)), np.array([np.eye(6)] * 2),
                          kalman.H_POS, np.zeros((2, 2)), [1.0, r[0, 0]])


@pytest.mark.parametrize("variance", [
    0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 5e-324, 1e-160, 1e-170, 1e154,
    1.4e154, 1e-3, 0.09, 1.0, 2.5, 1e6,
])
def test_variance_check_matches_check_r(variance):
    # The stack's one-pass check of R = variance * I gives the verdict of
    # the per-matrix check on that R: 5e-324 and 1e-170 square to 0, 1e-160
    # to a subnormal, and 1.4e154 overflows while 1e154 does not.
    try:
        kalman._check_r(variance, 0.0, 0.0, variance)
    except ValueError:
        expected = False
    else:
        expected = True
    states, covs = np.zeros((3, 6)), np.array([np.eye(6)] * 3)
    try:
        correct_stack(states, covs, kalman.H_POS, np.zeros((3, 2)),
                      [1.0, variance, 0.5])
    except ValueError as exc:
        assert str(exc) == "R must be positive definite"
        accepted = False
    else:
        accepted = True
    assert accepted == expected


def test_r_within_allclose_asymmetry_accepted():
    r = np.array([[1.0, 1e-9], [0.0, 1.0]])
    assert np.allclose(r, r.T)
    Measurement(z=np.zeros(2), h=kalman.H_POS, r=r)


def test_stack_rejects_bad_h():
    h = H_POS.copy()
    h[1, :] = 0.0
    with pytest.raises(ValueError):
        correct_stack(np.zeros((1, 6)), np.eye(6)[None], h, np.zeros((1, 2)),
                      np.ones(1))


def test_stack_faults_name_the_offending_row():
    names = ["track-1", "track-4", "track-9"]
    model = constant_acceleration_model(0.1, np.ones(6))
    states, covs = np.zeros((3, 6)), np.array([np.eye(6)] * 3)
    bad = states.copy()
    bad[1, 3] = np.nan
    with pytest.raises(NumericalFaultError, match="track-4: non-finite .* state"):
        predict_stack(bad, covs, model, names=names)
    variances = np.ones(3)
    # A (non-PSD) prior that cancels R exactly makes S singular.
    singular = covs.copy()
    singular[2, 0, 0] = -1.0
    with pytest.raises(NumericalFaultError, match="track-9: singular innovation"):
        correct_stack(states, singular, kalman.H_POS, np.zeros((3, 2)), variances,
                      names=names)
    # A tiny but valid R on a zero position variance gives an infinite gain.
    huge = covs.copy()
    huge[0] = 0.0
    huge[0, 2, 0] = 1e150
    tiny = variances.copy()
    tiny[0] = 1e-160
    with pytest.raises(NumericalFaultError, match="track-1: non-finite Kalman gain"):
        correct_stack(states, huge, kalman.H_POS, np.zeros((3, 2)), tiny,
                      names=names)


def test_owned_rows_tags_faults_with_the_row_owner():
    model = constant_acceleration_model(0.1, np.ones(6))
    states, covs = np.zeros((3, 6)), np.array([np.eye(6)] * 3)
    covs[2, 1, 1] = np.nan
    with pytest.raises(NumericalFaultError) as info:
        with kalman.owned_rows([4, 7, 9]):
            predict_stack(states, covs, model)
    assert info.value.row == 2 and info.value.owner == 9
