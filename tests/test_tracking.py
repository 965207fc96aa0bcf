import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from scipy import stats

from fastflock import kalman, tracking
from fastflock.config import FilterConfig
from fastflock.sensors import SensorConfig
from fastflock.tracking import Sightings, TrackBank, TrackParams, Velocities

from .tracking_oracle import DictBank


def track_params(**overrides):
    """The bank's settings as a default scenario with comm builds them, with
    `overrides`."""
    filters, sensors = FilterConfig(), SensorConfig()
    return TrackParams(**{
        "range_sigma_rel": sensors.range_sigma_rel,
        "bearing_sigma": sensors.bearing_sigma,
        "vel_sigma": filters.vel_sigma_comm,
        **overrides,
    })


@dataclass
class DictBankParams(TrackParams):
    """`TrackParams` with the bank's fixed process noise, drop time and
    initial variances as fields, where the dict bank reads them."""

    q_rate: tuple[float, ...] = tracking.Q_RATE
    drop_after: float = tracking.DROP_AFTER
    init_vel_var: float = tracking.INIT_VEL_VAR
    init_acc_var: float = tracking.INIT_ACC_VAR


def make_bank(dt=0.1, n_agents=10, **overrides):
    return TrackBank(track_params(**overrides), dt=dt, n_agents=n_agents)


class Obs(NamedTuple):
    """One sighting as a test writes it down; its observer is its slot."""

    observed_id: int
    bearing: float
    distance: float
    stamp: float = 0.0


def obs(observed_id, bearing, distance, stamp=0.0):
    return Obs(observed_id, bearing, distance, stamp)


def sightings(rows):
    """`Sightings` of rows[e], observer e's list of `Obs`."""
    return Sightings.from_rows([(e, *o) for e, items in enumerate(rows)
                                for o in items])


def reports(rows):
    """`Velocities` of rows[e], observer e's list of (id, velocity)."""
    return Velocities.from_rows([(e, i, v) for e, items in enumerate(rows)
                                 for i, v in items])


def test_observation_validation():
    bank = make_bank()
    with pytest.raises(ValueError):
        bank.ingest_position(*obs(1, 0.0, -1.0), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        # bearing outside (-pi, pi]
        bank.ingest_position(*obs(1, 4.0, 1.0), np.zeros(2), 0.0)


@pytest.mark.parametrize("bearing, distance, message", [
    (0.0, 0.0, "distance"), (0.0, -1.0, "distance"),
    (0.0, math.nan, "distance"), (-math.pi, 10.0, "bearing"),
    (math.nextafter(math.pi, 4.0), 10.0, "bearing"), (4.0, 10.0, "bearing"),
    (math.nan, 10.0, "bearing"),
])
def test_apply_tick_rejects_bad_sightings(bearing, distance, message):
    # The checks run over the whole tick before any track changes; the
    # error names the observer of the first bad row.
    bank = make_bank()
    rows = [[obs(1, 0.0, 10.0)], [], [obs(2, 0.3, 9.0), obs(4, bearing, distance)]]
    with pytest.raises(ValueError, match=message) as info:
        bank.apply_tick(sightings(rows), None, np.zeros((3, 2)), [0.0] * 3)
    assert info.value.owner == 2
    assert not bank.tracks.any()
    bank.apply_tick(sightings([[obs(1, math.pi, 1e-3)]]), None, [np.zeros(2)],
                    [0.0])
    assert bank.tracks[0, 1]


def test_position_ingest_axis_aligned():
    bank = make_bank()
    bank.ingest_position(*obs(1, 0.0, 10.0), np.zeros(2), 0.0)
    assert np.allclose(bank.state[0, 1, :2], [10.0, 0.0])


def test_position_ingest_rotated_observer():
    bank = make_bank()
    bank.ingest_position(*obs(1, 0.0, 10.0), np.array([5.0, 5.0]), math.pi / 2)
    assert np.allclose(bank.state[0, 1, :2], [5.0, 15.0])


def test_new_track_initialization():
    bank = make_bank()
    bank.ingest_position(*obs(3, 0.5, 8.0, stamp=1.0), np.zeros(2), 0.0)
    assert np.flatnonzero(bank.tracks[0]).tolist() == [3]
    assert np.allclose(bank.state[0, 3, 2:], 0.0)
    assert bank.last_pos_stamp[0, 3] == 1.0
    assert bank.staleness[0, 3] == 0.0
    assert np.allclose(bank.cov[0, 3, 2:, 2:], np.diag([25.0, 25.0, 10.0, 10.0]))


def test_stale_observation_dropped_with_count():
    bank = make_bank()
    bank.ingest_position(*obs(1, 0.0, 10.0, stamp=5.0), np.zeros(2), 0.0)
    before = bank.state[0, 1].copy()
    bank.ingest_position(*obs(1, 0.1, 12.0, stamp=4.0), np.zeros(2), 0.0)
    assert np.array_equal(bank.state[0, 1], before)
    assert bank.dropped_stale == 1


def test_velocity_dominant_measurement():
    bank = make_bank(vel_sigma=1e-5)
    bank.ingest_position(*obs(1, 0.0, 10.0), np.zeros(2), 0.0)
    bank.ingest_velocity(1, np.array([5.0, 0.0]))
    assert np.allclose(bank.state[0, 1, 2:4], [5.0, 0.0], atol=1e-4)


def test_velocity_for_unknown_id_dropped():
    bank = make_bank()
    bank.ingest_velocity(9, np.array([1.0, 0.0]))
    assert not bank.tracks.any()
    assert bank.dropped_unknown == 1


def test_simultaneous_corrections_position_first():
    bank = make_bank()
    bank.ingest_position(*obs(1, 0.0, 10.0, stamp=0.0), np.zeros(2), 0.0)
    bank.step()
    # Reference: apply position then velocity by hand on a twin bank.
    twin = make_bank()
    twin.ingest_position(*obs(1, 0.0, 10.0, stamp=0.0), np.zeros(2), 0.0)
    twin.step()
    twin.ingest_position(*obs(1, 0.01, 10.5, stamp=0.1), np.zeros(2), 0.0)
    twin.ingest_velocity(1, np.array([2.0, 0.0]))

    bank.apply_tick(
        sightings([[obs(1, 0.01, 10.5, stamp=0.1)]]),
        reports([[(1, np.array([2.0, 0.0]))]]),
        [np.zeros(2)],
        [0.0],
    )
    assert np.array_equal(bank.state[0, 1], twin.state[0, 1])
    assert np.array_equal(bank.cov[0, 1], twin.cov[0, 1])


def test_tick_permutation_invariance():
    rng = np.random.default_rng(5)
    observations = [
        obs(i, float(rng.uniform(-1, 1)), float(rng.uniform(5, 20)), stamp=0.0)
        for i in (4, 1, 3, 2)
    ]
    velocities = [(i, rng.standard_normal(2)) for i in (3, 1, 4)]
    banks = []
    for order in ((0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)):
        bank = make_bank()
        bank.apply_tick(
            sightings([[observations[i] for i in order]]),
            reports([list(reversed(velocities))]),
            [np.zeros(2)],
            [0.0],
        )
        banks.append(bank)
    ref = banks[0]
    for other in banks[1:]:
        assert np.array_equal(ref.tracks, other.tracks)
        assert np.array_equal(ref.state, other.state)
        assert np.array_equal(ref.cov, other.cov)


def test_step_empty_bank():
    bank = make_bank()
    bank.step()
    assert not bank.tracks.any()


def test_staleness_drop_threshold():
    dt = 0.125
    bank = make_bank(dt=dt)
    bank.ingest_position(*obs(1, 0.0, 10.0), np.zeros(2), 0.0)
    # Exactly DROP_AFTER s: staleness == DROP_AFTER, kept.
    for _ in range(round(tracking.DROP_AFTER / dt)):
        bank.step()
    assert bank.tracks[0, 1]
    bank.step()  # crosses the threshold
    assert not bank.tracks[0, 1]


def test_step_matches_per_track_predict():
    bank = make_bank()
    bank.ingest_position(*obs(1, 0.2, 12.0), np.zeros(2), 0.0)
    bank.ingest_position(*obs(2, -0.4, 7.0), np.zeros(2), 0.0)
    expected = {
        tid: kalman.predict(bank.state[0, tid], bank.cov[0, tid], bank.model)
        for tid in (1, 2)
    }
    bank.step()
    for tid, (x, p) in expected.items():
        assert np.array_equal(bank.state[0, tid], x)
        assert np.array_equal(bank.cov[0, tid], p)


def test_apply_tick_matches_sequential_ingest():
    # Spawns, stale drops and unknown velocities in one tick: the stacked
    # tick must equal ingesting one input at a time in the canonical order
    # (positions by id, then velocities by id).
    rng = np.random.default_rng(21)
    position = np.array([3.0, -2.0])
    heading = 0.7

    def seeded():
        init = np.random.default_rng(4)
        bank = make_bank()
        for tid in (1, 2, 3, 5, 8):
            bank.ingest_position(
                *obs(tid, float(init.uniform(-3, 3)), 8.0 + tid, stamp=0.2),
                position, heading,
            )
        bank.step()
        return bank

    bank, twin = seeded(), seeded()
    observations = [
        obs(tid, float(rng.uniform(-3, 3)), float(rng.uniform(5, 30)), stamp=stamp)
        for tid, stamp in [(5, 0.3), (2, 0.3), (7, 0.3), (3, 0.1), (1, 0.3)]
    ]
    velocities = [(tid, rng.standard_normal(2)) for tid in (8, 1, 4, 7)]
    # This tick once also held repeats (id 2 three times, 7 twice, and two
    # velocities for 8); a repeated pair now raises.
    with pytest.raises(ValueError, match="repeats"):
        seeded().apply_tick(sightings([observations + observations[1:3]]), None,
                            [position], [heading])
    with pytest.raises(ValueError, match="repeats"):
        seeded().apply_tick(None, reports([velocities + velocities[:1]]), [], [])
    bank.apply_tick(sightings([observations]), reports([velocities]),
                    [position], [heading])
    for o in sorted(observations, key=lambda o: o.observed_id):
        twin.ingest_position(*o, position, heading)
    for tid, velocity in sorted(velocities, key=lambda r: r[0]):
        twin.ingest_velocity(tid, velocity)
    assert np.flatnonzero(bank.tracks[0]).tolist() == [1, 2, 3, 5, 7, 8]
    for name in ("tracks", "state", "cov", "last_pos_stamp", "staleness"):
        assert np.array_equal(getattr(bank, name), getattr(twin, name)), name
    assert bank.dropped_stale == twin.dropped_stale == 1
    assert bank.dropped_unknown == twin.dropped_unknown == 1


def test_repeated_pair_or_bad_id_raises():
    # Each (observer, id) pair appears at most once per kind and tick, and
    # ids index the table: a negative id would otherwise wrap silently.
    bank = make_bank(n_agents=4)
    with pytest.raises(ValueError, match="repeats"):
        bank.apply_tick(sightings([[obs(1, 0.0, 10.0), obs(1, 0.1, 11.0)]]),
                        None, [np.zeros(2)], [0.0])
    bank.ingest_position(*obs(1, 0.0, 10.0), np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="repeats"):
        bank.apply_tick(None, reports([[(1, np.ones(2)), (1, np.zeros(2))]]),
                        [], [])
    for bad in (-1, 4):
        with pytest.raises(ValueError, match="0..3"):
            bank.ingest_position(*obs(bad, 0.0, 10.0), np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="0..3"):
            bank.ingest_velocity(bad, np.ones(2))
    # The same id seen by two observers is two pairs.
    bank.apply_tick(sightings([[obs(2, 0.0, 10.0)], [obs(2, 0.0, 12.0)]]), None,
                    [np.zeros(2)] * 2, [0.0, 0.0])
    assert bank.tracks[:2, 2].all()


def test_stacked_fault_names_the_track():
    bank = make_bank()
    for tid in (2, 6, 9):
        bank.ingest_position(*obs(tid, 0.0, 10.0 + tid), np.zeros(2), 0.0)
    bank.cov[0, 6, 0, 0] = np.nan
    with pytest.raises(kalman.NumericalFaultError, match="track-6"):
        bank.step()
    with pytest.raises(kalman.NumericalFaultError, match="track-6"):
        bank.apply_tick(
            sightings([[obs(tid, 0.0, 10.0 + tid, stamp=0.1) for tid in (9, 6, 2)]]),
            None, [np.zeros(2)], [0.0],
        )


def test_zero_velocity_sigma_rejected():
    bank = make_bank(vel_sigma=0.0)
    bank.ingest_position(*obs(1, 0.0, 10.0), np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="positive definite"):
        bank.apply_tick(None, reports([[(1, np.ones(2))]]), [np.zeros(2)], [0.0])


def test_constant_velocity_stream_recovers_velocity(monkeypatch):
    # 100 noisy position observations of a constant-velocity neighbor,
    # sigma_pos = 1 m; final velocity estimate within 0.3 m/s of truth.
    # Tolerance sits above the Monte-Carlo 95th percentile (0.18) for this
    # configuration; constant-velocity regime, so process noise ~ 0.
    monkeypatch.setattr(tracking, "Q_RATE", (0.0, 0.0, 0.0, 0.0, 1e-5, 1e-5))
    monkeypatch.setattr(tracking, "POS_SIGMA_FLOOR", 1.0)
    rng = np.random.default_rng(12)
    dt = 0.2
    bank = make_bank(dt=dt, range_sigma_rel=0.0, bearing_sigma=0.0)
    pos = np.array([20.0, 5.0])
    vel = np.array([2.0, -1.0])
    for k in range(100):
        bank.step()
        noisy = pos + rng.normal(0.0, 1.0, size=2)
        bearing = math.atan2(noisy[1], noisy[0])
        bank.ingest_position(
            *obs(1, bearing, float(np.linalg.norm(noisy)), stamp=k * dt),
            np.zeros(2),
            0.0,
        )
        pos = pos + vel * dt
    err = np.linalg.norm(bank.state[0, 1, 2:4] - vel)
    assert err < 0.3


def test_track_innovation_consistency(monkeypatch):
    # Matched Q/R: mean 2-DoF innovation NEES stays in the 95% band.
    rng = np.random.default_rng(99)
    dt = 0.1
    sigma = 0.8
    monkeypatch.setattr(tracking, "POS_SIGMA_FLOOR", sigma)
    samples = []
    for _ in range(60):
        bank = make_bank(dt=dt, range_sigma_rel=0.0, bearing_sigma=0.0)
        truth = np.array([15.0, 5.0, 1.0, -0.5, 0.0, 0.0])
        first = truth[:2] + rng.normal(0.0, sigma, size=2)
        bank.ingest_position(
            *obs(1, math.atan2(first[1], first[0]), float(np.linalg.norm(first))),
            np.zeros(2),
            0.0,
        )
        for k in range(50):
            truth = bank.model.a @ truth + rng.multivariate_normal(
                np.zeros(6), bank.model.q
            )
            bank.step()
            z = truth[:2] + rng.normal(0.0, sigma, size=2)
            h = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])
            innovation = z - h @ bank.state[0, 1]
            s = h @ bank.cov[0, 1] @ h.T + sigma**2 * np.eye(2)
            samples.append(float(innovation @ np.linalg.solve(s, innovation)))
            bank.ingest_position(
                *obs(1, math.atan2(z[1], z[0]), float(np.linalg.norm(z)),
                    stamp=(k + 1) * dt),
                np.zeros(2),
                0.0,
            )
    n = len(samples)
    lo = stats.chi2.ppf(0.025, 2 * n) / n
    hi = stats.chi2.ppf(0.975, 2 * n) / n
    assert lo < np.mean(samples) < hi


def random_ticks(rng, n, ticks):
    """Inputs of `ticks` ticks of an n-observer bank over ids 0..9: spawns,
    late (stale) sightings, velocities for unknown ids, and observer 1 with
    no input every third tick; no (observer, id) pair repeats in a tick."""
    for k in range(ticks):
        stamp = 0.1 * k
        observations, velocities = [], []
        for e in range(n):
            mine = []
            if not (e == 1 and k % 3 == 0):
                for tid in rng.choice(8, size=int(rng.integers(1, 6)),
                                      replace=False).tolist():
                    late = stamp - (0.3 if rng.random() < 0.2 else 0.0)
                    mine.append(obs(tid, float(rng.uniform(-3, 3)),
                                    float(rng.uniform(5, 30)), stamp=late))
            observations.append(mine)
            velocities.append([
                (int(tid), rng.standard_normal(2))
                for tid in rng.choice(10, size=int(rng.integers(0, 5)),
                                      replace=False)
            ])
        positions = rng.normal(0.0, 5.0, size=(n, 2))
        headings = rng.uniform(-3, 3, size=n).tolist()
        yield observations, velocities, positions, headings


def test_swarm_bank_rows_equal_one_observer_banks():
    # A three-observer bank against three one-observer banks fed the same
    # inputs, over ticks with spawns, stale drops, velocities for unknown
    # ids and observers with no input: every track equal.
    rng = np.random.default_rng(31)
    n = 3
    swarm = make_bank(n_agents=10)
    singles = [make_bank(n_agents=10) for _ in range(n)]
    for observations, velocities, positions, headings in random_ticks(rng, n, 12):
        swarm.step()
        swarm.apply_tick(sightings(observations), reports(velocities),
                         positions, headings)
        for e, bank in enumerate(singles):
            bank.step()
            bank.apply_tick(sightings([observations[e]]), reports([velocities[e]]),
                            [positions[e]], [headings[e]])
    for e, bank in enumerate(singles):
        assert np.array_equal(swarm.tracks[e], bank.tracks[0])
        live = bank.tracks[0]
        for name in ("state", "cov", "last_pos_stamp", "staleness"):
            assert np.array_equal(getattr(swarm, name)[e][live],
                                  getattr(bank, name)[0][live]), name
    assert swarm.dropped_stale == sum(b.dropped_stale for b in singles) > 0
    assert swarm.dropped_unknown == sum(b.dropped_unknown for b in singles) > 0


@pytest.mark.parametrize("seed", [3, 8, 13])
def test_table_matches_dict_bank(seed, monkeypatch):
    # The table against the dict bank it replaced, tick by tick: the same
    # live tracks, and bit for bit the same states, covariances, stamps,
    # staleness and drop counters. A short drop time lets tracks drop.
    monkeypatch.setattr(tracking, "DROP_AFTER", 0.35)
    rng = np.random.default_rng(seed)
    n = 4
    ours = make_bank(n_agents=10)
    ref = DictBank(DictBankParams(**vars(track_params()), drop_after=0.35),
                   0.1, 10)
    for observations, velocities, positions, headings in random_ticks(rng, n, 25):
        ours.step()
        ours.apply_tick(sightings(observations), reports(velocities), positions,
                        headings)
        ref.step()
        ref.apply_tick(observations, velocities, positions, headings)
        for e, tracks in enumerate(ref.tracks):
            assert np.flatnonzero(ours.tracks[e]).tolist() == sorted(tracks)
            for tid, track in tracks.items():
                assert np.array_equal(ours.state[e, tid], track.state)
                assert np.array_equal(ours.cov[e, tid], track.cov)
                assert ours.last_pos_stamp[e, tid] == track.last_pos_stamp
                assert ours.staleness[e, tid] == track.staleness
        assert ours.dropped_stale == ref.dropped_stale
        assert ours.dropped_unknown == ref.dropped_unknown
    assert ours.dropped_stale > 0 and ours.dropped_unknown > 0
