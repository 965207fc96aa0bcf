"""Tests of the benchmark itself: its output checks, its Kalman reference and
its tracer. Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import dataclasses
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import kalman_ref  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def flight(tmp_path_factory):
    """A 6 s stretch of the ablation flight: records, live and replayed
    summaries."""
    from fastflock import config, engine, metrics

    scenario = dataclasses.replace(
        config.load_scenario(BENCH / "workloads" / "ablation.yaml"), duration=6.0
    )
    path = tmp_path_factory.mktemp("flight") / "log.jsonl"
    live = engine.run_scenario(scenario, log_path=path).summary.as_dict()
    records = engine.read_log(path)
    body = [r for r in records if r.get("record") != "summary"]
    return records, live, metrics.summarize(body).as_dict()


def _ticks(records):
    return [r for r in records if r.get("record") == "tick"]


def test_checks_pass_on_a_flight(flight):
    assert checks.check_flight(*flight) == []


def test_checks_catch_a_moved_position(flight):
    records, live, replayed = copy.deepcopy(flight)
    _ticks(records)[50]["agents"]["2"]["p"][0] += 0.5
    failures = checks.check_flight(records, live, replayed)
    assert any(f.startswith("kinematics:") for f in failures), failures


def test_checks_catch_an_injected_collision(flight):
    records, live, replayed = copy.deepcopy(flight)
    agents = _ticks(records)[80]["agents"]
    agents["1"]["p"] = [agents["0"]["p"][0] + 0.5, agents["0"]["p"][1]]
    failures = checks.check_flight(records, live, replayed)
    assert any(f.startswith("method: collisions") for f in failures), failures
    assert any(f.startswith("recount: 1 collisions") for f in failures), failures


def test_checks_catch_a_doctored_summary(flight):
    records, live, replayed = copy.deepcopy(flight)
    records[-1]["self_loc_rmse_full"] *= 1.001
    failures = checks.check_flight(records, live, replayed)
    assert any(f.startswith("recount: self_loc_rmse_full") for f in failures), failures


def test_checks_catch_a_replay_that_differs(flight):
    records, live, replayed = copy.deepcopy(flight)
    replayed["neighbor_distance_std"] = np.nextafter(replayed["neighbor_distance_std"], 0)
    failures = checks.check_flight(records, live, replayed)
    assert any(f.startswith("replay:") for f in failures), failures


def _random_spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


def test_kalman_reference_agrees_with_the_program():
    from fastflock import kalman

    rng = np.random.default_rng(7)
    model = kalman.constant_acceleration_model(0.05, rng.uniform(0.01, 1.0, 6))
    x, p = rng.normal(size=6), _random_spd(rng, 6)
    assert kalman_ref.agrees(
        kalman_ref.predict(x, p, model.a, model.q), kalman.predict(x, p, model)
    )
    h = np.zeros((2, 6))
    h[0, 2] = h[1, 3] = 1.0
    meas = kalman.Measurement(z=rng.normal(size=2), h=h, r=0.09 * np.eye(2))
    assert kalman_ref.agrees(
        kalman_ref.correct(x, p, meas.z, h, meas.r), kalman.correct(x, p, meas)
    )


def test_crosscheck_flags_a_wrong_kalman_result():
    rng = np.random.default_rng(3)
    probes = layers.Probes()
    x, p = rng.normal(size=6), _random_spd(rng, 6)
    a, q = np.eye(6), np.eye(6)
    model = types.SimpleNamespace(a=a, b=None, q=q)
    good = kalman_ref.predict(x, p, a, q)
    probes.hooks()["kalman.predict"]((x, p, model), {}, good)
    assert probes.samples and probes.crosscheck() == []
    probes.samples.clear()
    probes.seen["predict"] = 0
    probes.hooks()["kalman.predict"]((x, p, model), {}, (good[0] + 1e-6, good[1]))
    assert probes.crosscheck() != []


def test_tracer_nests_spans_and_rebinds_imported_names(monkeypatch):
    inner = types.ModuleType("tracedpkg.inner")
    exec("def leaf(x):\n    return x + 1\n", inner.__dict__)
    outer = types.ModuleType("tracedpkg.outer")
    exec("def branch(x):\n    return leaf(x) + leaf(x)\n", outer.__dict__)
    outer.leaf = inner.leaf  # what `from .inner import leaf` leaves behind
    for module in (types.ModuleType("tracedpkg"), inner, outer):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    tracer = Tracer()
    seen = []
    tracer.install("tracedpkg", ["inner", "outer"],
                   {"inner.leaf": lambda args, kwargs, result: seen.append(result)})
    assert outer.branch(1) == 4
    spans = tracer.arrays()
    totals = tracer.totals(spans)
    assert totals["outer.branch"]["calls"] == 1
    assert totals["inner.leaf"]["calls"] == 2
    assert seen == [2, 2]
    branch = tracer.labels.index("outer.branch")
    assert list(spans["parent"]) == [-1, 0, 0] and spans["name"][0] == branch
    assert np.all(spans["self"] >= 0)
    assert spans["self"][0] == (spans["end"] - spans["start"])[0] - sum(
        (spans["end"] - spans["start"])[1:]
    )


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    copy_dir = tmp_path / "perfbench"
    copy_dir.mkdir()
    for path in BENCH.glob("*.py"):
        (copy_dir / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(copy_dir / "run.py"), "--workload", "ablation-comm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
