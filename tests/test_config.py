import copy
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fastflock import config
from fastflock.config import (
    ConfigError,
    LayoutConfig,
    ScenarioConfig,
    initial_positions,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from fastflock.engine import Simulation

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
WORKLOAD_DIR = CONFIG_DIR.parent / "perfbench" / "workloads"
GAINS = {"kp": 0.8, "kv": 0.5, "cruise_speed": 5.0, "d_min": 15.0,
         "d_max": 40.0, "spacing": 13.0}


def test_all_shipped_configs_valid():
    paths = sorted(CONFIG_DIR.glob("*.yaml"))
    assert len(paths) == 5
    for path in paths:
        assert isinstance(load_scenario(path), ScenarioConfig)


# The settable fields that no shipped config or benchmark workload writes,
# each with the reason it stays settable.
UNWRITTEN_FIELDS = {
    "layout.positions": "the tests' explicit layouts",
    "gains.bearing_scale": "a study arm of ROADMAP item 3",
    "filters.vel_sigma_comm": "a study arm of ROADMAP item 7",
    "filters.vel_sigma_inferred": "a study arm of ROADMAP item 2",
    "sensors.comm.latency_ticks": "a study arm of ROADMAP item 7",
    "sensors.comm.drop_prob": "a study arm of ROADMAP item 7",
}


def _settable(cls, prefix=""):
    """The path of every settable leaf field of `cls`, into its sections."""
    for entry in dataclasses.fields(cls):
        path = f"{prefix}.{entry.name}" if prefix else entry.name
        if path in config._SECTIONS:
            yield from _settable(config._SECTIONS[path], path)
        else:
            yield path


def _written(node, prefix=""):
    """The path of every leaf a scenario mapping writes."""
    for key, value in node.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from _written(value, path)
        else:
            yield path


def test_every_setting_is_written_or_allowed():
    # A field that nothing sets is a constant; it belongs in the module
    # that reads it.
    written = set()
    for path in [*CONFIG_DIR.glob("*.yaml"), *WORKLOAD_DIR.glob("*.yaml")]:
        written.update(_written(yaml.safe_load(path.read_text())))
    unwritten = {path for path in _settable(ScenarioConfig)
                 if path not in written}
    assert unwritten == set(UNWRITTEN_FIELDS)


def test_defaults_validate():
    assert scenario_from_dict({}) == ScenarioConfig()


def test_errors_are_collected_not_first_only():
    cases = [
        ({"dt": -0.1, "duration": 0, "n_agents": 0,
          "sensors": {"dropout_prob": 1.5}},
         ("dt", "duration", "n_agents", "dropout_prob")),
        # Several broken rules within one section are each reported.
        ({"sensors": {"fov": 9.0, "dropout_prob": 2.0, "heading_mode": "up"},
          "gains": {**GAINS, "kp": -1, "d_min": 50}},
         ("sensors.fov", "sensors.dropout_prob", "sensors.heading_mode",
          "gains.kp", "gains.d_min")),
    ]
    for data, fields in cases:
        with pytest.raises(ConfigError) as excinfo:
            scenario_from_dict(data)
        message = str(excinfo.value)
        for expected in fields:
            assert expected in message, (expected, message)


@pytest.mark.parametrize("data, field", [
    ({"n_agents": "6"}, "n_agents"),
    ({"n_agents": 2.5}, "n_agents"),
    ({"n_agents": True}, "n_agents"),
    ({"dt": "0.05"}, "dt"),
    ({"dt": True}, "dt"),
    ({"duration": math.inf}, "duration"),
    ({"safety_radius": math.nan}, "safety_radius"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.0}, "seed"),
    ({"comm": "no"}, "comm"),
    ({"name": 7}, "name"),
    ({"sensors": [1]}, "sensors"),
    ({"sensors": {"vio": 3}}, "sensors.vio"),
    ({"gains": "x"}, "gains"),
    ({"response_model": [0.9, 0.1]}, "response_model"),
    ({"layout": {"kind": "grid", "spacing": -13.0}}, "spacing"),
    ({"layout": {"kind": "ring", "spacing": -13.0}}, "spacing"),
    ({"sensors": {"bearing_sigma": "x"}}, "sensors.bearing_sigma"),
    ({"plant": {"tau": "x"}}, "plant.tau"),
    ({"sensors": {"comm": {"latency_ticks": "x"}}}, "latency_ticks"),
    ({"filters": {"track_q_rate": [1, 2]}}, "unknown field 'track_q_rate'"),
    ({"filters": {"focal_q_rate": [0, 0, 0, 0, 0, -1]}},
     "unknown field 'focal_q_rate'"),
    ({"target": {"position": [1, 2, 3]}}, "target.position"),
    ({"gains": {**GAINS, "max_neighbors": 2.5}}, "gains.max_neighbors"),
    ({"filters": {"fix_sigma": 0}}, "unknown field 'fix_sigma'"),
    ({"filters": {"vel_sigma_comm": 0}}, "filters.vel_sigma_comm"),
    ({"gains": {**GAINS, "kp": math.nan}}, "gains.kp"),
    ({"sensors": {"max_range": "x"}}, "sensors.max_range"),
    ({"gains": {**GAINS, "max_neighbors": -1}}, "gains.max_neighbors"),
    ({"sensors": {"comm": {"latency_ticks": 1.5}}}, "latency_ticks"),
    ({"response_model": {"a": "x", "b": 0.1}}, "response_model.a"),
    # A partial override is no model, with comm off too.
    ({"comm": False, "response_model": {"a": 0.9}}, "response_model"),
    ({"sensors": {"comm": {"enabled": False}}}, "unknown field 'enabled'"),
    ({"duration": 0.05}, "two ticks"),  # one tick of the default dt
    ({"duration": 0.01}, "two ticks"),  # none
    # The self-state filter's command input would round to zero.
    ({"plant": {"tau": 1e300}}, "plant.tau"),
    # The self-state lag is the plant's, and the ranges derive from spacing.
    ({"filters": {"focal_tau": 0.5}}, "unknown field 'focal_tau'"),
    ({"gains": {**GAINS, "attract_range": 20.0}}, "unknown field 'attract_range'"),
    # The VIO emulator draws no acceleration.
    ({"sensors": {"vio": {"accel_sigma": 0.2}}}, "unknown field 'accel_sigma'"),
    # A negative speed would run a static target's path backwards.
    ({"target": {"kind": "static", "speed": -1.0}}, "target.speed"),
    # R = sigma^2 I, whose determinant sigma^4 would round to 0.
    ({"filters": {"vel_sigma_inferred": 4e-237}}, "filters.vel_sigma_inferred"),
])
def test_bad_values_raise_config_error(data, field):
    with pytest.raises(ConfigError) as excinfo:
        scenario_from_dict(data)
    assert field in str(excinfo.value)


def _numeric_leaves(node, path=()):
    """Paths to every number (not a bool) inside nested mappings and lists."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from _numeric_leaves(child, path + (key,))


@pytest.mark.parametrize("bad", ["x", math.nan])
def test_every_numeric_leaf_rejects_non_numbers(bad):
    data = yaml.safe_load((CONFIG_DIR / "ablation.yaml").read_text())
    leaves = list(_numeric_leaves(data))
    assert len(leaves) >= 20
    accepted = []
    for path in leaves:
        broken = copy.deepcopy(data)
        node = broken
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        try:
            scenario_from_dict(broken)
        except ConfigError as exc:
            name = next(k for k in reversed(path) if isinstance(k, str))
            assert name in str(exc), (path, str(exc))
        else:
            accepted.append(path)
    assert accepted == []


@pytest.mark.parametrize("text", ["name: [unclosed\n", "dt: 0.05\n  - x: 1\n"])
def test_malformed_yaml_raises_config_error(tmp_path, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match="bad.yaml"):
        load_scenario(path)


def test_exponent_without_a_dot_loads_as_a_float(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("dt: 5e-2\n")
    assert load_scenario(path).dt == 0.05
    path.write_text("n_agents: 1e3\n")
    with pytest.raises(ConfigError, match="n_agents must be an integer"):
        load_scenario(path)
    # Scalars that are no such float load as the safe loader has them.
    for text in ["0x1F", "yes", "~", "1_000", "12:30", "5e", "e5"]:
        assert (yaml.load(f"v: {text}", Loader=config._Loader)
                == yaml.safe_load(f"v: {text}")), text


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError, match="missing.yaml"):
        load_scenario(tmp_path / "missing.yaml")


def test_null_section_keeps_its_default():
    config = scenario_from_dict({"layout": None, "sensors": {"vio": None}})
    assert config.layout == ScenarioConfig().layout
    assert config.sensors == ScenarioConfig().sensors


def test_unknown_fields_reported():
    with pytest.raises(ConfigError, match="unknown"):
        scenario_from_dict({"gains": {"kp": 1.0, "bogus": 2}})
    with pytest.raises(ConfigError, match="unknown top-level"):
        scenario_from_dict({"bogus_section": {}})


def test_safety_radius_layout_conflict():
    with pytest.raises(ConfigError, match="safety"):
        scenario_from_dict(
            {
                "n_agents": 2,
                "safety_radius": 5.0,
                "layout": {
                    "kind": "explicit",
                    "positions": [[0.0, 0.0], [1.0, 0.0]],
                },
            }
        )


def test_waypoint_target_needs_points_and_speed():
    with pytest.raises(ConfigError) as excinfo:
        scenario_from_dict({"target": {"kind": "waypoints"}})
    assert "waypoints" in str(excinfo.value)
    assert "speed" in str(excinfo.value)


class TestLayouts:
    def test_grid_spacing(self):
        config = ScenarioConfig(n_agents=6)
        config.layout = LayoutConfig(kind="grid", spacing=13.0)
        positions = initial_positions(config)
        assert len(positions) == 6
        gaps = [
            np.linalg.norm(a - b)
            for i, a in enumerate(positions)
            for b in positions[i + 1:]
        ]
        assert min(gaps) == pytest.approx(13.0)

    def test_ring_adjacent_spacing(self):
        config = ScenarioConfig(n_agents=5)
        config.layout = LayoutConfig(kind="ring", spacing=13.0)
        positions = initial_positions(config)
        for i in range(5):
            gap = np.linalg.norm(positions[i] - positions[(i + 1) % 5])
            assert gap == pytest.approx(13.0)

    def test_explicit_positions_with_origin(self):
        config = ScenarioConfig(n_agents=2)
        config.layout = LayoutConfig(
            kind="explicit", origin=(10.0, 0.0),
            positions=[(0.0, 0.0), (5.0, 0.0)],
        )
        positions = initial_positions(config)
        assert np.allclose(positions[1], [15.0, 0.0])

    def test_explicit_count_mismatch(self):
        with pytest.raises(ConfigError, match="explicit"):
            scenario_from_dict({"n_agents": 3, "layout": {
                "kind": "explicit", "positions": [[0.0, 0.0]]}})


def test_round_trip_to_dict_and_back():
    config = load_scenario(CONFIG_DIR / "goal_approach.yaml")
    data = scenario_to_dict(config)
    rebuilt = scenario_from_dict(data)
    assert scenario_to_dict(rebuilt) == data


# Replacement values for one field of a valid mapping: wrong types, special
# floats, out-of-range and boundary numbers. Integers stay small, so that no
# draw asks for a large swarm.
_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.text(max_size=4),
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, math.nan, math.inf, 1e-12]),
    st.lists(st.floats(-50.0, 50.0), max_size=7),
    st.lists(st.lists(st.floats(-50.0, 50.0), max_size=3), max_size=4),
    st.dictionaries(st.sampled_from(["kind", "a", "kp"]), st.integers(0, 3),
                    max_size=2),
)


def _paths(node, path=()):
    """Every key path inside nested mappings."""
    for key, child in node.items():
        yield path + (key,)
        if isinstance(child, dict):
            yield from _paths(child, path + (key,))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fuzzed_mappings_raise_config_error_or_run_a_tick(data):
    # Every field, the defaults included, so that each can be drawn.
    base = scenario_to_dict(load_scenario(CONFIG_DIR / "ablation.yaml"))
    base["n_agents"] = 4
    paths = list(_paths(base)) + [("bogus",), ("gains", "bogus")]
    broken = copy.deepcopy(base)
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1,
                                   max_size=3)):
        node = broken
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                break
            node = node[key]
        else:
            node[path[-1]] = data.draw(_FUZZ_VALUES)
    for comm in (True, False):
        try:
            config = scenario_from_dict({**broken, "comm": comm})
        except ConfigError:
            continue
        Simulation(config).tick()
