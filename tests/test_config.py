import math
from pathlib import Path

import numpy as np
import pytest

from fastflock.config import (
    ConfigError,
    LayoutConfig,
    ScenarioConfig,
    initial_positions,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_all_shipped_configs_valid():
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        config = load_scenario(path)
        assert validate(config) == []


def test_defaults_validate():
    assert validate(ScenarioConfig()) == []


def test_errors_are_collected_not_first_only():
    with pytest.raises(ConfigError) as excinfo:
        scenario_from_dict(
            {
                "dt": -0.1,
                "duration": 0,
                "n_agents": 0,
                "sensors": {"dropout_prob": 1.5},
            }
        )
    message = str(excinfo.value)
    for expected in ("dt", "duration", "n_agents", "dropout_prob"):
        assert expected in message


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
])
def test_bad_values_raise_config_error(data, field):
    with pytest.raises(ConfigError) as excinfo:
        scenario_from_dict(data)
    assert field in str(excinfo.value)


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
        config = ScenarioConfig(n_agents=3)
        config.layout = LayoutConfig(kind="explicit", positions=[(0.0, 0.0)])
        assert any("explicit" in e for e in validate(config))


def test_round_trip_to_dict_and_back():
    config = load_scenario(CONFIG_DIR / "goal_approach.yaml")
    data = scenario_to_dict(config)
    rebuilt = scenario_from_dict(data)
    assert scenario_to_dict(rebuilt) == data
