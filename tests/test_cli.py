import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from fastflock.cli import main
from fastflock.config import load_scenario, scenario_to_dict

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def tiny_config(tmp_path):
    data = {
        "seed": 3,
        "dt": 0.05,
        "duration": 3.0,
        "n_agents": 3,
        "layout": {"kind": "ring", "spacing": 13.0},
        "gains": {"kp": 0.8, "kv": 0.5, "cruise_speed": 5.0, "d_min": 15.0,
                  "d_max": 40.0, "spacing": 13.0},
        "target": {"kind": "static", "position": [100.0, 0.0]},
        "response_model": {"a": 0.9048374180359595, "b": 0.09516258196404048},
    }
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def test_validate_ok(capsys):
    assert main(["validate", str(CONFIG_DIR / "goal_approach.yaml")]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_reports_all_errors(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("dt: -1\nn_agents: 0\n")
    assert exit_code(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "dt" in err and "n_agents" in err


def test_validate_rejects_mistyped_values(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text('n_agents: "6"\nduration: .inf\nsensors: [1]\n')
    assert exit_code(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "n_agents" in err and "duration" in err and "sensors" in err


def test_run_writes_artifacts(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(tiny_config), "--out", str(out)]) == 0
    assert (out / "log.jsonl").exists()
    assert (out / "summary.json").exists()
    assert (out / "trajectories.csv").exists()
    assert (out / "fusion_weights.csv").exists()
    assert (out / "cvr.csv").exists()


def test_run_seed_override_changes_log(tiny_config, tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    main(["run", str(tiny_config), "--out", str(out1)])
    main(["run", str(tiny_config), "--out", str(out2), "--seed", "99"])
    main(["run", str(tiny_config), "--out", str(out3)])
    assert (out1 / "log.jsonl").read_bytes() != (out2 / "log.jsonl").read_bytes()
    assert (out1 / "log.jsonl").read_bytes() == (out3 / "log.jsonl").read_bytes()


def test_run_no_comm_exports_velocity_estimates(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(tiny_config), "--no-comm", "--out", str(out)]) == 0
    assert (out / "velocity_estimates.csv").exists()
    paths = sorted(out.glob("*.csv"))
    assert len(paths) == 4
    for path in paths:
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert table.size and np.all(np.isfinite(table)), path.name


def test_metrics_recomputes_from_log(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", str(tiny_config), "--out", str(out)])
    capsys.readouterr()
    assert main(["metrics", str(out / "log.jsonl")]) == 0
    recomputed = json.loads(capsys.readouterr().out)
    stored = json.loads((out / "summary.json").read_text())
    assert recomputed == stored


def test_ablate_prints_pairs(tiny_config, capsys):
    assert main(["ablate", str(tiny_config), "--pairs", "1"]) == 0
    out = capsys.readouterr().out
    assert "sigma_d(no-comm)" in out


@pytest.fixture
def single_agent_config(tiny_config):
    data = yaml.safe_load(tiny_config.read_text())
    data.update(n_agents=1, duration=1.0)
    tiny_config.write_text(yaml.safe_dump(data))
    return tiny_config


def test_run_single_agent_prints_na(single_agent_config, capsys):
    assert main(["run", str(single_agent_config)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("cvr=")
    assert "d_n=n/a" in line and "sigma_d=n/a" in line


def test_ablate_single_agent_prints_na(single_agent_config, capsys):
    assert main(["ablate", str(single_agent_config), "--pairs", "1"]) == 0
    out = capsys.readouterr().out
    assert "n/a" in out
    assert "in 0/1 pairs" in out


def test_ablate_comm_summary_matches_run(tiny_config, tmp_path, capsys):
    pairs, plain = tmp_path / "ablate", tmp_path / "run"
    assert main(["ablate", str(tiny_config), "--pairs", "1",
                 "--out", str(pairs)]) == 0
    assert main(["run", str(tiny_config), "--out", str(plain)]) == 0
    (pair,) = json.loads((pairs / "ablation.json").read_text())
    summary = json.loads((plain / "summary.json").read_text())
    assert pair["seed"] == 3
    assert pair["comm"] == summary
    assert pair["no_comm"] != summary
    assert isinstance(pair["no_comm"]["neighbor_distance_std"]
                      - pair["comm"]["neighbor_distance_std"], float)


def test_ablate_single_agent_has_no_distance_std(single_agent_config,
                                                 tmp_path, capsys):
    out = tmp_path / "ablate"
    assert main(["ablate", str(single_agent_config), "--pairs", "1",
                 "--out", str(out)]) == 0
    assert "n/a" in capsys.readouterr().out
    (pair,) = json.loads((out / "ablation.json").read_text())
    assert pair["comm"]["neighbor_distance_std"] is None
    assert pair["no_comm"]["neighbor_distance_std"] is None


def exit_code(argv) -> int:
    """What `fastflock <argv>` exits with, whether main returns the code or
    raises SystemExit with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def modelless_config(tiny_config):
    data = yaml.safe_load(tiny_config.read_text())
    del data["response_model"]
    tiny_config.write_text(yaml.safe_dump(data))
    return tiny_config


def test_run_rejects_negative_seed_override(tiny_config, capsys):
    assert exit_code(["run", str(tiny_config), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_comm_off_without_response_model_is_valid(modelless_config):
    data = yaml.safe_load(modelless_config.read_text())
    data["comm"] = False
    modelless_config.write_text(yaml.safe_dump(data))
    assert exit_code(["validate", str(modelless_config)]) == 0
    assert exit_code(["run", str(modelless_config)]) == 0


@pytest.mark.parametrize("duration", [0.05, 0.01])
def test_run_shorter_than_two_ticks_is_invalid(tiny_config, tmp_path, duration,
                                               capsys):
    data = yaml.safe_load(tiny_config.read_text())
    data["duration"] = duration
    tiny_config.write_text(yaml.safe_dump(data))
    assert exit_code(["run", str(tiny_config), "--out", str(tmp_path / "out")]) == 2
    assert "two ticks" in capsys.readouterr().err


def test_run_no_comm_without_response_model_flies_the_plant_model(
        tiny_config, tmp_path):
    # The tiny config's model is the plant's own, so deriving it flies the
    # same flight.
    given, derived = tmp_path / "given", tmp_path / "derived"
    assert exit_code(["run", str(tiny_config), "--no-comm",
                      "--out", str(given)]) == 0
    data = yaml.safe_load(tiny_config.read_text())
    del data["response_model"]
    tiny_config.write_text(yaml.safe_dump(data))
    assert exit_code(["run", str(tiny_config), "--no-comm",
                      "--out", str(derived)]) == 0
    for name in ("log.jsonl", "summary.json", "velocity_estimates.csv"):
        assert (derived / name).read_bytes() == (given / name).read_bytes()


def test_ablate_without_response_model_runs(modelless_config, capsys):
    assert exit_code(["ablate", str(modelless_config), "--pairs", "1"]) == 0
    assert "sigma_d(no-comm)" in capsys.readouterr().out


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_ablate_rejects_fewer_than_one_pair(tiny_config, pairs):
    assert exit_code(["ablate", str(tiny_config), "--pairs", pairs]) == 2


@pytest.mark.parametrize("command", ["validate", "run"])
def test_unreadable_configs_exit_2(tmp_path, command, capsys):
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("name: [unclosed\n")
    assert exit_code([command, str(malformed)]) == 2
    assert exit_code([command, str(tmp_path / "missing.yaml")]) == 2
    err = capsys.readouterr().err
    assert "malformed.yaml" in err and "missing.yaml" in err


def test_metrics_on_missing_log_exits_2(tmp_path, capsys):
    assert exit_code(["metrics", str(tmp_path / "missing.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "missing.jsonl" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text", ["not json\n", "[1, 2]\n",
                                  '{"record": "tick"}\n',
                                  '{"record": "header"}\n',
                                  '{"record": "header", "config": 1}\n',
                                  None])
def test_metrics_on_malformed_log_exits_2(tmp_path, capsys, text):
    if text is None:
        # A valid header followed by a tick without agent fragments.
        config = scenario_to_dict(load_scenario(CONFIG_DIR / "hover.yaml"))
        text = (json.dumps({"record": "header", "format_version": 1,
                            "config": config})
                + '\n{"record": "tick", "agents": {}}\n')
    log = tmp_path / "bad.jsonl"
    log.write_text(text)
    assert exit_code(["metrics", str(log)]) == 2
    err = capsys.readouterr().err
    assert "bad.jsonl" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("field, value", [("p", [None, 1.0]),
                                          ("vio_w", None),
                                          ("est_v", [1.0, "fast"])])
def test_metrics_on_a_field_that_is_not_a_number_exits_2(
        tiny_config, tmp_path, capsys, field, value):
    out = tmp_path / "out"
    main(["run", str(tiny_config), "--out", str(out)])
    records = [json.loads(line)
               for line in (out / "log.jsonl").read_text().splitlines()]
    records[5]["agents"]["1"][field] = value
    log = tmp_path / "bad.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert exit_code(["metrics", str(log)]) == 2
    err = capsys.readouterr().err
    assert "bad.jsonl" in err and len(err.strip().splitlines()) == 1
