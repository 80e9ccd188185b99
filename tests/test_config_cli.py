import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bohmctx import ConfigError
from bohmctx.cli import _write_overlaps_csv
from bohmctx.config import (CONFIG_TYPES, DEFAULTS, config_from_mapping,
                            config_to_mapping, load_config, parse_config_text,
                            serialize_config)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "bohmctx.cli", *args],
                          capture_output=True, text=True, env=env)


# -- config format --------------------------------------------------------------

def test_parse_basic_types():
    parsed = parse_config_text(
        "scenario = stern_gerlach\n"
        "# a comment\n"
        "seed = 7\n"
        "gradient = -8.0\n"
        "gordon = true\n"
        "  \n")
    assert parsed == {"scenario": "stern_gerlach", "seed": 7,
                      "gradient": -8.0, "gordon": True}


def test_parse_lists():
    parsed = parse_config_text("N_sweep = 1, 4, 16, 64\n")
    assert parsed["N_sweep"] == [1, 4, 16, 64]


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")


def test_round_trip_all_scenarios():
    for name, cls in CONFIG_TYPES.items():
        cfg = cls()
        text = serialize_config(cfg)
        back = config_from_mapping(parse_config_text(text))
        assert config_to_mapping(back) == config_to_mapping(cfg)


def test_round_trip_with_overrides():
    cfg = config_from_mapping({"scenario": "optical_sg", "seed": 99,
                               "N_sweep": [2, 8], "displacement": 3.25})
    back = config_from_mapping(parse_config_text(serialize_config(cfg)))
    assert back.seed == 99
    assert back.N_sweep == [2, 8]
    assert back.displacement == 3.25


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping({"scenario": "stern_gerlach", "bogus_knob": 3})


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping({"scenario": "double_slit"})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping({"scenario": "stern_gerlach", "alpha": 0.9,
                             "beta": 0.9})


@pytest.mark.parametrize("mapping", [
    {"scenario": "beam_splitter", "frame_stride": 0},
    {"scenario": "beam_splitter", "frame_stride": 7},
    {"scenario": "stern_gerlach", "frame_stride": 0},
    {"scenario": "stern_gerlach", "n_steps": 0},
], ids=["bs_stride_0", "bs_stride_7", "sg_stride_0", "sg_no_steps"])
def test_frame_stride_rejected_unless_it_divides_n_steps(mapping):
    # the grid drivers size their per-frame arrays from the frame stride
    with pytest.raises(ConfigError):
        config_from_mapping(mapping)


@pytest.mark.parametrize("mapping, message", [
    ({"scenario": "beam_splitter", "dt_traj": 0.0}, "positive"),
    ({"scenario": "beam_splitter", "dt_traj": 0.003}, "frame spacing"),
    ({"scenario": "beam_splitter", "dt_traj": 0.0015}, "divide the frame span"),
    ({"scenario": "beam_splitter", "record_stride": 3}, "record_stride"),
    ({"scenario": "beam_splitter", "dt_traj": 2 / 1875}, "record_stride"),
    ({"scenario": "stern_gerlach", "dt_traj": 0.011}, "frame spacing"),
    ({"scenario": "stern_gerlach", "gordon": True, "dt_traj": 0.003},
     "divide the frame span"),
], ids=["bs_zero", "bs_above_frame_dt", "bs_not_dividing", "bs_record_stride",
        "bs_frame_record_stride", "sg_above_frame_dt", "sg_2d_not_dividing"])
def test_trajectory_step_rejected_by_validate(mapping, message):
    # frames 0.002 (beam splitter) and 0.01 (Stern-Gerlach) apart over
    # T = 2; the default beam-splitter record stride is the steps per
    # frame, round(1.875) = 2 at dt_traj 2 / 1875, which does not divide
    # the 1875 steps
    with pytest.raises(ConfigError, match=message):
        config_from_mapping(mapping)


def test_cli_rejects_trajectory_step_before_propagating(tmp_path,
                                                        monkeypatch, capsys):
    from bohmctx import cli, scenarios

    def no_propagation(*args, **kwargs):
        raise AssertionError("propagate called")

    monkeypatch.setattr(scenarios, "propagate", no_propagation)
    cfg_path = tmp_path / "bs.cfg"
    cfg_path.write_text("scenario = beam_splitter\ndt_traj = 0.003\n")
    assert cli.main(["beam-splitter", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1
    assert "dt_traj must not exceed the frame spacing" in capsys.readouterr().err


def test_defaults_table_covers_dataclasses():
    for name, cls in CONFIG_TYPES.items():
        cfg = cls()
        for key, value in DEFAULTS[name].items():
            assert getattr(cfg, key) == value


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


# -- CLI --------------------------------------------------------------------------

def test_cli_stern_gerlach_outputs(tmp_path):
    out = tmp_path / "run1"
    r = run_cli("stern-gerlach", "--seed", "7", "--trajectories", "60",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "overlaps.csv", "summary.json",
                     "trajectories.csv"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 7
    assert summary["report"]["n_runs"] == 60
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"summary.json", "trajectories.csv",
                                        "overlaps.csv"}
    assert manifest["duration_seconds"] > 0
    assert manifest["peak_rss_mb"] > 0
    # trajectory rows: one per (trajectory, stored time) plus the header
    lines = (out / "trajectories.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["trajectory_id", "t", "x", "regularized_flag"]
    n_times = len({line.split(",")[1] for line in lines[1:]})
    assert len(lines) - 1 == 60 * n_times


def test_cli_config_file_and_plot(tmp_path):
    cfg_path = tmp_path / "sg.cfg"
    cfg_path.write_text("scenario = stern_gerlach\nseed = 3\n"
                        "ensemble_size = 40\n".replace("ensemble_size", "n"))
    out = tmp_path / "run2"
    r = run_cli("stern-gerlach", "--config", str(cfg_path), "--out", str(out),
                "--plot")
    assert r.returncode == 0, r.stderr
    assert (out / "overlaps.svg").exists()
    svg = (out / "overlaps.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_cli_json_trajectory_format(tmp_path):
    out = tmp_path / "runj"
    r = run_cli("stern-gerlach", "--seed", "2", "--trajectories", "30",
                "--out", str(out), "--format", "json")
    assert r.returncode == 0, r.stderr
    data = json.loads((out / "trajectories.json").read_text())
    assert len(data["points"]) == 30
    assert len(data["times"]) == len(data["points"][0])


def test_cli_missing_config_is_config_error():
    r = run_cli("stern-gerlach", "--config", "/definitely/not/here.cfg")
    assert r.returncode == 1
    assert "/definitely/not/here.cfg" in r.stderr


def test_cli_wrong_scenario_config(tmp_path):
    cfg_path = tmp_path / "bs.cfg"
    cfg_path.write_text("scenario = beam_splitter\n")
    r = run_cli("stern-gerlach", "--config", str(cfg_path))
    assert r.returncode == 1


def test_cli_unknown_subcommand():
    r = run_cli("teleport")
    assert r.returncode == 1


def test_cli_numerical_failure_exit_code(tmp_path):
    cfg_path = tmp_path / "weak.cfg"
    cfg_path.write_text("scenario = stern_gerlach\ngradient = 0.1\nn = 10\n")
    r = run_cli("stern-gerlach", "--config", str(cfg_path),
                "--out", str(tmp_path / "x"))
    assert r.returncode == 2


def test_cli_determinism_across_threads(tmp_path):
    # a 2D Gordon grid is large enough for OpenBLAS to split a dot product
    # across threads, so any BLAS reduction would show up in overlap_series
    cfg_path = tmp_path / "gordon.cfg"
    cfg_path.write_text("scenario = stern_gerlach\ngordon = true\nn = 20\n"
                        "grid_n_y = 64\ngrid_n_z = 256\ndt = 0.008\n"
                        "n_steps = 250\n")
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        r = run_cli("stern-gerlach", "--config", str(cfg_path), "--seed", "3",
                    "--out", str(out),
                    env_extra={"OPENBLAS_NUM_THREADS": threads})
        assert r.returncode == 0, r.stderr
        digests.append((out / "summary.json").read_bytes())
    assert digests[0] == digests[1]


def test_cli_born_check(tmp_path):
    cfg_path = tmp_path / "osg.cfg"
    cfg_path.write_text("scenario = optical_sg\nseed = 5\n")
    out = tmp_path / "bc"
    r = run_cli("born-check", "--config", str(cfg_path), "--out", str(out))
    assert r.returncode == 0, r.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["born_check"]["n"] >= 2000
    assert summary["born_check"]["ks"] < 0.05


def test_overlaps_csv_matches_csv_module(tmp_path):
    rng = np.random.default_rng(4)
    series = {"t": np.linspace(0.0, 1.0, 7), "system": rng.random(7),
              "apparatus": list(rng.random(7) * 1e-300)}
    _write_overlaps_csv(tmp_path / "got.csv", series)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "system", "apparatus"])
        for i, t in enumerate(series["t"]):
            writer.writerow([repr(float(t)),
                             *(repr(float(series[k][i]))
                               for k in ("system", "apparatus"))])
    assert (tmp_path / "got.csv").read_bytes() \
        == (tmp_path / "want.csv").read_bytes()
