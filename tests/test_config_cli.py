import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bohmctx import ConfigError, cli, svgplot
from bohmctx.cli import _write_overlaps_csv, write_outputs
from bohmctx.config import (CONFIG_TYPES, config_from_mapping, load_config,
                            parse_config_text, serialize_config)
from bohmctx.scenarios import run_scenario
from conftest import traced_peak


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
        assert back == cfg


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


@pytest.mark.parametrize("ramp, accepted", [(0.4, True), (0.401, False)])
def test_detector_ramp_must_be_whole_frame_steps(ramp, accepted):
    # the detector stage steps at the frame step, 0.002: the default ramp
    # is 200 steps, and a ramp end between two steps would put its kink
    # inside one RK4 step
    mapping = {"scenario": "beam_splitter", "detector_ramp_duration": ramp}
    if accepted:
        config_from_mapping(mapping)
    else:
        with pytest.raises(ConfigError, match="whole number of frame steps"):
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


@pytest.mark.parametrize("command, line", [
    ("stern-gerlach", "n = 20.5"),
    ("stern-gerlach", "n = abc"),
    ("stern-gerlach", "gordon = yes"),
    ("stern-gerlach", "seed = true"),
    ("beam-splitter", "grid_n = 512.5"),
    ("beam-splitter", "sigma = on"),
    ("ancilla", "N = 4.0"),
    ("optical-sg", "N_sweep = 1, four"),
    ("optical-sg", "record_stride = 0"),
    ("optical-sg", "record_stride = -2"),
    ("ancilla", "record_stride = 0"),
    ("beam-splitter", "record_stride = -3"),
    ("optical-sg", "N_sweep = 1.5, 4"),
    ("ancilla", "N_prime_sweep = 2.5, 4\nseparation_sweep = 0, 8"),
    ("ancilla", "N_prime_sweep = 1, 4"),
    ("ancilla", "separation_sweep = 0, 8"),
    ("optical-sg", "seed = -1"),
    ("stern-gerlach", "seed = -1"),
    ("ancilla", "N_prime_sweep = 0, 4\nseparation_sweep = 0"),
    ("optical-sg", "dt_traj = 0.003"),
    ("ancilla", "dt_traj = 0.003"),
    ("optical-sg", "system_sigma = 0.0"),
    ("ancilla", "ancilla_ramp_end = 0.6"),
    ("beam-splitter", "detector_ramp_duration = 0.0"),
    ("stern-gerlach", "grid_half_width = 2.0"),
], ids=["n_float", "n_word", "gordon_yes", "seed_bool", "grid_n_float",
        "sigma_word", "ancilla_N_float", "sweep_word", "osg_stride_0",
        "osg_stride_neg", "ancilla_stride_0", "bs_stride_neg",
        "N_sweep_float", "N_prime_sweep_float", "half_sweep_N_prime",
        "half_sweep_separation", "osg_seed_neg", "sg_seed_neg",
        "N_prime_sweep_zero", "osg_dt_traj", "ancilla_dt_traj",
        "osg_system_sigma_0", "ancilla_ramp_window", "bs_detector_ramp_0",
        "sg_narrow_grid"])
def test_cli_rejects_bad_config_value(tmp_path, capsys, command, line):
    # a value of the wrong type for its field, a record stride, seed or
    # ancilla count out of range, a trajectory step that does not divide
    # the run, or one ancilla sweep list without the other, is a config
    # error (exit 1) before anything runs: neither a Python traceback, nor
    # a silent truncation, reinterpretation or dropped sweep.  A value
    # that only the driver rejects (a zero width, a ramp of no duration, a
    # packet wider than its grid) exits 1 too, and no --out directory is
    # left behind either way
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"scenario = {cli.SUBCOMMANDS[command]}\n{line}\n")
    assert cli.main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_float_fields_keep_ints_as_written():
    # an int written for a float field stays an int, so summary.json keeps
    # its bytes ("sigma": 1, not 1.0)
    cfg = config_from_mapping(parse_config_text(
        "scenario = beam_splitter\nsigma = 1\n"))
    assert type(cfg.sigma) is int


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


def _strict_json(path):
    """The JSON document at path, rejecting NaN and Infinity as strict
    parsers do."""
    def reject(name):
        raise ValueError(f"{path.name} holds {name}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("command, lines, writes_trajectories, nulls", [
    ("beam-splitter", "grid_n = 512\ndt_traj = 0.0005", True, ()),
    ("stern-gerlach", "", True, ()),
    ("optical-sg", "N_sweep = 1, 4", False, ()),
    ("ancilla", "N_prime = 2\nN = 4", True, ()),
    # every outcome unresolved: each accuracy and radius of the sweep
    # tables is indeterminate and written as null
    ("optical-sg", "N_sweep = 4\ndisplacement = 0.0\nsystem_separation = 0.0",
     False, ("apparatus_accuracy", "apparatus_radius", "system_accuracy",
             "system_radius")),
    ("ancilla", "ancilla_displacement = 0.0\napparatus_displacement = 0.0\n"
     "N_prime_sweep = 4\nseparation_sweep = 0", False,
     ("acc_ancilla", "acc_apparatus", "acc_system")),
], ids=["beam_splitter", "stern_gerlach", "optical_sg", "ancilla",
        "optical_sg_unresolved", "ancilla_sweep_unresolved"])
def test_cli_writes_strict_json_and_the_listed_outputs(
        tmp_path, command, lines, writes_trajectories, nulls):
    # every .json output parses without NaN or Infinity, and the manifest
    # lists exactly the other files written; optical-sg and the sweeps
    # write no trajectories.csv
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"scenario = {cli.SUBCOMMANDS[command]}\nn = 20\n"
                        f"{lines}\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    docs = {p.name: _strict_json(p) for p in out.glob("*.json")}
    want = {"summary.json", "overlaps.csv"}
    if writes_trajectories:
        want.add("trajectories.csv")
    assert set(docs["manifest.json"]["outputs"]) == want
    assert {p.name for p in out.iterdir()} == want | {"manifest.json"}
    if nulls:
        report = docs["summary.json"]["report"]
        assert report["unresolved_fraction"] == 1.0
        audits = report["audits"]
        table = audits["sweep"] if "sweep" in audits \
            else audits["regime_table"][0]
        assert sorted(k for k, v in table.items()
                      if v in (None, [None])) == list(nulls)


@pytest.mark.parametrize("lines, plots", [
    ("N_sweep = 1, 4", {"accuracy_vs_N.svg", "overlaps_N1.svg",
                        "overlaps_N4.svg"}),
    # no entry resolves a run, so there is no accuracy to plot
    ("N_sweep = 4\ndisplacement = 0.0\nsystem_separation = 0.0",
     {"overlaps_N4.svg"}),
], ids=["resolved", "unresolved"])
def test_cli_plots_a_sweep_and_lists_the_files_written(tmp_path, lines,
                                                       plots):
    # --plot on a sweep exits 0 and the manifest lists exactly the files
    # written besides itself
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"scenario = optical_sg\nn = 20\n{lines}\n")
    out = tmp_path / "out"
    assert cli.main(["optical-sg", "--config", str(cfg_path), "--out",
                     str(out), "--plot"]) == 0
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert written == {"summary.json", "overlaps.csv", "overlaps.svg",
                       *plots}
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == sorted(written)


def test_line_plot_leaves_out_points_that_are_not_finite(tmp_path):
    # a NaN accuracy is left out of its series, and a plot of no finite
    # point is not written
    nan = float("nan")
    assert svgplot.line_plot(tmp_path / "got.svg",
                             [([1, 4, 16], [0.5, nan, 0.75], "a"),
                              ([1, 4, 16], [nan, nan, nan], "b")])
    assert svgplot.line_plot(tmp_path / "want.svg",
                             [([1, 16], [0.5, 0.75], "a"), ([], [], "b")])
    assert (tmp_path / "got.svg").read_bytes() \
        == (tmp_path / "want.svg").read_bytes()
    assert not svgplot.line_plot(tmp_path / "none.svg",
                                 [([1, 4], [nan, nan], "a")])
    assert not (tmp_path / "none.svg").exists()


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
    text = (out / "trajectories.json").read_text()
    data = json.loads(text)
    assert len(data["points"]) == 30
    assert len(data["times"]) == len(data["points"][0])
    # written one trajectory at a time, the file is the one json.dump of
    # the whole structure
    cfg = config_from_mapping({"scenario": "stern_gerlach", "seed": 2,
                               "n": 30})
    trajs = run_scenario(cfg).artifacts["trajectories"]
    whole = {"times": [float(t) for t in trajs[0].times],
             "points": [[list(map(float, row)) for row in tr.points]
                        for tr in trajs]}
    assert text == json.dumps(whole, indent=1, sort_keys=True) + "\n"


def test_write_outputs_holds_one_trajectory(tmp_path):
    # the pointer trajectories are rebuilt one at a time and written in
    # blocks of rows: writing every output of a run allocates less than
    # four times one trajectory's rows of trajectories.csv, where building
    # every trajectory first took about eight
    cfg = config_from_mapping({"scenario": "ancilla_chain", "n": 20})
    report = run_scenario(cfg)
    _, peak = traced_peak(write_outputs, report, cfg, tmp_path, "csv", False)
    table = (tmp_path / "trajectories.csv").stat().st_size / cfg.n
    assert peak < 4 * table


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


THREAD_RUNS = {
    "stern-gerlach": "scenario = stern_gerlach\ngordon = true\nn = 20\n"
                     "grid_n_y = 64\ngrid_n_z = 256\ndt = 0.008\n"
                     "n_steps = 250\n",
    # the default 2048-point grid: the longest reductions of any run
    # (overlap, spatial_overlap, center_width of every frame)
    "beam-splitter": "scenario = beam_splitter\nn = 10\ndt = 0.01\n"
                     "n_steps = 200\ndt_traj = 0.005\n",
}


def test_cli_determinism_across_threads(tmp_path):
    # the summary must not depend on the BLAS or OpenMP thread count; a
    # thread-split reduction would show up in overlap_series or the audits.
    # The Gordon run reduces only 1D arrays of at most 256 points, so the
    # beam splitter on its default 2048-point grid is run too
    for command, text in THREAD_RUNS.items():
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(text)
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / command / threads
            r = run_cli(command, "--config", str(cfg_path), "--seed", "3",
                        "--out", str(out),
                        env_extra={"OPENBLAS_NUM_THREADS": threads,
                                   "OMP_NUM_THREADS": threads})
            assert r.returncode == 0, r.stderr
            digests.append((out / "summary.json").read_bytes())
        assert digests[0] == digests[1], command


def test_cli_born_check(tmp_path):
    cfg_path = tmp_path / "osg.cfg"
    cfg_path.write_text("scenario = optical_sg\nseed = 5\n")
    out = tmp_path / "bc"
    r = run_cli("born-check", "--config", str(cfg_path), "--out", str(out))
    assert r.returncode == 0, r.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["born_check"]["n"] >= 2000
    assert summary["born_check"]["ks"] < 0.05


TINY_RUNS = {
    "beam-splitter": "scenario = beam_splitter\nn = 10\ngrid_n = 512\n"
                     "dt = 0.01\nn_steps = 200\ndt_traj = 0.005\n",
    "stern-gerlach": "scenario = stern_gerlach\ngordon = true\nn = 10\n"
                     "grid_n_y = 64\ngrid_n_z = 256\ndt = 0.008\n"
                     "n_steps = 250\n",
    "optical-sg": "scenario = optical_sg\nn = 20\nN_sweep = 1, 4\n",
    "ancilla": "scenario = ancilla_chain\nn = 20\nN_prime = 4\nN = 8\n",
}

NO_SCIPY_SCRIPT = """
import json, sys
from bohmctx import cli
args = sys.argv[1:]
codes = [cli.main([args[i], "--config", args[i + 1], "--out", args[i + 2]])
         for i in range(0, len(args), 3)]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")]))
"""


def test_cli_runs_never_import_scipy(tmp_path):
    # the transforms are numpy.fft's; scipy is only a test oracle
    args = []
    for sub, text in TINY_RUNS.items():
        cfg_path = tmp_path / f"{sub}.cfg"
        cfg_path.write_text(text)
        args += [sub, str(cfg_path), str(tmp_path / sub)]
    r = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, *args],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    codes, scipy_modules = json.loads(r.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(TINY_RUNS)
    assert scipy_modules == []


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
