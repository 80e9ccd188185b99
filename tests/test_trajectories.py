import csv

import numpy as np
import pytest
from scipy.stats import kstest

from bohmctx import (ComplexField, ConfigError, GaussianPacketSpec,
                     PotentialSpec, make_gaussian, propagate,
                     sample_equilibrium)
from bohmctx.analysis import audit_trajectories, grid_cdf
from bohmctx import trajectories
from bohmctx.guidance import build_stacks, current_and_density
from bohmctx.trajectories import (FrameStream, GridEnsembleResult,
                                  Trajectory, integrate_over_stacks,
                                  write_trajectories_csv)
from conftest import assert_same_trajectories, propagate_frames


def plane_wave_frames(grid, k, t_final, n_frames):
    L = grid.x_max - grid.x_min
    x = grid.axis()
    times = np.linspace(0.0, t_final, n_frames)
    frames = [ComplexField(grid, np.exp(1j * (k * x - 0.5 * k * k * t)) / np.sqrt(L))
              for t in times]
    return frames, times


def test_plane_wave_trajectories_exact(line_grid):
    k = 2 * np.pi * 7 / 40.0
    frames, times = plane_wave_frames(line_grid, k, 2.0, 21)
    x0s = [-3.0, 0.25, 5.5]
    trajs = integrate_over_stacks(build_stacks(frames, times),
                                  np.c_[x0s], 0.01)
    for tr, x0 in zip(trajs, x0s):
        assert abs(tr.points[-1, 0] - (x0 + k * 2.0)) <= 1e-10
        assert len(tr.times) == 201


def test_spreading_gaussian_center_stays(unit_gaussian):
    prop = propagate_frames(unit_gaussian, PotentialSpec.free(), 0.01, 200,
                            frame_stride=2)
    trajs = integrate_over_stacks(build_stacks(prop.frames, prop.times),
                                  np.zeros((1, 1)), 0.01)
    assert np.abs(trajs[0].points[:, 0]).max() <= 1e-8


def test_equivariance_free_gaussian(line_grid, unit_gaussian):
    # endpoints of an equilibrium ensemble follow |psi(T)|^2
    prop = propagate_frames(unit_gaussian, PotentialSpec.free(), 0.01, 200,
                            frame_stride=2)
    positions = sample_equilibrium(unit_gaussian, 2000, seed=21)
    trajs = integrate_over_stacks(build_stacks(prop.frames, prop.times),
                                  positions, 0.01)
    ref = grid_cdf(line_grid.axis(), prop.final.density(), line_grid.dx)
    stat = kstest(trajs.final_points()[:, 0], ref).statistic
    assert stat < 0.05


def test_no_crossing_free_gaussian(line_grid, unit_gaussian):
    prop = propagate_frames(unit_gaussian, PotentialSpec.free(), 0.01, 200,
                            frame_stride=2)
    positions = sample_equilibrium(unit_gaussian, 400, seed=3)
    trajs = integrate_over_stacks(build_stacks(prop.frames, prop.times),
                                  positions, 0.005)
    assert audit_trajectories(trajs) == 0


def test_mirror_symmetry(line_grid, unit_gaussian):
    prop = propagate_frames(unit_gaussian, PotentialSpec.free(), 0.01, 200,
                            frame_stride=2)
    trajs = integrate_over_stacks(build_stacks(prop.frames, prop.times),
                                  np.array([[1.3], [-1.3]]), 0.005)
    assert np.abs(trajs[0].points[:, 0] + trajs[1].points[:, 0]).max() <= 1e-6


def test_step_size_robustness(line_grid, unit_gaussian):
    prop = propagate_frames(unit_gaussian, PotentialSpec.free(), 0.01, 200,
                            frame_stride=2)
    positions = sample_equilibrium(unit_gaussian, 100, seed=8)
    stacks = build_stacks(prop.frames, prop.times)
    coarse = integrate_over_stacks(stacks, positions, 0.01)
    fine = integrate_over_stacks(stacks, positions, 0.005)
    delta = np.abs(coarse.final_points() - fine.final_points()).max()
    assert delta < 1e-4


def test_domain_exit_marks_failed(line_grid):
    k = 2 * np.pi * 30 / 40.0  # fast mover
    frames, times = plane_wave_frames(line_grid, k, 4.0, 41)
    trajs = integrate_over_stacks(build_stacks(frames, times),
                                  np.array([[18.0]]), 0.01)
    assert trajs[0].failed
    assert trajs[0].exit_time is not None and trajs[0].exit_time > 0


@pytest.mark.parametrize("dt_traj, record_stride", [(0.01, 1), (0.004, 5)],
                         ids=["frame_step", "2.5_steps_per_frame"])
def test_frame_stream_equals_stored_stacks_past_the_grid_edge(
        line_grid, dt_traj, record_stride):
    # a fast packet carries some trajectories out of the grid; integrated
    # while the frames (5 steps apart) arrive, they fail, are clamped and
    # get their exit times bitwise as over the stored stacks
    psi = make_gaussian(line_grid, GaussianPacketSpec.make(10.0, 1.0, 8.0))
    dt, n_steps, frame_stride = 0.002, 500, 5
    positions = np.array([[8.0], [10.0], [12.0], [13.0], [14.0]])
    times = np.arange(n_steps // frame_stride + 1) * frame_stride * dt
    stream = FrameStream(line_grid, times, positions, dt_traj, record_stride)

    def feed(step, t, state):
        rho, g = current_and_density(state)
        stream.add(step // frame_stride, rho, g)

    propagate(psi, PotentialSpec.free(), dt, n_steps,
              frame_stride=frame_stride, support_guard=False, observer=feed)
    prop = propagate_frames(psi, PotentialSpec.free(), dt, n_steps,
                            frame_stride=frame_stride, support_guard=False)
    ref = integrate_over_stacks(
        build_stacks(prop.frames, prop.times),
        positions, dt_traj, record_stride)
    assert 0 < sum(tr.failed for tr in ref) < len(ref)
    assert_same_trajectories(stream.flow.trajectories, ref)


def test_dt_exceeding_frame_spacing_rejected(line_grid, unit_gaussian):
    prop = propagate_frames(unit_gaussian, PotentialSpec.free(), 0.01, 100,
                            frame_stride=10)
    with pytest.raises(ConfigError):
        integrate_over_stacks(build_stacks(prop.frames, prop.times),
                              np.zeros((1, 1)), 0.5)


def _csv_module_reference(path, trajectories, stride):
    """The table written row by row through the csv module."""
    names = ["x"] if trajectories[0].points.shape[1] == 1 else \
        [f"c{i}" for i in range(trajectories[0].points.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trajectory_id", "t", *names, "regularized_flag"])
        for tid, traj in enumerate(trajectories):
            for r in range(0, len(traj.times), stride):
                writer.writerow([tid, repr(float(traj.times[r])),
                                 *(repr(float(v)) for v in traj.points[r]),
                                 int(bool(traj.regularized_flags[r]))])


@pytest.mark.parametrize("dims", [1, 3])
def test_trajectories_csv_matches_csv_module(tmp_path, dims):
    # values of any magnitude, NaN and -0.0 read back as written, with
    # each trajectory's own flags
    rng = np.random.default_rng(dims)
    times = 0.1 * np.arange(11)
    trajs = []
    for i in range(4):
        pts = rng.standard_normal((11, dims)) * 10.0 ** rng.integers(-9, 9)
        pts[2, 0] = np.nan if i == 1 else -0.0
        trajs.append(Trajectory(times, pts,
                                regularized_flags=rng.random(11) < 0.4))
    for stride in (1, 3):
        write_trajectories_csv(tmp_path / "got.csv", trajs, stride=stride)
        _csv_module_reference(tmp_path / "want.csv", trajs, stride)
        assert (tmp_path / "got.csv").read_bytes() \
            == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("block", [1, 10, 4096])
def test_trajectories_csv_shared_time_bases(tmp_path, monkeypatch, block):
    # the trajectories of one ensemble share one time base, whose column
    # is formatted once; rows written in blocks of any size are the csv
    # module's bytes
    monkeypatch.setattr(trajectories, "WRITE_BLOCK_VALUES", block)
    rng = np.random.default_rng(7)
    times = 1.0 / 3.0 + 0.05 * np.arange(11)
    trajs = [Trajectory(times, rng.standard_normal((11, 3)),
                        regularized_flags=rng.random(11) < 0.4)
             for _ in range(6)]
    for stride in (1, 3):
        write_trajectories_csv(tmp_path / "got.csv", trajs, stride=stride)
        _csv_module_reference(tmp_path / "want.csv", trajs, stride)
        assert (tmp_path / "got.csv").read_bytes() \
            == (tmp_path / "want.csv").read_bytes()


def test_grid_ensemble_reads_as_its_list_of_trajectories(tmp_path):
    # the array-backed result reads as the list of Trajectory objects that
    # a flow used to build from the same record arrays: length, indices
    # from either end, an IndexError past them, the last records as
    # final_points, and the same trajectories.csv bytes
    rng = np.random.default_rng(4)
    n, n_rec = 5, 9
    times = 0.25 + 0.05 * np.arange(n_rec)
    failed = np.array([False, True, False, False, True])
    res = GridEnsembleResult(
        times, rng.standard_normal((n, n_rec, 2)), rng.random((n, n_rec)) < 0.3,
        rng.integers(0, 6, n), failed, np.where(failed, 0.6, np.nan))
    as_list = [Trajectory(times, res.points[i],
                          node_regularization_events=int(res.node_counts[i]),
                          regularized_flags=res.reg_flags[i],
                          failed=bool(failed[i]),
                          exit_time=0.6 if failed[i] else None)
               for i in range(n)]
    assert len(res) == n
    assert_same_trajectories(res, as_list)
    assert_same_trajectories([res[-1], res[-n]], [as_list[-1], as_list[0]])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            res[i]
    assert np.array_equal(res.final_points(),
                          [tr.points[-1] for tr in as_list])
    for stride in (1, 3):
        write_trajectories_csv(tmp_path / "got.csv", res, stride=stride)
        write_trajectories_csv(tmp_path / "want.csv", as_list, stride=stride)
        assert (tmp_path / "got.csv").read_bytes() \
            == (tmp_path / "want.csv").read_bytes()
