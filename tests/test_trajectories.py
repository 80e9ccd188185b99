import csv

import numpy as np
import pytest
from scipy.stats import kstest

from bohmctx import (ComplexField, ConfigError, GaussianPacketSpec,
                     PotentialSpec, SpatialGrid, make_gaussian, propagate,
                     sample_equilibrium, integrate_trajectories)
from bohmctx.analysis import audit_trajectories, grid_cdf
from bohmctx.guidance import VelocityModel, build_stacks, current_and_density
from bohmctx.sampling import EquilibriumSample
from bohmctx.trajectories import (FrameStream, Trajectory, endpoints,
                                  integrate_over_stacks,
                                  write_trajectories_csv)
from conftest import assert_same_trajectories


def plane_wave_frames(grid, k, t_final, n_frames):
    L = grid.x_max[0] - grid.x_min[0]
    x = grid.axis(0)
    times = np.linspace(0.0, t_final, n_frames)
    frames = [ComplexField(grid, np.exp(1j * (k * x - 0.5 * k * k * t)) / np.sqrt(L))
              for t in times]
    return frames, times


def test_plane_wave_trajectories_exact(line_grid):
    k = 2 * np.pi * 7 / 40.0
    frames, times = plane_wave_frames(line_grid, k, 2.0, 21)
    init = EquilibriumSample(np.array([[-3.0], [0.25], [5.5]]), 0, "manual")
    trajs = integrate_trajectories(frames, times, VelocityModel.SCALAR, init,
                                   dt_traj=0.01)
    for tr, x0 in zip(trajs, init.positions[:, 0]):
        assert abs(tr.points[-1, 0] - (x0 + k * 2.0)) <= 1e-10
        assert len(tr.times) == 201


def test_spreading_gaussian_center_stays(unit_gaussian):
    prop = propagate(unit_gaussian, PotentialSpec.free(), 0.01, 200,
                     frame_stride=2)
    init = EquilibriumSample(np.array([[0.0]]), 0, "manual")
    trajs = integrate_trajectories(prop.frames, prop.times,
                                   VelocityModel.SCALAR, init, dt_traj=0.01)
    assert np.abs(trajs[0].points[:, 0]).max() <= 1e-8


def test_equivariance_free_gaussian(line_grid, unit_gaussian):
    # endpoints of an equilibrium ensemble follow |psi(T)|^2
    prop = propagate(unit_gaussian, PotentialSpec.free(), 0.01, 200,
                     frame_stride=2)
    sample = sample_equilibrium(unit_gaussian, 2000, seed=21)
    trajs = integrate_trajectories(prop.frames, prop.times,
                                   VelocityModel.SCALAR, sample, dt_traj=0.01)
    ref = grid_cdf(line_grid.axis(0), prop.final.density(), line_grid.dx[0])
    stat = kstest(endpoints(trajs), ref).statistic
    assert stat < 0.05


def test_no_crossing_free_gaussian(line_grid, unit_gaussian):
    prop = propagate(unit_gaussian, PotentialSpec.free(), 0.01, 200,
                     frame_stride=2)
    sample = sample_equilibrium(unit_gaussian, 400, seed=3)
    trajs = integrate_trajectories(prop.frames, prop.times,
                                   VelocityModel.SCALAR, sample, dt_traj=0.005)
    assert audit_trajectories(trajs) == 0


def test_mirror_symmetry(line_grid, unit_gaussian):
    prop = propagate(unit_gaussian, PotentialSpec.free(), 0.01, 200,
                     frame_stride=2)
    init = EquilibriumSample(np.array([[1.3], [-1.3]]), 0, "manual")
    trajs = integrate_trajectories(prop.frames, prop.times,
                                   VelocityModel.SCALAR, init, dt_traj=0.005)
    assert np.abs(trajs[0].points[:, 0] + trajs[1].points[:, 0]).max() <= 1e-6


def test_step_size_robustness(line_grid, unit_gaussian):
    prop = propagate(unit_gaussian, PotentialSpec.free(), 0.01, 200,
                     frame_stride=2)
    sample = sample_equilibrium(unit_gaussian, 100, seed=8)
    stacks = build_stacks(prop.frames, prop.times, VelocityModel.SCALAR)
    coarse = integrate_over_stacks(stacks, sample.positions, 0.01)
    fine = integrate_over_stacks(stacks, sample.positions, 0.005)
    delta = np.abs(endpoints(coarse) - endpoints(fine)).max()
    assert delta < 1e-4


def test_domain_exit_marks_failed(line_grid):
    k = 2 * np.pi * 30 / 40.0  # fast mover
    frames, times = plane_wave_frames(line_grid, k, 4.0, 41)
    init = EquilibriumSample(np.array([[18.0]]), 0, "manual")
    trajs = integrate_trajectories(frames, times, VelocityModel.SCALAR, init,
                                   dt_traj=0.01)
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
        rho, g = current_and_density(state, VelocityModel.SCALAR)
        stream.add(step // frame_stride, rho, g)

    propagate(psi, PotentialSpec.free(), dt, n_steps,
              frame_stride=frame_stride, support_guard=False, observer=feed)
    prop = propagate(psi, PotentialSpec.free(), dt, n_steps,
                     frame_stride=frame_stride, support_guard=False)
    ref = integrate_over_stacks(
        build_stacks(prop.frames, prop.times, VelocityModel.SCALAR),
        positions, dt_traj, record_stride)
    assert 0 < sum(tr.failed for tr in ref) < len(ref)
    assert_same_trajectories(stream.flow.trajectories, ref)


def test_dt_exceeding_frame_spacing_rejected(line_grid, unit_gaussian):
    prop = propagate(unit_gaussian, PotentialSpec.free(), 0.01, 100,
                     frame_stride=10)
    sample = EquilibriumSample(np.array([[0.0]]), 0, "manual")
    with pytest.raises(ConfigError):
        integrate_trajectories(prop.frames, prop.times, VelocityModel.SCALAR,
                               sample, dt_traj=0.5)


def test_2d_trajectories_free_gaussian():
    grid = SpatialGrid.plane(128, (-12.0, 12.0), 128, (-12.0, 12.0))
    psi = make_gaussian(grid, GaussianPacketSpec.make((0, 0), (1, 1), (0.5, -0.5)))
    prop = propagate(psi, PotentialSpec.free(), 0.01, 100, frame_stride=2)
    init = EquilibriumSample(np.array([[0.0, 0.0], [0.5, -0.5]]), 0, "manual")
    trajs = integrate_trajectories(prop.frames, prop.times,
                                   VelocityModel.SCALAR, init, dt_traj=0.005)
    # the packet center rides at (0.5, -0.5); the center trajectory follows
    assert np.abs(trajs[0].points[-1] - np.array([0.5, -0.5])).max() <= 1e-3


def _csv_module_reference(path, trajectories, stride):
    """The table written row by row through the csv module."""
    names = ["x"] if trajectories[0].points.shape[1] == 1 else \
        [f"c{i}" for i in range(trajectories[0].points.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trajectory_id", "t", *names, "regularized_flag"])
        for tid, traj in enumerate(trajectories):
            flags = traj.regularized_flags
            for r in range(0, len(traj.times), stride):
                flag = int(bool(flags[r])) if flags is not None else 0
                writer.writerow([tid, repr(float(traj.times[r])),
                                 *(repr(float(v)) for v in traj.points[r]),
                                 flag])


@pytest.mark.parametrize("dims", [1, 3])
def test_trajectories_csv_matches_csv_module(tmp_path, dims):
    rng = np.random.default_rng(dims)
    trajs = []
    for i in range(4):
        pts = rng.standard_normal((11, dims)) * 10.0 ** rng.integers(-9, 9)
        pts[2, 0] = np.nan if i == 1 else -0.0
        flags = None if i == 2 else rng.random(11) < 0.4
        trajs.append(Trajectory(0.1 * np.arange(11), pts,
                                regularized_flags=flags))
    for stride in (1, 3):
        write_trajectories_csv(tmp_path / "got.csv", trajs, stride=stride)
        _csv_module_reference(tmp_path / "want.csv", trajs, stride)
        assert (tmp_path / "got.csv").read_bytes() \
            == (tmp_path / "want.csv").read_bytes()
