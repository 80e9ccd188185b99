"""The RK4 kernels against hand-written steps over the model's own velocity
field, the block-collective pointer velocity against the directly evaluated
two-branch wavefunction, and the kernels' recording grid."""

import math

import numpy as np
import pytest

from bohmctx import GaussianPacketSpec, PotentialSpec, make_gaussian, propagate
from bohmctx import _kernels
from bohmctx.config import AncillaChainConfig, OpticalSGConfig
from bohmctx.grids import SpatialGrid
from bohmctx.guidance import (NODE_DENSITY_REL, VelocityModel, _interp,
                              build_stacks)
from bohmctx.pointer import (POINTER_NODE_THRESH, BlockModel, CoordinateBlock,
                             integrate_pointer_ensemble,
                             sample_model_equilibrium)
from bohmctx.scenarios import (build_ancilla_model, build_optical_sg_model,
                               run_optical_sg)
from bohmctx.schedules import PiecewiseLinear
from bohmctx.trajectories import integrate_over_stacks


@pytest.fixture(scope="module")
def stacks_1d():
    grid = SpatialGrid.line(512, -20.0, 20.0)
    psi = make_gaussian(grid, GaussianPacketSpec.make(0.0, 1.0, 1.0))
    prop = propagate(psi, PotentialSpec.free(), 0.01, 100, frame_stride=2)
    return build_stacks(prop.frames, prop.times, VelocityModel.SCALAR)


def test_pointer_one_step_matches_hand_rk4():
    # a single RK4 step has no room for decision-boundary amplification, so
    # the kernel must match a step built from BlockModel.velocities to rounding
    model = build_optical_sg_model(OpticalSGConfig(), 16)
    init = sample_model_equilibrium(model, 100, seed=4)
    T = model.T
    k1 = model.velocities(init, 0.0)
    k2 = model.velocities(init + 0.5 * T * k1, 0.5 * T)
    k3 = model.velocities(init + 0.5 * T * k2, 0.5 * T)
    k4 = model.velocities(init + T * k3, T)
    expected = init + (T / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    res = integrate_pointer_ensemble(model, init, T)
    assert res.positions.shape == (100, 2, 17)
    assert np.array_equal(res.positions[:, 0], init)
    assert np.abs(res.positions[:, 1] - expected).max() <= 1e-12


def test_record_stride_times(stacks_1d):
    trajs = integrate_over_stacks(stacks_1d, np.array([0.3]), 0.005,
                                  record_stride=20)
    assert np.allclose(trajs[0].times, 0.1 * np.arange(11))


# -- grid kernel ---------------------------------------------------------------

@pytest.mark.parametrize("grid", [
    SpatialGrid.line(64, -4.0, 4.0),
    SpatialGrid.plane(64, (-4.0, 4.0), 96, (-6.0, 6.0)),
], ids=["1d", "2d"])
def test_grid_stage_velocity_matches_interp(grid):
    # the flat-gather stage velocity against G/rho, each interpolated in
    # time between the bilinear (linear) `_interp` values of two frames
    rng = np.random.default_rng(grid.dims)
    n_frames, t0, frame_dt = 5, 0.3, 0.25
    shape = (n_frames,) + grid.shape
    rho = rng.uniform(0.5, 1.5, shape)
    g = [rng.standard_normal(shape) for _ in range(grid.dims)]
    peaks = rho.reshape(n_frames, -1).max(axis=1)
    lo = np.reshape(grid.x_min, (-1, 1))
    step = np.reshape(grid.dx, (-1, 1))
    inside = rng.uniform(grid.x_min, grid.x_max, (20, grid.dims))
    # the last cell on each axis interpolates across the periodic wrap
    last = rng.uniform(np.subtract(grid.x_max, grid.dx), grid.x_max,
                       (6, grid.dims))
    mixed = np.column_stack([inside[:6, 0], last[:, -1]]) if grid.dims == 2 \
        else last[:0]
    pts = np.concatenate([inside, last, mixed])
    vprev = np.full((grid.dims, len(pts)), 99.0)
    for ft in (0.0, 1.0, 1.5, 2.37, 3.0, n_frames - 1.0):
        t = t0 + ft * frame_dt
        f0 = min(int(np.floor(ft + 1e-12)), n_frames - 2)
        w = ft - f0

        def expect(arr):
            return ((1 - w) * _interp(grid, arr[f0], pts)
                    + w * _interp(grid, arr[f0 + 1], pts))

        v, node = _kernels.grid_velocity(pts.T, t, vprev, (rho, *g), peaks,
                                         t0, frame_dt, lo, step,
                                         NODE_DENSITY_REL)
        want = np.array([expect(gi) for gi in g]) / expect(rho)
        assert not node.any()
        assert np.abs(v - want).max() <= 1e-12


def test_grid_stage_velocity_node_keeps_vprev():
    grid = SpatialGrid.plane(64, (-4.0, 4.0), 64, (-4.0, 4.0))
    rho = np.ones((2,) + grid.shape)
    rho[:, 10, 20] = 0.0  # a density zero at one grid node in both frames
    g = [np.ones_like(rho), np.ones_like(rho)]
    pts = np.array([[grid.axis(0)[10], grid.axis(1)[20]], [0.1, 0.2]])
    vprev = np.array([[0.25, 7.0], [-1.5, 7.0]])
    v, node = _kernels.grid_velocity(pts.T, 0.5, vprev, (rho, *g),
                                     np.ones(2), 0.0, 1.0,
                                     np.reshape(grid.x_min, (-1, 1)),
                                     np.reshape(grid.dx, (-1, 1)),
                                     NODE_DENSITY_REL)
    assert node.tolist() == [True, False]
    assert np.array_equal(v[:, 0], vprev[:, 0])
    assert np.abs(v[:, 1] - 1.0).max() <= 1e-12


# -- block-collective pointer kernel ------------------------------------------

def _random_model(rng, counts=(1, 2, 4), shift=2.0, weights=(0.2, 0.8)):
    """Three blocks with random widths, ramps (moving the centers by up to
    `shift`) and complex amplitudes (|c_+|^2 drawn from `weights`)."""
    blocks = []
    for k, count in enumerate(counts):
        sigma = rng.uniform(0.6, 1.4)
        t_on, t_off = sorted(rng.uniform(0.0, 1.0, 2))
        start = rng.uniform(-0.5, 0.5)
        ramps = tuple(PiecewiseLinear.ramp(t_on, t_off + 0.05,
                                           start + rng.uniform(-shift, shift),
                                           start=start) for _ in range(2))
        blocks.append(CoordinateBlock(f"b{k}", count, sigma, ramps))
    p = rng.uniform(*weights)
    amps = (math.sqrt(w) * complex(math.cos(a), math.sin(a))
            for w, a in zip((p, 1 - p), rng.uniform(-math.pi, math.pi, 2)))
    return BlockModel(tuple(blocks), tuple(amps), ("+", "-"), 1.0)


def _oracle_velocity(model, q, t):
    """(hbar/m) Im(grad Psi / Psi) of the two-branch product wavefunction,
    evaluated directly (no log space, no block means) at points q (n, C)."""
    k = model.units.mass / model.units.hbar
    psi = np.zeros(q.shape[0], dtype=complex)
    grad = np.zeros(q.shape, dtype=complex)
    for b, amp in enumerate(model.amplitudes):
        phi = np.full(q.shape[0], amp, dtype=complex)
        dlog = np.empty(q.shape, dtype=complex)
        col = 0
        for blk in model.blocks:
            c = float(blk.centers[b].value(t))
            v = float(blk.centers[b].velocity(t))
            for _ in range(blk.count):
                d = q[:, col] - c
                phi *= ((2 * np.pi * blk.sigma ** 2) ** -0.25
                        * np.exp(-d * d / (4 * blk.sigma ** 2) + 1j * k * v * d))
                dlog[:, col] = -d / (2 * blk.sigma ** 2) + 1j * k * v
                col += 1
        psi += phi
        grad += phi[:, None] * dlog
    return (grad / psi[:, None]).imag / k


def test_block_velocity_matches_wavefunction_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        model = _random_model(rng)
        t = rng.uniform(0.0, 1.0)
        centers, _ = model.schedule_tables(np.array([t]))
        mix = centers[0, rng.integers(0, 2, size=7)]  # near either branch
        q = (mix[:, model.coordinate_blocks()]
             + rng.normal(0.0, 1.0, (7, model.n_coords)))
        want = _oracle_velocity(model, q, t)
        got = model.velocities(q, t)
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def test_block_rk4_matches_per_coordinate_rk4():
    # 40 steps of the block kernel against RK4 of every coordinate under the
    # oracle velocity, on a non-stiff configuration: strongly overlapping
    # branches of unequal weight keep trajectories away from branch-sum
    # nodes, where rounding differences would be amplified
    model = _random_model(np.random.default_rng(5), counts=(1, 3, 2),
                          shift=0.5, weights=(0.85, 0.95))
    q = np.random.default_rng(6).normal(0.0, 1.0, (20, model.n_coords))
    dt = 0.025
    expected = q.copy()
    for step in range(40):
        t = step * dt
        k1 = _oracle_velocity(model, expected, t)
        k2 = _oracle_velocity(model, expected + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = _oracle_velocity(model, expected + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = _oracle_velocity(model, expected + dt * k3, t + dt)
        expected = expected + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    res = integrate_pointer_ensemble(model, q, dt, record_stride=40)
    assert np.abs(res.final_points() - expected).max() <= 1e-10


def test_within_block_deviations_are_conserved():
    model = build_ancilla_model(AncillaChainConfig(N_prime=5, N=7))
    init = sample_model_equilibrium(model, 30, seed=2)
    res = integrate_pointer_ensemble(model, init, 0.0025, record_stride=10)
    pos = res.positions
    assert pos.shape == (30, len(res.times), model.n_coords)
    for sl in model.block_slices().values():
        dev = pos[:, :, sl] - pos[:, :, sl].mean(axis=2, keepdims=True)
        dev0 = init[:, None, sl] - init[:, None, sl].mean(axis=2, keepdims=True)
        assert np.abs(dev - dev0).max() <= 1e-12
    assert np.abs(model.block_means(pos.reshape(-1, model.n_coords))
                  - res.means.reshape(-1, 3)).max() <= 1e-12
    assert np.array_equal(res.final_points(), pos[:, -1])
    assert np.array_equal(res.trajectories()[4].points, pos[4])


def test_node_is_flagged_and_keeps_previous_velocity():
    # opposite amplitudes, mirror-image schedules: the origin is a node of
    # the branch sum at every time
    s = 1 / math.sqrt(2)
    ramp = PiecewiseLinear.ramp(0.0, 0.5, 2.0)
    model = BlockModel(
        (CoordinateBlock("system", 1, 1.0, (PiecewiseLinear.constant(1.0),
                                            PiecewiseLinear.constant(-1.0))),
         CoordinateBlock("apparatus", 3, 1.0, (ramp, ramp.scaled(-1.0)))),
        (complex(s), complex(-s)), ("+", "-"), 1.0)
    tab = model.block_tables(np.array([0.3]))
    means = np.array([[0.0, 0.0], [0.4, -0.2]])
    vprev = np.array([[0.25, -1.5], [7.0, 7.0]])
    v, node = _kernels.block_velocity(means, tab, 0, POINTER_NODE_THRESH,
                                      vprev)
    assert node.tolist() == [True, False]
    assert np.array_equal(v[0], vprev[0])
    assert np.all(np.isfinite(v[1])) and not np.array_equal(v[1], vprev[1])

    init = np.array([np.zeros(4), [0.4, 0.1, -0.3, 0.0]])
    res = integrate_pointer_ensemble(model, init, 0.01, record_stride=10)
    assert res.node_counts.tolist() == [4 * 100, 0]
    assert res.reg_flags[0, 1:].all() and not res.reg_flags[1].any()
    assert np.array_equal(res.final_points()[0], init[0])


def test_optical_sg_large_apparatus():
    # N = 512 costs what N = 1 costs: one coordinate per block
    report = run_optical_sg(OpticalSGConfig(N_sweep=[512], n=60, seed=3))
    acc = report.sub_reports[0].accuracies()["apparatus"]
    assert acc.n_resolved >= 55
    assert acc.fraction >= 0.99
