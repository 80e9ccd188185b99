"""The RK4 kernels against hand-written steps over the model's own velocity
field, the block-collective pointer velocity against the directly evaluated
two-branch wavefunction, and the kernels' recording grid."""

import math

import numpy as np
import pytest

from bohmctx import GaussianPacketSpec, PotentialSpec, make_gaussian
from bohmctx import _kernels
from bohmctx.config import AncillaChainConfig, OpticalSGConfig
from bohmctx.grids import SpatialGrid
from bohmctx.guidance import NODE_DENSITY_REL, _interp, build_stacks
from bohmctx.pointer import (POINTER_NODE_THRESH, BlockModel, CoordinateBlock,
                             integrate_pointer_ensemble,
                             sample_model_equilibrium)
from bohmctx.scenarios import (build_ancilla_model, build_optical_sg_model,
                               run_optical_sg)
from bohmctx.schedules import PiecewiseLinear
from bohmctx.trajectories import integrate_over_stacks
from conftest import propagate_frames
import rk4_reference as reference
from gaussian_oracle import stage_velocity


@pytest.fixture(scope="module")
def stacks_1d():
    grid = SpatialGrid.line(512, -20.0, 20.0)
    psi = make_gaussian(grid, GaussianPacketSpec.make(0.0, 1.0, 1.0))
    prop = propagate_frames(psi, PotentialSpec.free(), 0.01, 100,
                            frame_stride=2)
    return build_stacks(prop.frames, prop.times)


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
    pos = np.array([tr.points for tr in res])
    assert pos.shape == (100, 2, 17)
    assert np.array_equal(pos[:, 0], init)
    assert np.abs(pos[:, 1] - expected).max() <= 1e-12


def test_record_stride_times(stacks_1d):
    trajs = integrate_over_stacks(stacks_1d, np.array([0.3]), 0.005,
                                  record_stride=20)
    assert np.allclose(trajs[0].times, 0.1 * np.arange(11))


# -- grid kernel ---------------------------------------------------------------

@pytest.mark.parametrize("grid", [
    SpatialGrid.line(64, -4.0, 4.0),
    SpatialGrid.line(96, -6.5, 3.0),
], ids=["1d", "1d_offset"])
def test_grid_stage_velocity_matches_interp(grid):
    # the flat-gather stage velocity against G/rho, each interpolated in
    # time between the linear `_interp` values of two frames
    rng = np.random.default_rng(1)
    n_frames, t0, frame_dt = 5, 0.3, 0.25
    shape = (n_frames,) + grid.shape
    rho = rng.uniform(0.5, 1.5, shape)
    g = rng.standard_normal(shape)
    peaks = rho.max(axis=1)
    lo = np.reshape(grid.x_min, (-1, 1))
    step = np.reshape(grid.dx, (-1, 1))
    inside = rng.uniform(grid.x_min, grid.x_max, (20, 1))
    # the last cell interpolates across the periodic wrap
    last = rng.uniform(np.subtract(grid.x_max, grid.dx), grid.x_max, (6, 1))
    pts = np.concatenate([inside, last])
    vprev = np.full((1, len(pts)), 99.0)
    for ft in (0.0, 1.0, 1.5, 2.37, 3.0, n_frames - 1.0):
        t = t0 + ft * frame_dt
        f0 = min(int(np.floor(ft + 1e-12)), n_frames - 2)
        w = ft - f0

        def expect(arr):
            return ((1 - w) * _interp(grid, arr[f0], pts[:, 0])
                    + w * _interp(grid, arr[f0 + 1], pts[:, 0]))

        v, node = _kernels.grid_velocity(pts.T, t, vprev, (rho, g), peaks,
                                         t0, frame_dt, lo, step,
                                         NODE_DENSITY_REL)
        assert not node.any()
        assert np.abs(v[0] - expect(g) / expect(rho)).max() <= 1e-12


def test_grid_stage_velocity_node_keeps_vprev():
    grid = SpatialGrid.line(64, -4.0, 4.0)
    rho = np.ones((2,) + grid.shape)
    rho[:, 10] = 0.0  # a density zero at one grid node in both frames
    g = np.ones_like(rho)
    pts = np.array([[grid.axis()[10]], [0.1]])
    vprev = np.array([[0.25, 7.0]])
    v, node = _kernels.grid_velocity(pts.T, 0.5, vprev, (rho, g),
                                     np.ones(2), 0.0, 1.0,
                                     np.reshape(grid.x_min, (-1, 1)),
                                     np.reshape(grid.dx, (-1, 1)),
                                     NODE_DENSITY_REL)
    assert node.tolist() == [True, False]
    assert v[0, 0] == vprev[0, 0]
    assert abs(v[0, 1] - 1.0) <= 1e-12


@pytest.mark.parametrize("events", [True, False],
                         ids=["node_and_exit", "no_event"])
def test_grid_rk4_matches_reference_loop(events):
    # points move right at about 2 over T = 1.  With events, one point
    # crosses a band of zero density (nodes: it keeps its last velocity)
    # and one leaves the grid, so the kernel takes its no-node path before
    # them and its masked path after; without, only the no-node path.  The
    # plain reference loop masks every step and must agree bitwise
    grid = SpatialGrid.line(64, -4.0, 4.0)
    rng = np.random.default_rng(3)
    n_frames, frame_dt, dt, n_steps = 6, 0.2, 0.01, 100
    shape = (n_frames,) + grid.shape
    rho = rng.uniform(0.5, 1.5, shape)
    rho[:, 40:43] = 0.0  # zero density on [1.0, 1.25], nodes 40-42
    g = rho * rng.uniform(1.5, 2.5, shape)
    peaks = rho.max(axis=1)
    q0 = rng.uniform(-3.5, -1.5, (8, 1))
    if events:
        q0 = np.concatenate([q0, [[0.5], [3.0]]])
    lo = np.reshape(grid.x_min, (-1, 1))
    step = np.reshape(grid.dx, (-1, 1))

    args = ((rho, g), peaks, 0.0, frame_dt, lo, step, NODE_DENSITY_REL)
    rk4 = _kernels.grid_rk4(q0, _kernels.grid_velocity, args, lo,
                            lo + grid.n * step, step, 0.0, dt, n_steps, 5,
                            frame_dt, n_frames)
    next(rk4)
    with pytest.raises(StopIteration) as done:
        rk4.send(n_frames - 1)  # every frame is present
    got = done.value.value
    want = reference.grid_rk4(q0, reference.grid_velocity, args, lo, step,
                              grid.shape, dt, n_steps, 5)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
    rec, flags, counts, failed, _ = got
    if events:
        assert counts[-2] > 0 and flags[-2].any() and counts[:-2].sum() == 0
        assert failed.tolist() == [False] * 9 + [True]
    else:
        assert counts.sum() == 0 and not failed.any()


def test_product_velocity_matches_bilinear_reference():
    # product_velocity over random 1D factor tables against the brute-force
    # 2D stage velocity over their outer-product stacks (bilinear in space,
    # linear in time), the Gordon term on and off per point
    ny, nz, n_frames, t0, frame_dt = 64, 96, 5, 0.3, 0.25
    lo = np.array([[-4.0], [-6.0]])  # the plane [-4, 4) x [-6, 6)
    step = np.array([[8.0 / ny], [12.0 / nz]])
    x_min, dx = lo[:, 0], step[:, 0]
    x_max = x_min + dx * [ny, nz]
    rng = np.random.default_rng(2)
    y_tab = rng.standard_normal((n_frames, 3, ny))
    z_tab = rng.standard_normal((n_frames, 4, nz))
    y_tab[:, 0] = rng.uniform(0.5, 1.5, (n_frames, ny))   # P > 0
    z_tab[:, 0] = rng.uniform(0.5, 1.5, (n_frames, nz))   # R > 0
    P, J_phi, dP = y_tab.transpose(1, 0, 2)[:, :, :, None]
    R, J_chi, S, dS = z_tab.transpose(1, 0, 2)[:, :, None, :]
    peaks = P.max(axis=(1, 2)) * R.max(axis=(1, 2))
    inside = rng.uniform(x_min, x_max, (20, 2))
    # the last cell on each axis interpolates across the periodic wrap
    last = rng.uniform(x_max - dx, x_max, (6, 2))
    pts = np.concatenate([inside, last,
                          np.column_stack([inside[:6, 0], last[:, 1]])])
    vprev = np.full((2, len(pts)), 99.0)
    for weight in (1.0, 0.0):
        rho = P * R
        fields = (rho, J_phi * R + weight * P * dS, P * J_chi + weight * dP * S)
        for ft in (0.0, 1.0, 1.5, 2.37, 3.0, n_frames - 1.0):
            t = t0 + ft * frame_dt
            v, node = _kernels.product_velocity(
                pts.T, t, vprev, y_tab, z_tab, peaks,
                np.full(len(pts), weight), t0, frame_dt, lo, step,
                NODE_DENSITY_REL)
            want, want_node = stage_velocity(pts.T, t, vprev, fields, peaks,
                                             t0, frame_dt, lo, step,
                                             NODE_DENSITY_REL)
            assert not node.any() and not want_node.any()
            assert np.abs(v - want).max() <= 1e-12 * np.abs(want).max()


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
    """(hbar/m) Im(grad Psi / Psi) of the two-branch product wavefunction
    with hbar = m = 1, evaluated directly (no log space, no block means) at
    points q (n, C); each factor carries the phase exp(i v d)."""
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
                        * np.exp(-d * d / (4 * blk.sigma ** 2) + 1j * v * d))
                dlog[:, col] = -d / (2 * blk.sigma ** 2) + 1j * v
                col += 1
        psi += phi
        grad += phi[:, None] * dlog
    return (grad / psi[:, None]).imag


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
    pos = np.array([tr.points for tr in res])
    assert pos.shape == (30, len(res.times), model.n_coords)
    for sl in model.block_slices().values():
        dev = pos[:, :, sl] - pos[:, :, sl].mean(axis=2, keepdims=True)
        dev0 = init[:, None, sl] - init[:, None, sl].mean(axis=2, keepdims=True)
        assert np.abs(dev - dev0).max() <= 1e-12
    assert np.abs(model.block_means(pos.reshape(-1, model.n_coords))
                  - res.means.reshape(-1, 3)).max() <= 1e-12
    assert np.array_equal(res.final_points(), pos[:, -1])


def _mirror_model():
    """Opposite amplitudes, mirror-image schedules: the origin is a node
    of the branch sum at every time."""
    s = 1 / math.sqrt(2)
    ramp = PiecewiseLinear.ramp(0.0, 0.5, 2.0)
    return BlockModel(
        (CoordinateBlock("system", 1, 1.0, (PiecewiseLinear.constant(1.0),
                                            PiecewiseLinear.constant(-1.0))),
         CoordinateBlock("apparatus", 3, 1.0, (ramp, ramp.scaled(-1.0)))),
        (complex(s), complex(-s)), ("+", "-"), 1.0)


def test_node_is_flagged_and_keeps_previous_velocity():
    model = _mirror_model()
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


def _node_time_tables(n_steps, node_step):
    """Random two-block tables whose gaps are (0, pi) at every point at
    the midpoint of step node_step, so stages 2 and 3 of that step, and
    no other stage, are nodes."""
    rng = np.random.default_rng(9)
    nt = 2 * n_steps + 1
    tab = _kernels.BlockTables(
        rng.normal(0.0, 1.0, (nt, 2)), rng.normal(0.0, 0.3, (nt, 2, 2)),
        rng.normal(0.0, 1.0, (nt, 2)), *rng.normal(0.0, 1.0, (3, nt, 2)))
    tab.coef[2 * node_step + 1] = 0.0
    tab.base[2 * node_step + 1] = (0.0, math.pi)
    return tab


@pytest.mark.parametrize("case", ["node_point", "node_time", "no_node"])
def test_block_rk4_matches_reference_loop(case):
    # node_point: one point sits on the mirror model's node, so the kernel
    # masks every step; node_time: every point is a node in the middle
    # stages of one step only; no_node: the kernel takes its no-node path
    # on every step.  Each matches the plain reference loop, which masks
    # always, bitwise
    dt, n_steps = 0.01, 100
    means = np.random.default_rng(8).normal(0.0, 1.0, (12, 2))
    if case == "node_time":
        tab = _node_time_tables(n_steps, 37)
    else:
        model = _mirror_model()
        tab = model.block_tables(np.arange(2 * n_steps + 1) * (0.5 * dt))
        if case == "node_point":
            means[5] = 0.0
    # the loop as integrate_pointer_ensemble runs it: one frame interval,
    # both frames present, on an unbounded domain
    unbounded = np.full((2, 1), np.inf)
    got = _kernels.run_rk4(_kernels.grid_rk4(
        means, _kernels.block_stage_velocity,
        (tab, 0.5 * dt, POINTER_NODE_THRESH), -unbounded, unbounded, 0.0,
        0.0, dt, n_steps, 10, n_steps * dt, 2), 1)[:3]
    want = reference.block_rk4(means, tab, POINTER_NODE_THRESH, dt, n_steps,
                               10)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    counts = got[2].tolist()
    assert counts == {"node_point": [0] * 5 + [4 * n_steps] + [0] * 6,
                      "node_time": [2] * 12, "no_node": [0] * 12}[case]


def test_pointer_flow_never_fails_far_from_the_origin(monkeypatch):
    # the apparatus branches end 2e100 apart and the system's 1e100: each
    # trajectory follows one branch out there, through the grid loop on an
    # unbounded domain, which marks no trajectory failed and gives it no
    # exit time
    loop = []

    def spy(rk4, last_frame):
        loop.append(real(rk4, last_frame))
        return loop[-1]

    real = _kernels.run_rk4
    monkeypatch.setattr(_kernels, "run_rk4", spy)
    cfg = OpticalSGConfig(displacement=1e100, system_separation=1e100)
    model = build_optical_sg_model(cfg, 4)
    init = sample_model_equilibrium(model, 20, seed=5)
    res = integrate_pointer_ensemble(model, init, cfg.dt_traj)
    (_, _, _, failed, exit_times), = loop
    assert not failed.any() and np.isnan(exit_times).all()
    assert not any(tr.failed for tr in res)
    ends = model.block_means(res.final_points())
    assert set(np.sign(ends[:, 1])) == {-1.0, 1.0}
    assert np.array_equal(np.sign(ends[:, 0]), np.sign(ends[:, 1]))
    assert np.abs(np.abs(ends[:, 1]) - 1e100).max() <= 1e-12 * 1e100
    assert np.abs(ends[:, 0]).min() >= 0.49e100


def test_optical_sg_large_apparatus():
    # N = 512 costs what N = 1 costs: one coordinate per block
    report = run_optical_sg(OpticalSGConfig(N_sweep=[512], n=60, seed=3))
    acc = report.sub_reports[0].accuracies()["apparatus"]
    assert acc.n_resolved >= 55
    assert acc.fraction >= 0.99
