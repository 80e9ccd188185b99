"""Brute-force 2D reference of the Stern-Gerlach Gordon run.

The package computes the Gordon run from the 1D factors phi(y) and chi(z)
of its product state.  This module does it the general way, on the (y, z)
plane, for the tests to compare against: the 2D initial spinor, density
and current stacks with the spin-curl (Gordon) term from
`_spectral_gradient`, bilinear interpolation, a 2D stage velocity for
`_kernels.grid_rk4`, the marginal/conditional equilibrium sampler and the
outcome labels from the two 2D component densities.
"""

import numpy as np

from bohmctx import _kernels, guidance
from bohmctx.fields import (ComplexField, GaussianPacketSpec, SpinorField,
                            make_gaussian)
from bohmctx.grids import SpatialGrid
from bohmctx.guidance import VelocityModel, VelocityStacks, _spectral_gradient
from bohmctx.pointer import labels_from_log_ratio
from bohmctx.sampling import EquilibriumSample, _cell_cdf, _stream, \
    inverse_cdf_sample
from bohmctx.trajectories import GridFlow


def plane(cfg) -> SpatialGrid:
    """The (y, z) grid of a Gordon config."""
    return SpatialGrid.plane(
        cfg.grid_n_y, (-cfg.grid_half_width_y, cfg.grid_half_width_y),
        cfg.grid_n_z, (-cfg.grid_half_width_z, cfg.grid_half_width_z))


def initial_spinor(cfg) -> SpinorField:
    """g(y) g(z) (alpha, beta e^{i phase}) built on the 2D grid."""
    grid = plane(cfg)
    g2 = make_gaussian(grid, GaussianPacketSpec.make(
        (0.0, 0.0), (cfg.sigma_y, cfg.sigma), (0.0, 0.0)))
    beta = cfg.beta * np.exp(1j * cfg.spinor_phase)
    return SpinorField(ComplexField(grid, cfg.alpha * g2.values),
                       ComplexField(grid, beta * g2.values))


def outer_spinor(grid: SpatialGrid, phi, chi) -> SpinorField:
    """The 2D spinor phi(y) chi(z) of a 1D scalar phi and 1D spinor chi."""
    return SpinorField(ComplexField(grid, np.outer(phi.values, chi.up.values)),
                       ComplexField(grid, np.outer(phi.values, chi.down.values)))


def gordon_current(state: SpinorField):
    """In-plane spin-curl current (G_y, G_z) = (hbar/2m)(d_z s_x, -d_y s_x)
    of a 2D spinor, s_x = 2 Re(u* d), with hbar/2m = 1/2."""
    s_x = 2.0 * (np.conj(state.up.values) * state.down.values).real
    ds = _spectral_gradient(s_x.astype(np.complex128), state.grid)
    return 0.5 * ds[1].real, -0.5 * ds[0].real


def current_and_density(state: SpinorField, gordon: bool):
    """(rho, [G_y, G_z]) of a 2D spinor frame, with or without the Gordon
    current added to the convective one."""
    rho, g = guidance.current_and_density(state, VelocityModel.SPINOR)
    if gordon:
        g_y, g_z = gordon_current(state)
        g = [g[0] + g_y, g[1] + g_z]
    return rho, g


def stacks(frames, times, gordon: bool) -> VelocityStacks:
    """2D density and current stacks of every frame."""
    fields = [current_and_density(f, gordon) for f in frames]
    rho = np.array([r for r, _ in fields])
    g = [np.array([cur[ax] for _, cur in fields]) for ax in range(2)]
    return VelocityStacks(frames[0].grid, np.asarray(times, dtype=float),
                          rho, g, rho.reshape(len(frames), -1).max(axis=1))


def bilinear(arr, pts, lo, dx):
    """Periodic bilinear interpolation of arr (ny, nz) at points (m, 2) of
    the grid with lower corner lo and spacing dx."""
    ny, nz = arr.shape
    sy = (pts[:, 0] - lo[0]) / dx[0]
    sz = (pts[:, 1] - lo[1]) / dx[1]
    j0 = np.floor(sy).astype(np.int64)
    i0 = np.floor(sz).astype(np.int64)
    fy, fz = sy - j0, sz - i0
    j0 %= ny
    i0 %= nz
    j1, i1 = (j0 + 1) % ny, (i0 + 1) % nz
    return (arr[j0, i0] * (1 - fy) * (1 - fz) + arr[j1, i0] * fy * (1 - fz)
            + arr[j0, i1] * (1 - fy) * fz + arr[j1, i1] * fy * fz)


def stage_velocity(q, t, vprev, fields, peaks, t0, frame_dt, lo, step,
                   node_rel):
    """The grid kernel's stage velocity over 2D stacks (S = F frames):
    each field bilinearly interpolated at frames f0 and f0 + 1, linearly
    in time, then v = G / rho with the kernel's node rule."""
    f0, w = _kernels._bracket(t, t0, frame_dt, len(peaks))
    pts, lo, dx = q.T, lo[:, 0], step[:, 0]
    rho_i, *g_i = [(1 - w) * bilinear(f[f0], pts, lo, dx)
                   + w * bilinear(f[f0 + 1], pts, lo, dx) for f in fields]
    return _kernels._guided(rho_i, g_i, peaks, f0, w, node_rel, vprev)


def integrate(st: VelocityStacks, positions, dt_traj, record_stride=1):
    """Trajectories from positions (n, 2) over 2D stacks, through the
    package's grid RK4 with the reference stage velocity."""
    flow = GridFlow(st.grid, st.times, positions, dt_traj, record_stride,
                    stage_velocity, ((st.rho, *st.g), st.peaks))
    flow.advance(len(st.times) - 1)
    return flow.trajectories


def sample(source, n: int, seed: int) -> EquilibriumSample:
    """(n, 2) points from |psi|^2 of a 2D field: y from the row marginal,
    then z from the conditional of the selected cell row, with the index's
    two uniforms in that order."""
    grid = source.grid
    rho = source.density()
    row_cdf = _cell_cdf(rho.sum(axis=1) * grid.cell_volume)
    cond_cdfs = np.empty((grid.n_points[0], grid.n_points[1] + 1))
    for j in range(grid.n_points[0]):
        cond_cdfs[j] = _cell_cdf(np.maximum(rho[j], 1e-300) * grid.dx[1])
    out = np.empty((n, 2))
    for i in range(n):
        u1, u2 = _stream(seed, i).random(2)
        out[i, 0] = inverse_cdf_sample(row_cdf, grid.x_min[0], grid.dx[0], u1)
        j = int(round((out[i, 0] - grid.x_min[0]) / grid.dx[0]))
        j = min(max(j, 0), grid.n_points[0] - 1)
        out[i, 1] = inverse_cdf_sample(cond_cdfs[j], grid.x_min[1], grid.dx[1],
                                       u2)
    for ax in range(2):
        out[:, ax] = np.clip(out[:, ax], grid.x_min[ax],
                             grid.x_max[ax] - 1e-9 * grid.dx[ax])
    return EquilibriumSample(out, seed, "marginal_conditional_2d")


def outcome_labels(final: SpinorField, points, ratio_threshold):
    """Spin labels from the dominant 2D component density, bilinearly
    interpolated at points (m, 2)."""
    grid = final.grid
    log_up, log_down = (np.log(np.maximum(
        bilinear(comp.density(), points, grid.x_min, grid.dx), 1e-300))
        for comp in (final.up, final.down))
    return labels_from_log_ratio(log_up - log_down, ("+", "-"),
                                 ratio_threshold)
