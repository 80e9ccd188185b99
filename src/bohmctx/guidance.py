"""Bohmian velocity fields over grid wavefunctions.

Per frame we differentiate the wavefunction spectrally once (one numpy.fft
transform pair, one grid axis at a time, batched over the spinor components
and the gradient axes) and keep the probability density rho and the
velocity-current G (with v = G / rho):

    scalar:  rho = |psi|^2,            G = (hbar/m) Im(psi* grad psi)
    spinor:  rho = |u|^2 + |d|^2,      G = (hbar/m) Im(u* grad u + d* grad d)

The velocity at a point is G / rho with both fields linearly interpolated
there, then one division, so states with a uniform phase gradient keep an
exactly uniform velocity.  The trajectory kernel does that interpolation
on the 1D stacks (`_kernels.grid_velocity`); `_interp` here serves the
outcome labels, which compare two densities at the trajectory endpoints.

The Stern-Gerlach Gordon run has no 2D field at all: its state is a
product phi(y) chi(z), so scenarios._sg_setup_2d keeps per-frame 1D tables
of each factor (`ProductTables`), with the spin-curl (Gordon) term
(hbar/2m)(d_z s_x, -d_y s_x) of s_x = 2 Re(u* d) formed from the spectral
gradients of its factors, and `_kernels.product_velocity` forms rho and G
from them at each point.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import SpinorField, FieldLike
from .grids import SpatialGrid

NODE_DENSITY_REL = 1e-12  # of frame peak density


class VelocityModel:
    SCALAR = "scalar_guidance"
    SPINOR = "spinor_convective"


def _spectral_gradient(values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Gradient of values (..., *grid.shape) over the grid axes, stacked
    (dims, ..., *grid.shape); leading axes are batched through one
    transform pair."""
    axes = range(-grid.dims, 0)
    ft = values
    for ax in axes:
        ft = np.fft.fft(ft, axis=ax)
    ik = np.empty((grid.dims,) + ft.shape, dtype=ft.dtype)
    for ax in range(grid.dims):
        shape = [1] * grid.dims
        shape[ax] = grid.n_points[ax]
        np.multiply(1j * grid.wavenumbers(ax).reshape(shape), ft, out=ik[ax])
    for ax in axes:
        np.fft.ifft(ik, axis=ax, out=ik)
    return ik


def current_and_density(state: FieldLike, model: str
                        ) -> tuple[np.ndarray, list[np.ndarray]]:
    """(rho, [G per axis]) for one frame under the given velocity model,
    with hbar = m = 1."""
    grid = state.grid
    if isinstance(state, SpinorField):
        if model == VelocityModel.SCALAR:
            raise ConfigError("scalar guidance cannot consume spinor frames")
        u, d = state.up.values, state.down.values
        rho = np.abs(u) ** 2 + np.abs(d) ** 2
        grads = _spectral_gradient(np.stack([u, d]), grid)
        g = [(np.conj(u) * grads[ax, 0] + np.conj(d) * grads[ax, 1]).imag
             for ax in range(grid.dims)]
        return rho, g
    if model != VelocityModel.SCALAR:
        raise ConfigError("spinor guidance requires SpinorField frames")
    psi = state.values
    rho = np.abs(psi) ** 2
    gpsi = _spectral_gradient(psi, grid)
    g = [(np.conj(psi) * gpsi[ax]).imag for ax in range(grid.dims)]
    return rho, g


def _interp(grid: SpatialGrid, arr: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Linear periodic interpolation of a 1D grid array at points (m, 1)."""
    s = (pts[:, 0] - grid.x_min[0]) / grid.dx[0]
    i0 = np.floor(s).astype(np.int64)
    frac = s - i0
    i0 %= grid.n_points[0]
    i1 = (i0 + 1) % grid.n_points[0]
    return arr[i0] * (1 - frac) + arr[i1] * frac


@dataclass
class VelocityStacks:
    """Per-frame rho and current fields, stacked for the kernels with
    frame f in slot f % S: S = F when every frame is stored (build_stacks),
    a few slots while a propagation runs (trajectories.FrameStream)."""
    grid: SpatialGrid
    times: np.ndarray  # (F,)
    rho: np.ndarray    # (S, *grid.shape)
    g: list[np.ndarray]  # dims arrays, each (S, *grid.shape)
    peaks: np.ndarray  # (F,)


@dataclass
class ProductTables:
    """Per-frame 1D tables of a product state phi(y) chi(z) on a 2D (y, z)
    grid, read by `_kernels.product_velocity`."""
    grid: SpatialGrid
    times: np.ndarray
    y: np.ndarray      # (F, 3, ny): P = |phi|^2, J_phi, -(hbar/2m) P'
    z: np.ndarray      # (F, 4, nz): R, J_chi, S = 2 Re(chi_up* chi_down),
    #                    (hbar/2m) S'
    peaks: np.ndarray  # (F,) max P * max R, the peak of rho = P R


def build_stacks(frames: list[FieldLike], times: np.ndarray,
                 model: str) -> VelocityStacks:
    if len(frames) < 2:
        raise ConfigError("at least two frames are required")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ConfigError("frames must be uniformly spaced in time")
    grid = frames[0].grid
    shape = (len(frames),) + grid.shape
    rho = np.empty(shape)
    g = [np.empty(shape) for _ in range(grid.dims)]
    for f, state in enumerate(frames):
        r, cur = current_and_density(state, model)
        rho[f] = r
        for ax in range(grid.dims):
            g[ax][f] = cur[ax]
    peaks = rho.reshape(len(frames), -1).max(axis=1)
    return VelocityStacks(grid, np.asarray(times, dtype=float), rho, g, peaks)
