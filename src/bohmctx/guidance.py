"""Bohmian velocity fields over grid wavefunctions.

Per frame we differentiate the 1D wavefunction spectrally once (one
numpy.fft transform pair, batched over the spinor components) and keep the
probability density rho and the velocity-current G (with v = G / rho):

    scalar:  rho = |psi|^2,            G = (hbar/m) Im(psi* psi')
    spinor:  rho = |u|^2 + |d|^2,      G = (hbar/m) Im(u* u' + d* d')

The velocity at a point is G / rho with both fields linearly interpolated
there, then one division, so states with a uniform phase gradient keep an
exactly uniform velocity.  The trajectory kernel does that interpolation
on the 1D stacks (`_kernels.grid_velocity`); `_interp` here serves the
outcome labels, which compare two densities at the trajectory endpoints.

The Stern-Gerlach Gordon run moves on a (y, z) plane but has no 2D field
at all: its state is a product phi(y) chi(z), so scenarios._sg_setup_2d
keeps per-frame 1D tables of each factor on its own line grid
(`ProductTables`), with the spin-curl (Gordon) term
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


def _spectral_gradient(values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """d/dx of values (..., n) along the grid axis; leading axes are
    batched through one transform pair."""
    ft = np.fft.fft(values, axis=-1)
    np.multiply(1j * grid.wavenumbers(), ft, out=ft)
    return np.fft.ifft(ft, axis=-1, out=ft)


def current_and_density(state: FieldLike) -> tuple[np.ndarray, np.ndarray]:
    """(rho, G) for one frame, with hbar = m = 1: the scalar current of a
    ComplexField, the convective current of a SpinorField."""
    if isinstance(state, SpinorField):
        u, d = state.up.values, state.down.values
        rho = np.abs(u) ** 2 + np.abs(d) ** 2
        du, dd = _spectral_gradient(np.stack([u, d]), state.grid)
        return rho, (np.conj(u) * du + np.conj(d) * dd).imag
    psi = state.values
    return (np.abs(psi) ** 2,
            (np.conj(psi) * _spectral_gradient(psi, state.grid)).imag)


def _interp(grid: SpatialGrid, arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear periodic interpolation of a grid array at points x (m,)."""
    s = (x - grid.x_min) / grid.dx
    i0 = np.floor(s).astype(np.int64)
    frac = s - i0
    i0 %= grid.n
    i1 = (i0 + 1) % grid.n
    return arr[i0] * (1 - frac) + arr[i1] * frac


@dataclass
class VelocityStacks:
    """Per-frame rho and current fields, stacked for the kernels with
    frame f in slot f % S: S = F when every frame is stored (build_stacks),
    a few slots while a propagation runs (trajectories.FrameStream)."""
    grid: SpatialGrid
    times: np.ndarray  # (F,)
    rho: np.ndarray    # (S, n)
    g: np.ndarray      # (S, n)
    peaks: np.ndarray  # (F,)


@dataclass
class ProductTables:
    """Per-frame 1D tables of a product state phi(y) chi(z), each factor on
    its own line grid, read by `_kernels.product_velocity`."""
    y_grid: SpatialGrid
    z_grid: SpatialGrid
    times: np.ndarray
    y: np.ndarray      # (F, 3, ny): P = |phi|^2, J_phi, -(hbar/2m) P'
    z: np.ndarray      # (F, 4, nz): R, J_chi, S = 2 Re(chi_up* chi_down),
    #                    (hbar/2m) S'
    peaks: np.ndarray  # (F,) max P * max R, the peak of rho = P R


def build_stacks(frames: list[FieldLike], times: np.ndarray
                 ) -> VelocityStacks:
    if len(frames) < 2:
        raise ConfigError("at least two frames are required")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ConfigError("frames must be uniformly spaced in time")
    shape = (len(frames),) + frames[0].grid.shape
    rho, g = np.empty(shape), np.empty(shape)
    for f, state in enumerate(frames):
        rho[f], g[f] = current_and_density(state)
    return VelocityStacks(frames[0].grid, np.asarray(times, dtype=float),
                          rho, g, rho.max(axis=1))
