"""Bohmian velocity fields over grid wavefunctions.

Per frame we differentiate the wavefunction spectrally once (one scipy.fft
transform pair over the grid axes, batched over the spinor components and
the gradient axes) and keep the probability density rho and the
velocity-current G (with v = G / rho):

    scalar:  rho = |psi|^2,            G = (hbar/m) Im(psi* grad psi)
    spinor:  rho = |u|^2 + |d|^2,      G = (hbar/m) Im(u* grad u + d* grad d)
    gordon:  adds (hbar/2m) (d_z s_x, -d_y s_x) with s_x = 2 Re(u* d)

Point evaluations interpolate the precomputed rho/G fields (linear in 1D,
bilinear in 2D) and divide once, so states with a uniform phase gradient
keep an exactly uniform velocity.  The Gordon term exists only on 2D
(y, z) grids; the out-of-plane curl component is discarded.

These are the general 2D formulas.  The Stern-Gerlach Gordon run never
builds 2D fields from them: its state is a product phi(y) chi(z), so
scenarios._sg_setup_2d keeps per-frame 1D tables of each factor
(`ProductTables`) and `_kernels.product_velocity` forms rho and G from
them at each point.  build_stacks over the frames of a 2D propagation with
these formulas is the test reference for that product form.
"""

from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import ConfigError
from .fields import ComplexField, SpinorField, FieldLike
from .grids import SpatialGrid
from .units import UnitsConfig, DEFAULT_UNITS

NODE_DENSITY_REL = 1e-12  # of frame peak density


class VelocityModel:
    SCALAR = "scalar_guidance"
    SPINOR = "spinor_convective"
    SPINOR_GORDON = "spinor_with_gordon"
    ALL = (SCALAR, SPINOR, SPINOR_GORDON)


def _spectral_gradient(values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Gradient of values (..., *grid.shape) over the grid axes, stacked
    (dims, ..., *grid.shape); leading axes are batched through one
    transform pair."""
    axes = tuple(range(-grid.dims, 0))
    ft = fft.fftn(values, axes=axes)
    ik = np.empty((grid.dims,) + ft.shape, dtype=ft.dtype)
    for ax in range(grid.dims):
        shape = [1] * grid.dims
        shape[ax] = grid.n_points[ax]
        np.multiply(1j * grid.wavenumbers(ax).reshape(shape), ft, out=ik[ax])
    return fft.ifftn(ik, axes=axes, overwrite_x=True)


def current_and_density(state: FieldLike, model: str,
                        units: UnitsConfig = DEFAULT_UNITS
                        ) -> tuple[np.ndarray, list[np.ndarray]]:
    """(rho, [G per axis]) for one frame under the given velocity model."""
    grid = state.grid
    scale = units.hbar / units.mass
    if isinstance(state, SpinorField):
        if model == VelocityModel.SCALAR:
            raise ConfigError("scalar guidance cannot consume spinor frames")
        u, d = state.up.values, state.down.values
        rho = np.abs(u) ** 2 + np.abs(d) ** 2
        grads = _spectral_gradient(np.stack([u, d]), grid)
        g = [scale * (np.conj(u) * grads[ax, 0]
                      + np.conj(d) * grads[ax, 1]).imag
             for ax in range(grid.dims)]
        if model == VelocityModel.SPINOR_GORDON:
            g_y, g_z = gordon_current(state, units)
            g[0] = g[0] + g_y
            g[1] = g[1] + g_z
        return rho, g
    if model != VelocityModel.SCALAR:
        raise ConfigError("spinor guidance requires SpinorField frames")
    psi = state.values
    rho = np.abs(psi) ** 2
    gpsi = _spectral_gradient(psi, grid)
    g = [scale * (np.conj(psi) * gpsi[ax]).imag for ax in range(grid.dims)]
    return rho, g


def gordon_current(state: SpinorField, units: UnitsConfig = DEFAULT_UNITS
                   ) -> tuple[np.ndarray, np.ndarray]:
    """In-plane spin-curl current (G_y, G_z) = (hbar/2m)(d_z s_x, -d_y s_x)
    of any 2D spinor; behind gordon_velocity and the SPINOR_GORDON model."""
    grid = state.grid
    if grid.dims != 2:
        raise ConfigError("the Gordon term is only defined on 2D (y, z) grids")
    s_x = 2.0 * (np.conj(state.up.values) * state.down.values).real
    ds = _spectral_gradient(s_x.astype(np.complex128), grid)
    pref = units.hbar / (2.0 * units.mass)
    return pref * ds[1].real, -pref * ds[0].real


def _interp(grid: SpatialGrid, arr: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Linear/bilinear periodic interpolation of a grid array at points
    (m, dims)."""
    if grid.dims == 1:
        s = (pts[:, 0] - grid.x_min[0]) / grid.dx[0]
        i0 = np.floor(s).astype(np.int64)
        frac = s - i0
        i0 %= grid.n_points[0]
        i1 = (i0 + 1) % grid.n_points[0]
        return arr[i0] * (1 - frac) + arr[i1] * frac
    sy = (pts[:, 0] - grid.x_min[0]) / grid.dx[0]
    sz = (pts[:, 1] - grid.x_min[1]) / grid.dx[1]
    j0 = np.floor(sy).astype(np.int64)
    i0 = np.floor(sz).astype(np.int64)
    fy = sy - j0
    fz = sz - i0
    j0 %= grid.n_points[0]
    i0 %= grid.n_points[1]
    j1 = (j0 + 1) % grid.n_points[0]
    i1 = (i0 + 1) % grid.n_points[1]
    return (arr[j0, i0] * (1 - fy) * (1 - fz) + arr[j1, i0] * fy * (1 - fz)
            + arr[j0, i1] * (1 - fy) * fz + arr[j1, i1] * fy * fz)


def _as_points(x, dims: int) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dims == 1 else pts.reshape(1, -1)
    if pts.shape[1] != dims:
        raise ConfigError(f"points must have {dims} coordinates")
    return pts


def _evaluate(grid: SpatialGrid, rho: np.ndarray, g, x, with_flags: bool):
    """v = G / rho interpolated at point(s) x, density floored at nodes."""
    pts = _as_points(x, grid.dims)
    for i in range(grid.dims):
        if np.any(pts[:, i] < grid.x_min[i]) or np.any(pts[:, i] >= grid.x_max[i]):
            raise ConfigError("evaluation point outside the grid domain")
    peak = float(rho.max())
    rho_i = _interp(grid, rho, pts)
    flags = rho_i < NODE_DENSITY_REL * peak
    rho_safe = np.maximum(rho_i, NODE_DENSITY_REL * peak)  # regularized floor
    v = np.stack([_interp(grid, gi, pts) / rho_safe for gi in g], axis=1)
    squeeze = np.asarray(x).ndim <= 1
    if squeeze and v.shape[0] == 1:
        v = v[0]
        flags = bool(flags[0])
    if with_flags:
        return v, flags
    return v


def velocity_scalar(field: ComplexField, x, units: UnitsConfig = DEFAULT_UNITS,
                    with_flags: bool = False):
    """Guidance velocity v = (hbar/m) Im(grad psi / psi) at point(s) x.

    Near nodes (density below 1e-12 of peak) the density is floored and the
    result flagged when with_flags=True; no error is raised.
    """
    rho, g = current_and_density(field, VelocityModel.SCALAR, units)
    return _evaluate(field.grid, rho, g, x, with_flags)


def velocity_spinor(spinor: SpinorField, x, units: UnitsConfig = DEFAULT_UNITS,
                    with_flags: bool = False):
    """Convective spinor velocity hbar Im(Psi^dag grad Psi)/(m Psi^dag Psi)."""
    rho, g = current_and_density(spinor, VelocityModel.SPINOR, units)
    return _evaluate(spinor.grid, rho, g, x, with_flags)


def gordon_velocity(spinor: SpinorField, x, units: UnitsConfig = DEFAULT_UNITS,
                    with_flags: bool = False):
    """In-plane Gordon correction (hbar/2m)(d_z s_x, -d_y s_x)/rho on a 2D
    grid.  This is only the correction; add it to velocity_spinor for the
    full spin-corrected flow."""
    return _evaluate(spinor.grid, spinor.density(),
                     gordon_current(spinor, units), x, with_flags)


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


def build_stacks(frames: list[FieldLike], times: np.ndarray, model: str,
                 units: UnitsConfig = DEFAULT_UNITS) -> VelocityStacks:
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
        r, cur = current_and_density(state, model, units)
        rho[f] = r
        for ax in range(grid.dims):
            g[ax][f] = cur[ax]
    peaks = rho.reshape(len(frames), -1).max(axis=1)
    return VelocityStacks(grid, np.asarray(times, dtype=float), rho, g, peaks)
