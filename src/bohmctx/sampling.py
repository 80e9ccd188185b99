"""Quantum-equilibrium sampling: initial positions drawn from |psi|^2.

1D sampling inverts the grid CDF with linear interpolation inside each
cell.  2D sampling draws the first axis from the marginal, then the second
axis from the conditional of the selected cell row.  Each sample index gets
its own RNG stream seeded by (seed, index), so results do not depend on
draw order or parallelism.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import FieldLike, norm

NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class EquilibriumSample:
    positions: np.ndarray  # (n, dims)
    seed: int
    method: str


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(index)))


def inverse_cdf_sample(edges_cdf: np.ndarray, x0: float, dx: float,
                       u: float) -> float:
    """Invert a per-cell-linear CDF given cell-edge values edges_cdf
    (length n+1, increasing from 0 to 1).

    Cells are centered on their sample points: cell i spans
    [x0 + (i - 1/2) dx, x0 + (i + 1/2) dx), so a density symmetric on its
    grid points yields a sampling distribution with the same symmetry."""
    cell = int(np.searchsorted(edges_cdf, u, side="right")) - 1
    cell = min(max(cell, 0), len(edges_cdf) - 2)
    lo = edges_cdf[cell]
    hi = edges_cdf[cell + 1]
    frac = 0.5 if hi <= lo else (u - lo) / (hi - lo)
    return x0 + (cell + frac - 0.5) * dx


def _cell_cdf(masses: np.ndarray) -> np.ndarray:
    cdf = np.concatenate([[0.0], np.cumsum(masses)])
    return cdf / cdf[-1]


def sample_equilibrium(source: FieldLike, n: int, seed: int) -> EquilibriumSample:
    """Draw n i.i.d. positions from |psi|^2 of a normalized field."""
    if n < 1:
        raise ConfigError("sample count must be >= 1")
    if abs(norm(source) - 1.0) > NORM_TOLERANCE:
        raise ConfigError("density source must be normalized to 1")
    grid = source.grid
    rho = source.density()
    if grid.dims == 1:
        cdf = _cell_cdf(rho * grid.dx[0])
        out = np.empty((n, 1))
        for i in range(n):
            u = _stream(seed, i).random()
            out[i, 0] = inverse_cdf_sample(cdf, grid.x_min[0], grid.dx[0], u)
        out[:, 0] = np.clip(out[:, 0], grid.x_min[0],
                            grid.x_max[0] - 1e-9 * grid.dx[0])
        return EquilibriumSample(out, seed, "inverse_cdf_1d")

    row_masses = rho.sum(axis=1) * grid.cell_volume
    row_cdf = _cell_cdf(row_masses)
    cond_cdfs = np.empty((grid.n_points[0], grid.n_points[1] + 1))
    for j in range(grid.n_points[0]):
        cond_cdfs[j] = _cell_cdf(np.maximum(rho[j], 1e-300) * grid.dx[1])
    out = np.empty((n, 2))
    for i in range(n):
        rng = _stream(seed, i)
        u1, u2 = rng.random(2)
        out[i, 0] = inverse_cdf_sample(row_cdf, grid.x_min[0], grid.dx[0], u1)
        j = int(round((out[i, 0] - grid.x_min[0]) / grid.dx[0]))
        j = min(max(j, 0), grid.n_points[0] - 1)
        out[i, 1] = inverse_cdf_sample(cond_cdfs[j], grid.x_min[1], grid.dx[1], u2)
    for ax in range(2):
        out[:, ax] = np.clip(out[:, ax], grid.x_min[ax],
                             grid.x_max[ax] - 1e-9 * grid.dx[ax])
    return EquilibriumSample(out, seed, "marginal_conditional_2d")
