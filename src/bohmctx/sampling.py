"""Quantum-equilibrium sampling: initial positions drawn from |psi|^2.

Sampling inverts the grid CDF with linear interpolation inside each cell.
A product state phi(y) chi(z) on a (y, z) plane is sampled from its two
factors on their line grids: y from |phi|^2, then z from |chi|^2, which is
the conditional of z given y of every row.  Each sample index gets its own RNG
stream seeded by (seed, index), so results do not depend on draw order or
parallelism.
"""

import numpy as np

from .errors import ConfigError
from .fields import FieldLike, norm

NORM_TOLERANCE = 1e-6


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
    """Cell-edge values (length n + 1, 0 to 1) of the staircase CDF of cell
    masses (n,)."""
    cdf = np.concatenate([[0.0], np.cumsum(masses)])
    return cdf / cdf[-1]


def sample_equilibrium(source: FieldLike | tuple[FieldLike, FieldLike],
                       n: int, seed: int) -> np.ndarray:
    """Draw (n, 1) i.i.d. positions from |psi|^2 of a normalized field, or
    (n, 2) positions (y, z) from a pair (phi, chi) of normalized factors of
    a product state phi(y) chi(z), two uniforms per index (y first)."""
    if n < 1:
        raise ConfigError("sample count must be >= 1")
    factors = source if isinstance(source, tuple) else (source,)
    for f in factors:
        if abs(norm(f) - 1.0) > NORM_TOLERANCE:
            raise ConfigError("density source must be normalized to 1")
    grids = [f.grid for f in factors]
    cdfs = [_cell_cdf(f.density() * f.grid.dx) for f in factors]
    out = np.empty((n, len(factors)))
    for i in range(n):
        us = _stream(seed, i).random(len(factors))
        for ax, (grid, cdf, u) in enumerate(zip(grids, cdfs, us)):
            out[i, ax] = inverse_cdf_sample(cdf, grid.x_min, grid.dx, u)
    for ax, grid in enumerate(grids):
        out[:, ax] = np.clip(out[:, ax], grid.x_min,
                             grid.x_max - 1e-9 * grid.dx)
    return out
